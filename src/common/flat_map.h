#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/result.h"

/// \file flat_map.h
/// Open-addressing u64→u64 hash map for the statistics dictionaries and the
/// value interner. Key/value pairs sit inline in one power-of-two array with
/// linear probing — one cache line per lookup in the common case, no
/// per-entry allocation. It is tombstone-free: the statistics never erase
/// individual keys (CompressToSketch drops the whole dictionary), so no erase
/// operation is offered and probe chains never degrade.
///
/// A map can also hold only its entries in ascending key order (FromSorted
/// with defer_hash, MergeSorted): the training statistics' form from build to
/// freeze. Counting sorts and merges runs instead of incrementing probes, and
/// calibration reads counts by merge-join (JoinSorted), so a probe array is
/// built (EnsureHashed) only for what is frozen into a model.

namespace autodetect {

/// Key 0 is the empty-slot sentinel internally; it is still a valid user key
/// (pattern keys are FNV/mix outputs, so 0 is possible in principle) and is
/// handled in a dedicated side slot.
class FlatMap64 {
 public:
  /// One probe-array entry. 16 bytes, trivially copyable — the frozen model
  /// format stores these verbatim, so the layout is part of the ADMODEL2
  /// on-disk contract.
  struct Slot {
    uint64_t key = 0;
    uint64_t value = 0;
  };
  static_assert(sizeof(Slot) == 16);

  class FrozenView;

  FlatMap64() = default;

  size_t size() const { return size_ + (has_zero_ ? 1 : 0); }
  bool empty() const { return size() == 0; }
  size_t capacity() const { return slots_.size(); }

  /// Probe-array bytes this map freezes to in the canonical layout — the
  /// size(L) input of the selection knapsack. A function of the entry count
  /// alone, not of the resident array: a map that was reserved ahead of its
  /// content, or is still hash-deferred, is priced the same as its
  /// canonical copy.
  size_t MemoryBytes() const {
    return size_ == 0 ? 0 : RequiredCapacity(size_) * sizeof(Slot);
  }

  /// \brief Ensures capacity for `n` entries without rehashing. Call before
  /// bulk insertion (merge, deserialize) to avoid rehash storms.
  void Reserve(size_t n) {
    if (hash_deferred_) EnsureHashed();
    size_t needed = RequiredCapacity(n);
    if (needed > slots_.size()) Rehash(needed);
  }

  /// \brief Find-or-insert; inserted values start at 0 (counts increment
  /// through this reference).
  uint64_t& operator[](uint64_t key) {
    if (hash_deferred_) EnsureHashed();
    // The returned reference may be written through, so any cached sorted
    // copy of the entries can go stale — drop it unconditionally.
    if (has_sorted_) DropSortedCache();
    if (key == 0) {
      has_zero_ = true;
      return zero_value_;
    }
    if (slots_.empty()) Rehash(kMinCapacity);
    size_t i = ProbeStart(key);
    while (slots_[i].key != key) {
      if (slots_[i].key == 0) return Insert(key, i);
      i = (i + 1) & (slots_.size() - 1);
    }
    return slots_[i].value;
  }

  /// Pointer to the value for `key`, or nullptr if absent. A hash-deferred
  /// map answers by binary search over its sorted entries, O(log n);
  /// EnsureHashed() first when many point queries follow.
  const uint64_t* Find(uint64_t key) const {
    if (key == 0) return has_zero_ ? &zero_value_ : nullptr;
    if (hash_deferred_) {
      auto it = std::lower_bound(sorted_.begin(), sorted_.end(), key, KeyLess);
      return it != sorted_.end() && it->key == key ? &it->value : nullptr;
    }
    if (slots_.empty()) return nullptr;
    size_t i = ProbeStart(key);
    while (true) {
      const Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == 0) return nullptr;
      i = (i + 1) & (slots_.size() - 1);
    }
  }

  /// Value for `key`, or `fallback` if absent.
  uint64_t GetOr(uint64_t key, uint64_t fallback = 0) const {
    const uint64_t* v = Find(key);
    return v == nullptr ? fallback : *v;
  }

  bool Contains(uint64_t key) const { return Find(key) != nullptr; }

  /// \brief Builds a map from entries in strictly ascending key order (key 0,
  /// if present, first — i.e. sorted). The probe array comes out in the
  /// *canonical* layout: capacity reserved for exactly these entries, the
  /// non-zero keys inserted in ascending order. Linear-probing layout is
  /// otherwise a function of insertion and growth history, so this is what
  /// makes the frozen blob (and ForEach order) a pure function of the
  /// content, whatever shard order or fold history produced the counts. The
  /// sorted vector is retained as a cache (see sorted_cache()) so a later
  /// serialization, sorted merge or JoinSorted skips a collect-and-sort.
  /// Order violations or duplicates fail closed with Corruption.
  ///
  /// With `defer_hash` the probe array itself is not built: the map carries
  /// only the sorted entries (plus size bookkeeping) until EnsureHashed().
  /// This is the training profile — statistics that are counted, merged,
  /// serialized and read by merge-join skip the hash build; only what a
  /// model freezes pays it. Point queries on a deferred map binary-search
  /// the sorted entries.
  static Result<FlatMap64> FromSorted(std::vector<Slot>&& pairs,
                                      bool defer_hash = false) {
    uint64_t prev = 0;
    const size_t start = (!pairs.empty() && pairs[0].key == 0) ? 1 : 0;
    for (size_t idx = start; idx < pairs.size(); ++idx) {
      if (pairs[idx].key == 0 || (idx > start && pairs[idx].key <= prev)) {
        return Status::Corruption(
            "map entries are not in strictly ascending key order");
      }
      prev = pairs[idx].key;
    }
    return FromSortedUnchecked(std::move(pairs), defer_hash);
  }

  static Result<FlatMap64> FromSorted(const Slot* pairs, size_t n) {
    return FromSorted(std::vector<Slot>(pairs, pairs + n));
  }

  /// \brief Materializes the probe array of a hash-deferred map (no-op
  /// otherwise). The sorted cache is dropped afterwards: once point queries
  /// begin the cache has served its merge/serialize purpose, and keeping
  /// both representations would double the footprint.
  void EnsureHashed() {
    if (!hash_deferred_) return;
    hash_deferred_ = false;
    const size_t start = has_zero_ ? 1 : 0;
    const size_t m = sorted_.size() - start;
    if (m > 0) {
      const size_t cap = RequiredCapacity(m);
      slots_.assign(cap, Slot{});
      for (size_t idx = start; idx < sorted_.size(); ++idx) {
        const Slot& s = sorted_[idx];
        size_t i = static_cast<size_t>(Mix64(s.key)) & (cap - 1);
        while (slots_[i].key != 0) i = (i + 1) & (cap - 1);
        slots_[i] = s;
      }
    }
    DropSortedCache();
  }

  bool hash_deferred() const { return hash_deferred_; }

  /// \brief Merges two maps into a new map, summing values on overlapping
  /// keys: a two-pointer merge over both maps' ascending-order entries (from
  /// the cache when available). The result stays hash-deferred: counts are
  /// folded many times, and only a consumer that probes pays the build.
  static FlatMap64 MergeSorted(const FlatMap64& a, const FlatMap64& b) {
    std::vector<Slot> local_a, local_b;
    const std::vector<Slot>* sa = a.sorted_cache();
    if (sa == nullptr) {
      local_a = a.CollectSorted();
      sa = &local_a;
    }
    const std::vector<Slot>* sb = b.sorted_cache();
    if (sb == nullptr) {
      local_b = b.CollectSorted();
      sb = &local_b;
    }
    return FromSortedUnchecked(MergeEntries(*sa, *sb), /*defer_hash=*/true);
  }

  /// \brief Two ascending entry arrays merged into one, values summed on
  /// equal keys. The output is sized exactly (a counting pass first), so
  /// merged arrays that are kept carry no slack capacity.
  static std::vector<Slot> MergeEntries(const std::vector<Slot>& a,
                                        const std::vector<Slot>& b) {
    size_t shared = 0;  // keys on both sides: merged size is |a| + |b| - shared
    for (size_t i = 0, j = 0; i < a.size() && j < b.size();) {
      if (a[i].key < b[j].key) {
        ++i;
      } else if (b[j].key < a[i].key) {
        ++j;
      } else {
        ++shared;
        ++i;
        ++j;
      }
    }
    std::vector<Slot> merged;
    merged.reserve(a.size() + b.size() - shared);
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i].key < b[j].key) {
        merged.push_back(a[i++]);
      } else if (b[j].key < a[i].key) {
        merged.push_back(b[j++]);
      } else {
        merged.push_back(Slot{a[i].key, a[i].value + b[j].value});
        ++i;
        ++j;
      }
    }
    merged.insert(merged.end(), a.begin() + static_cast<ptrdiff_t>(i), a.end());
    merged.insert(merged.end(), b.begin() + static_cast<ptrdiff_t>(j), b.end());
    return merged;
  }

  /// \brief Batch point query: for each (key, index) in `queries`, ascending
  /// by key (duplicates allowed), sets out[index] to the key's value, or 0.
  /// With sorted entries at hand this is one galloping merge-join — each
  /// query skips ahead by doubling steps then binary-searches the last one —
  /// so a batch costs O(q log(n/q)) sequential reads rather than q random
  /// probes; a hashed-only map probes once per query.
  void JoinSorted(const std::vector<Slot>& queries, uint64_t* out) const {
    if (!has_sorted_) {
      for (const Slot& q : queries) out[q.value] = GetOr(q.key);
      return;
    }
    const Slot* e = sorted_.data();
    const Slot* const end = e + sorted_.size();
    for (const Slot& q : queries) {
      if (e != end && e->key < q.key) {
        // Invariant: lo->key < q.key, and hi is end or hi->key >= q.key.
        const Slot* lo = e;
        const Slot* hi = end;
        for (size_t step = 1; static_cast<size_t>(end - lo) > step; step <<= 1) {
          if (lo[step].key >= q.key) {
            hi = lo + step;
            break;
          }
          lo += step;
        }
        e = std::lower_bound(lo + 1, hi, q.key, KeyLess);
      }
      out[q.value] = (e != end && e->key == q.key) ? e->value : 0;
    }
  }

  /// Entries in ascending key order (zero key, if present, first): a copy of
  /// the sorted cache when there is one, else collected from the probe array
  /// and sorted.
  std::vector<Slot> CollectSorted() const {
    if (has_sorted_) return sorted_;
    std::vector<Slot> pairs;
    pairs.reserve(size());
    ForEach([&pairs](uint64_t k, uint64_t v) { pairs.push_back(Slot{k, v}); });
    std::sort(pairs.begin(), pairs.end(),
              [](const Slot& a, const Slot& b) { return a.key < b.key; });
    return pairs;
  }

  /// \brief Cached ascending-order entry array, or nullptr. Present on maps
  /// built by FromSorted / MergeSorted that have not been hashed or mutated
  /// since; invalidated by EnsureHashed and by any operator[] access (the
  /// reference may be written through). Lets serialization, sorted merges
  /// and JoinSorted skip a collect-and-sort pass over large dictionaries.
  const std::vector<Slot>* sorted_cache() const {
    return has_sorted_ ? &sorted_ : nullptr;
  }

  /// Drops all entries and releases the backing array.
  void Clear() {
    std::vector<Slot>().swap(slots_);
    size_ = 0;
    has_zero_ = false;
    zero_value_ = 0;
    hash_deferred_ = false;
    if (has_sorted_) DropSortedCache();
  }

  /// \brief Drops all entries but keeps the backing array for reuse — the
  /// per-column reset of the value interner, where Clear()'s deallocation
  /// would buy a malloc/free pair per column.
  void Reset() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
    has_zero_ = false;
    zero_value_ = 0;
    hash_deferred_ = false;
    if (has_sorted_) DropSortedCache();
  }

  /// Visits every (key, value) pair. Order is the probe-array order: stable
  /// for a fixed insertion sequence, unspecified otherwise.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    AD_CHECK(!hash_deferred_);  // call EnsureHashed() before iteration
    if (has_zero_) fn(static_cast<uint64_t>(0), zero_value_);
    for (const Slot& s : slots_) {
      if (s.key != 0) fn(s.key, s.value);
    }
  }

  /// Frozen blob size in bytes (always a multiple of 8).
  size_t FrozenBytes() const { return kFrozenHeaderWords * 8 + slots_.size() * sizeof(Slot); }

  /// \brief Appends the frozen representation to `out`: a 4-word header
  /// (size, has_zero, zero_value, capacity) followed by the probe array
  /// verbatim. The caller is responsible for placing the blob at an 8-byte
  /// aligned offset; FrozenView::FromBytes rejects misaligned input.
  void AppendFrozen(std::string* out) const {
    AD_CHECK(!hash_deferred_);  // freezing stores the probe array verbatim
    uint64_t header[kFrozenHeaderWords] = {size_, has_zero_ ? 1u : 0u, zero_value_,
                                           slots_.size()};
    out->append(reinterpret_cast<const char*>(header), sizeof(header));
    if (!slots_.empty()) {
      out->append(reinterpret_cast<const char*>(slots_.data()),
                  slots_.size() * sizeof(Slot));
    }
  }

 private:
  static constexpr size_t kFrozenHeaderWords = 4;
  static constexpr size_t kMinCapacity = 16;

  /// Canonical build from entries already known to be in strictly ascending
  /// key order (zero key first). The vector is adopted as the sorted cache;
  /// with `defer_hash` the probe array is left for EnsureHashed().
  static FlatMap64 FromSortedUnchecked(std::vector<Slot>&& pairs,
                                       bool defer_hash) {
    FlatMap64 map;
    size_t start = 0;
    if (!pairs.empty() && pairs[0].key == 0) {
      map.has_zero_ = true;
      map.zero_value_ = pairs[0].value;
      start = 1;
    }
    const size_t m = pairs.size() - start;
    map.size_ = m;
    if (m > 0 && !defer_hash) {
      const size_t cap = RequiredCapacity(m);
      map.slots_.assign(cap, Slot{});
      for (size_t idx = start; idx < pairs.size(); ++idx) {
        const Slot& s = pairs[idx];
        size_t i = static_cast<size_t>(Mix64(s.key)) & (cap - 1);
        while (map.slots_[i].key != 0) i = (i + 1) & (cap - 1);
        map.slots_[i] = s;
      }
    }
    map.hash_deferred_ = defer_hash && m > 0;
    map.sorted_ = std::move(pairs);
    map.has_sorted_ = true;
    return map;
  }

  /// Inserts `key`, known to be absent, at the empty slot `i` its probe
  /// reached. Growth happens here and only here, so incrementing an existing
  /// key never resizes: capacity tracks the number of distinct keys.
  uint64_t& Insert(uint64_t key, size_t i) {
    if (RequiredCapacity(size_ + 1) > slots_.size()) {
      Rehash(RequiredCapacity(size_ + 1));
      i = ProbeStart(key);
      while (slots_[i].key != 0) i = (i + 1) & (slots_.size() - 1);
    }
    slots_[i].key = key;
    ++size_;
    return slots_[i].value;
  }

  static bool KeyLess(const Slot& s, uint64_t key) { return s.key < key; }

  void DropSortedCache() {
    std::vector<Slot>().swap(sorted_);
    has_sorted_ = false;
  }

  /// Smallest power-of-two capacity keeping load factor <= 0.75 for n keys.
  static size_t RequiredCapacity(size_t n) {
    size_t cap = kMinCapacity;
    while (cap * 3 < n * 4) cap <<= 1;
    return cap;
  }

  size_t ProbeStart(uint64_t key) const {
    return static_cast<size_t>(Mix64(key)) & (slots_.size() - 1);
  }

  void Rehash(size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    for (const Slot& s : old) {
      if (s.key == 0) continue;
      size_t i = static_cast<size_t>(Mix64(s.key)) & (new_capacity - 1);
      while (slots_[i].key != 0) i = (i + 1) & (new_capacity - 1);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;  ///< non-zero keys stored in slots_
  bool has_zero_ = false;
  uint64_t zero_value_ = 0;
  /// Ascending-order entry cache (see sorted_cache()). Mirrors the content
  /// exactly while has_sorted_ is set; dropped on any potential mutation.
  std::vector<Slot> sorted_;
  bool has_sorted_ = false;
  /// True while the probe array has not been materialized from sorted_
  /// (FromSorted with defer_hash, or MergeSorted). Point queries
  /// binary-search sorted_; iteration hard-fails until EnsureHashed().
  bool hash_deferred_ = false;
};

/// \brief Read-only view over a frozen FlatMap64 blob — typically bytes
/// inside a memory-mapped ADMODEL2 section. Probing runs directly against
/// the stored array: no deserialization, no allocation, pages fault in
/// lazily as keys are looked up. The view does not own the bytes; whoever
/// produced them (the mapped file) must outlive it.
class FlatMap64::FrozenView {
 public:
  FrozenView() = default;

  /// \brief Validates and adopts a frozen blob at `data` (which must be
  /// 8-byte aligned). Consumes exactly FrozenSize(capacity) bytes from the
  /// front of [data, data + len); trailing bytes are the caller's problem.
  /// Fails with Corruption on misalignment, a non-power-of-two capacity, or
  /// an implausible size, and with IOError when `len` is too short.
  static Result<FrozenView> FromBytes(const void* data, size_t len) {
    constexpr size_t kHeader = kFrozenHeaderWords * 8;
    if (reinterpret_cast<uintptr_t>(data) % 8 != 0) {
      return Status::Corruption("frozen map blob is not 8-byte aligned");
    }
    if (len < kHeader) {
      return Status::IOError("truncated frozen map: header needs 32 bytes, got " +
                             std::to_string(len));
    }
    uint64_t header[kFrozenHeaderWords];
    std::memcpy(header, data, sizeof(header));
    FrozenView view;
    view.size_ = static_cast<size_t>(header[0]);
    view.has_zero_ = header[1] != 0;
    view.zero_value_ = header[2];
    const uint64_t capacity = header[3];
    if (header[1] > 1) {
      return Status::Corruption("frozen map header: has_zero flag out of range");
    }
    if (capacity != 0 && (capacity & (capacity - 1)) != 0) {
      return Status::Corruption("frozen map capacity is not a power of two");
    }
    if (view.size_ > capacity) {
      return Status::Corruption("frozen map size exceeds capacity");
    }
    const uint64_t body = capacity * sizeof(Slot);
    if (len - kHeader < body) {
      return Status::IOError("truncated frozen map: slot array needs " +
                             std::to_string(body) + " bytes, got " +
                             std::to_string(len - kHeader));
    }
    view.capacity_ = static_cast<size_t>(capacity);
    view.slots_ = capacity == 0
                      ? nullptr
                      : reinterpret_cast<const Slot*>(
                            static_cast<const uint8_t*>(data) + kHeader);
    return view;
  }

  /// Total bytes the blob occupies (header + slot array).
  size_t bytes() const { return kFrozenHeaderWords * 8 + capacity_ * sizeof(Slot); }

  size_t size() const { return size_ + (has_zero_ ? 1 : 0); }
  bool empty() const { return size() == 0; }
  size_t capacity() const { return capacity_; }

  const uint64_t* Find(uint64_t key) const {
    if (key == 0) return has_zero_ ? &zero_value_ : nullptr;
    if (capacity_ == 0) return nullptr;
    size_t i = static_cast<size_t>(Mix64(key)) & (capacity_ - 1);
    // Bounded by capacity_ probes: a corrupt blob with a full slot array and
    // no match must not spin forever.
    for (size_t probes = 0; probes < capacity_; ++probes) {
      const Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == 0) return nullptr;
      i = (i + 1) & (capacity_ - 1);
    }
    return nullptr;
  }

  uint64_t GetOr(uint64_t key, uint64_t fallback = 0) const {
    const uint64_t* v = Find(key);
    return v == nullptr ? fallback : *v;
  }

  bool Contains(uint64_t key) const { return Find(key) != nullptr; }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (has_zero_) fn(static_cast<uint64_t>(0), zero_value_);
    for (size_t i = 0; i < capacity_; ++i) {
      if (slots_[i].key != 0) fn(slots_[i].key, slots_[i].value);
    }
  }

  /// \brief Re-emits the frozen blob (header + slot array) so a mapped model
  /// can be re-serialized without thawing.
  void AppendTo(std::string* out) const {
    uint64_t header[kFrozenHeaderWords] = {size_, has_zero_ ? 1u : 0u, zero_value_,
                                           capacity_};
    out->append(reinterpret_cast<const char*>(header), sizeof(header));
    if (capacity_ != 0) {
      out->append(reinterpret_cast<const char*>(slots_), capacity_ * sizeof(Slot));
    }
  }

  /// Rebuilds an owning FlatMap64 with the same contents (used when a frozen
  /// model must be mutated, e.g. merged into a new training run).
  FlatMap64 Thaw() const {
    FlatMap64 map;
    map.Reserve(size());
    ForEach([&map](uint64_t key, uint64_t value) { map[key] = value; });
    return map;
  }

 private:
  const Slot* slots_ = nullptr;
  size_t capacity_ = 0;
  size_t size_ = 0;
  bool has_zero_ = false;
  uint64_t zero_value_ = 0;
};

}  // namespace autodetect
