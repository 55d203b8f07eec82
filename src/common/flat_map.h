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
/// Open-addressing u64→u64 hash map and the read-only view over its frozen
/// form. Key/value pairs sit inline in one power-of-two array with linear
/// probing — one cache line per lookup in the common case, no per-entry
/// allocation. It is tombstone-free: nothing erases individual keys, so no
/// erase operation is offered and probe chains never degrade.
///
/// FlatMap64 is the value interner's per-column index: find-or-insert,
/// lookups, Reserve and a capacity-keeping Reset. FlatMap64::FrozenView
/// serves the frozen statistics tables (stats/frozen_stats.h) straight from
/// a byte blob, typically inside a memory-mapped model; AppendCanonical
/// writes that blob from ascending (key, count) entries in the canonical
/// layout, so the frozen bytes are a pure function of the counts.

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

  /// \brief Ensures capacity for `n` entries without rehashing. Call before
  /// bulk insertion to avoid rehash storms.
  void Reserve(size_t n) {
    size_t needed = RequiredCapacity(n);
    if (needed > slots_.size()) Rehash(needed);
  }

  /// \brief Find-or-insert; inserted values start at 0.
  uint64_t& operator[](uint64_t key) {
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

  /// Pointer to the value for `key`, or nullptr if absent.
  const uint64_t* Find(uint64_t key) const {
    if (key == 0) return has_zero_ ? &zero_value_ : nullptr;
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

  /// \brief Drops all entries but keeps the backing array for reuse — the
  /// value interner's per-column reset, where releasing the array would buy
  /// a malloc/free pair per column.
  void Reset() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
    has_zero_ = false;
    zero_value_ = 0;
  }

 private:
  static constexpr size_t kMinCapacity = 16;

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
};

/// \brief Read-only view over a frozen probe-table blob — typically bytes
/// inside a memory-mapped ADMODEL2 section. Probing runs directly against
/// the stored array: no deserialization, no allocation, pages fault in
/// lazily as keys are looked up. The view does not own the bytes; whoever
/// produced them (the mapped file, or a frozen statistics buffer) must
/// outlive it.
class FlatMap64::FrozenView {
 public:
  FrozenView() = default;

  /// \brief Probe-array bytes of the canonical layout for `nonzero_keys`
  /// keys (key 0 lives in the header): the size(L) price the selection
  /// knapsack charges, a function of the entry count alone.
  static size_t CanonicalBytes(size_t nonzero_keys) {
    return nonzero_keys == 0 ? 0 : RequiredCapacity(nonzero_keys) * sizeof(Slot);
  }

  /// \brief Appends the frozen blob of `sorted` — entries in strictly
  /// ascending key order, key 0 (if present) first — to `out`: a 4-word
  /// header (non-zero key count, has_zero, zero_value, capacity) and the
  /// probe array in the *canonical* layout: capacity sized for exactly these
  /// keys (CanonicalBytes), non-zero keys placed in ascending order. Linear
  /// probing's layout is otherwise a function of insertion and growth
  /// history; this makes the frozen bytes, and the probe order a sketch is
  /// fed in, a pure function of the counts.
  static void AppendCanonical(const std::vector<Slot>& sorted, std::vector<uint64_t>* out) {
    const bool has_zero = !sorted.empty() && sorted[0].key == 0;
    const size_t start = has_zero ? 1 : 0;
    const size_t m = sorted.size() - start;
    const size_t cap = CanonicalBytes(m) / sizeof(Slot);
    const size_t base = out->size();
    out->resize(base + kFrozenHeaderWords + 2 * cap, 0);
    uint64_t* header = out->data() + base;
    header[0] = m;
    header[1] = has_zero ? 1 : 0;
    header[2] = has_zero ? sorted[0].value : 0;
    header[3] = cap;
    uint64_t* slots = header + kFrozenHeaderWords;  // (key, value) word pairs
    for (size_t idx = start; idx < sorted.size(); ++idx) {
      size_t i = static_cast<size_t>(Mix64(sorted[idx].key)) & (cap - 1);
      while (slots[2 * i] != 0) i = (i + 1) & (cap - 1);
      slots[2 * i] = sorted[idx].key;
      slots[2 * i + 1] = sorted[idx].value;
    }
  }

  /// \brief Validates and adopts a frozen blob at `data` (which must be
  /// 8-byte aligned). Consumes exactly bytes() bytes from the
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

  /// Visits every (key, value) pair: key 0 first, then probe-array order.
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

 private:
  static constexpr size_t kFrozenHeaderWords = 4;

  const Slot* slots_ = nullptr;
  size_t capacity_ = 0;
  size_t size_ = 0;
  bool has_zero_ = false;
  uint64_t zero_value_ = 0;
};

}  // namespace autodetect
