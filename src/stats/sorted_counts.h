#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/result.h"

/// \file sorted_counts.h
/// The training form of one statistics dictionary: (key, count) entries in
/// strictly ascending key order, key 0 first when present. Counting sorts
/// and merges runs of these (LanguageStatsBuilder), shard folds are sorted
/// merges, shards store the array verbatim (ADSHARD1), and calibration reads
/// counts by galloping merge-join. No hash table is ever built from one
/// except by Freeze (frozen_stats.h), which lays the entries out as the
/// canonical probe array a model serves.

namespace autodetect {

class SortedCounts {
 public:
  using Entry = FlatMap64::Slot;

  SortedCounts() = default;

  /// \brief Adopts entries that must be in strictly ascending key order
  /// (key 0, if present, first). Order violations or duplicates fail closed
  /// with Corruption.
  static Result<SortedCounts> FromSorted(std::vector<Entry>&& entries) {
    uint64_t prev = 0;
    const size_t start = (!entries.empty() && entries[0].key == 0) ? 1 : 0;
    for (size_t idx = start; idx < entries.size(); ++idx) {
      if (entries[idx].key == 0 || (idx > start && entries[idx].key <= prev)) {
        return Status::Corruption("map entries are not in strictly ascending key order");
      }
      prev = entries[idx].key;
    }
    SortedCounts counts;
    counts.entries_ = std::move(entries);
    return counts;
  }

  /// Counts of both dictionaries summed (MergeEntries).
  static SortedCounts Merge(const SortedCounts& a, const SortedCounts& b) {
    SortedCounts merged;
    merged.entries_ = MergeEntries(a.entries_, b.entries_);
    return merged;
  }

  /// \brief Two ascending entry arrays merged into one, values summed on
  /// equal keys. The output is sized exactly (a counting pass first), so
  /// merged arrays that are kept carry no slack capacity.
  static std::vector<Entry> MergeEntries(const std::vector<Entry>& a,
                                         const std::vector<Entry>& b) {
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
    std::vector<Entry> merged;
    merged.reserve(a.size() + b.size() - shared);
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i].key < b[j].key) {
        merged.push_back(a[i++]);
      } else if (b[j].key < a[i].key) {
        merged.push_back(b[j++]);
      } else {
        merged.push_back(Entry{a[i].key, a[i].value + b[j].value});
        ++i;
        ++j;
      }
    }
    merged.insert(merged.end(), a.begin() + static_cast<ptrdiff_t>(i), a.end());
    merged.insert(merged.end(), b.begin() + static_cast<ptrdiff_t>(j), b.end());
    return merged;
  }

  /// Count of `key` (0 if absent), by binary search.
  uint64_t Get(uint64_t key) const {
    auto it = std::lower_bound(entries_.begin(), entries_.end(), key, KeyLess);
    return it != entries_.end() && it->key == key ? it->value : 0;
  }

  /// \brief Batch point query: for each (key, index) in `queries`, ascending
  /// by key (duplicates allowed), sets out[index] to the key's count, or 0.
  /// One galloping merge-join — each query skips ahead by doubling steps
  /// then binary-searches the last one — so a batch costs O(q log(n/q))
  /// sequential reads rather than q binary searches.
  void JoinSorted(const std::vector<Entry>& queries, uint64_t* out) const {
    const Entry* e = entries_.data();
    const Entry* const end = e + entries_.size();
    for (const Entry& q : queries) {
      if (e != end && e->key < q.key) {
        // Invariant: lo->key < q.key, and hi is end or hi->key >= q.key.
        const Entry* lo = e;
        const Entry* hi = end;
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

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// \brief Bytes of the canonical probe array these entries freeze to
  /// (FlatMap64::FrozenView::CanonicalBytes): the size(L) the selection
  /// knapsack charges.
  size_t MemoryBytes() const {
    const bool has_zero = !entries_.empty() && entries_[0].key == 0;
    return FlatMap64::FrozenView::CanonicalBytes(entries_.size() - (has_zero ? 1 : 0));
  }

  /// The ascending entries: the wire order of ADSHARD1 and Freeze's input.
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  static bool KeyLess(const Entry& e, uint64_t key) { return e.key < key; }

  std::vector<Entry> entries_;
};

}  // namespace autodetect
