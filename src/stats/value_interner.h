#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_map.h"

/// \file value_interner.h
/// Column value interning: reduces a column to its distinct values with
/// multiplicities and first-occurrence rows, so the tokenize/generalize/score
/// pipeline runs once per DISTINCT value instead of once per row. Real tables
/// are dominated by repeats (enums, booleans, country codes, nulls), which
/// makes this an integer-factor lever on both training and detection; the
/// paper's pattern space only ever sees distinct values anyway
/// (Auto-Detect §3.1 counts a pattern once per column), so interning changes
/// no observable result — the fuzz suite proves deduped detect ≡ non-deduped
/// detect byte for byte.

namespace autodetect {

/// \brief One column's values grouped by identity, in first-occurrence
/// order. Backed by a FlatMap64 keyed on FNV-1a of the value bytes, with an
/// equality check on every hit and linear probing in KEY space (key+1) on a
/// true 64-bit collision — hash collisions cost a probe, never a merged
/// entry, so the distinct list is exact. The interner owns its index
/// structures across columns (Reset, not Clear), so a long scan allocates
/// only when a column exceeds every previous column's cardinality.
class ValueInterner {
 public:
  struct Entry {
    std::string_view value;     ///< points into the interned column
    uint32_t multiplicity = 0;  ///< occurrences in the column
    uint32_t first_row = 0;     ///< row index of the first occurrence
  };

  /// \brief Interns one column. Entry values are views into `values`; they
  /// stay valid only while `values` is alive and unmodified.
  void Intern(const std::vector<std::string>& values);

  size_t num_values() const { return num_values_; }
  size_t num_distinct() const { return entries_.size(); }
  const Entry& entry(size_t i) const { return entries_[i]; }
  const std::vector<Entry>& entries() const { return entries_; }

  /// \brief Writes the entry indices the stats pipeline keeps for a cap of
  /// `max_distinct`: all of them in first-occurrence order when within the
  /// cap, else the deterministic stride subsample — index for index the
  /// same selection as DistinctValuesForStats (property-tested), so every
  /// caller samples a column identically.
  void SampleIndices(size_t max_distinct, std::vector<uint32_t>* out) const;

 private:
  FlatMap64 map_;  ///< FNV-1a(value) [+k probes] -> entry index + 1
  std::vector<Entry> entries_;
  size_t num_values_ = 0;
};

}  // namespace autodetect
