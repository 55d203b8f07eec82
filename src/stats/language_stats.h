#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/flat_map.h"
#include "common/result.h"
#include "io/serde.h"
#include "sketch/count_min.h"

/// \file language_stats.h
/// Per-language corpus statistics: for one generalization language L this
/// stores c(p) — the number of corpus columns containing pattern p — and
/// c(p1, p2) — the number of columns containing both patterns (paper
/// Sec. 2.1). Co-occurrence can be held exactly (open-addressing flat map)
/// or approximately (count–min sketch, Sec. 3.4). Patterns are identified
/// by their 64-bit canonical keys (pattern.h).
///
/// A LanguageStats is either *owned* (mutable, dictionaries in heap
/// FlatMap64s — the training representation) or *frozen* (read-only views
/// over a caller-provided byte blob, typically inside a memory-mapped
/// ADMODEL2 file — the serving representation). Lookups behave identically
/// in both modes; mutation of a frozen instance is a programming error.

namespace autodetect {

class LanguageStats {
 public:
  LanguageStats() = default;

  /// \brief Ingests one column, given the column's *distinct* pattern keys.
  /// Increments c(p) for each key and c(p,q) for each unordered pair.
  void AddColumn(const std::vector<uint64_t>& distinct_keys);

  /// Number of columns ingested (the N of Eq. 1).
  uint64_t num_columns() const { return num_columns_; }

  /// c(p): columns containing pattern `key`.
  uint64_t Count(uint64_t key) const {
    return frozen_ ? counts_view_.GetOr(key) : counts_.GetOr(key);
  }

  /// c(p1, p2): columns containing both patterns. For key1 == key2 this is
  /// c(p) by definition (a value pair with identical patterns co-occurs
  /// wherever the pattern occurs).
  uint64_t CoCount(uint64_t key1, uint64_t key2) const;

  /// Number of distinct patterns / distinct co-occurring pairs seen.
  size_t NumPatterns() const {
    return frozen_ ? counts_view_.size() : counts_.size();
  }
  size_t NumCoPairs() const {
    return frozen_ ? co_view_.size() : co_counts_.size();
  }

  /// \brief Estimated resident bytes of the statistics — the size(L) used
  /// by the selection knapsack. Dictionaries are costed at their actual
  /// open-addressing backing arrays (16 bytes/slot at <= 0.75 load);
  /// sketches at their counter array.
  size_t MemoryBytes() const;

  /// \brief Bytes of the co-occurrence store alone (dictionary or sketch);
  /// MemoryBytes() minus the c(p) dictionary. The selection knapsack uses
  /// this to price sketch-compressed candidates consistently.
  size_t CoMemoryBytes() const;

  /// \brief Replaces the exact co-occurrence dictionary with a count-min
  /// sketch sized at `ratio` (0 < ratio <= 1) of the dictionary's bytes.
  /// Pattern occurrence counts c(p) stay exact (they are small).
  /// Conservative update is used, matching the power-law tightening the
  /// paper describes.
  Status CompressToSketch(double ratio, uint64_t seed = 0xc0ffee);

  /// \brief Same compression, but sized by an absolute byte budget: the
  /// sketch holds at most `budget_bytes` of counters (width rounded down to
  /// a power of two, depth 4). This is the `train --sketch-budget-mb` path.
  Status CompressToSketchBudget(size_t budget_bytes, uint64_t seed = 0xc0ffee);

  bool uses_sketch() const { return sketch_.has_value() || sketch_external_; }

  /// True when the co-occurrence sketch lives outside this blob (in the
  /// ADMODEL2 SKCH section); the loader must AttachSketch before serving.
  bool sketch_external() const { return sketch_external_; }

  /// \brief Binds the externally-stored sketch view (only valid on a frozen
  /// instance loaded from a blob whose flags declared an external sketch).
  /// The viewed bytes must outlive this instance.
  void AttachSketch(CountMinSketch::FrozenView view);

  /// Sketch geometry, 0 when not sketched (for metrics / `info`).
  size_t SketchWidth() const;
  size_t SketchDepth() const;

  /// Iterates exact co-counts (unavailable after sketch compression).
  void ForEachCoCount(
      const std::function<void(uint64_t pair_key, uint64_t count)>& fn) const;

  /// Iterates c(p) entries.
  void ForEachCount(const std::function<void(uint64_t key, uint64_t count)>& fn) const;

  /// \brief Merges another shard built over a disjoint set of columns.
  void Merge(const LanguageStats& other);

  /// \brief Merge that lands directly in the canonical layout: a sorted
  /// merge-join over both sides' dictionaries (FlatMap64::MergeSorted)
  /// replaces Merge + Canonicalize. Equivalent result, but large merges skip
  /// the per-entry hash probes and the full collect-sort-reinsert rebuild —
  /// this is the shard-reduction path, where the big side was just
  /// deserialized and its sorted entry arrays are still cached. Only valid
  /// on owned, exact (unsketched) stats.
  void MergeCanonical(const LanguageStats& other);

  /// \brief Rebuilds both dictionaries into the canonical probe layout
  /// (FlatMap64::Canonicalize), making the frozen/serialized bytes a pure
  /// function of the counts. Training canonicalizes at every statistics
  /// adoption point so that N merged shards and a one-shot pass freeze to
  /// identical bytes. Only valid on owned, exact (unsketched) stats.
  void Canonicalize();

  /// \brief Streams owned stats (shard artifacts, training checkpoints).
  /// Frozen stats are written with AppendFrozen instead.
  void Serialize(BinaryWriter* writer) const;

  /// \brief Reads stats written by Serialize. With `defer_hash` the
  /// dictionaries keep only their sorted entry arrays (FlatMap64 hash
  /// deferral) — the shard-reduction profile, where deserialized stats are
  /// merged and re-serialized but never point-queried. EnsureHashed() (or
  /// any find-or-insert access) materializes the probe arrays.
  static Result<LanguageStats> Deserialize(BinaryReader* reader,
                                           bool defer_hash = false);

  /// \brief Materializes hash-deferred dictionaries (no-op otherwise); must
  /// run before Count/CoCount queries on defer_hash-deserialized stats.
  void EnsureHashed();

  /// True when backed by views over external bytes (zero-copy model path).
  bool frozen() const { return frozen_; }

  /// \brief Appends the frozen representation to `out`. Layout (all fields
  /// 8-byte aligned provided the blob itself starts 8-aligned):
  ///   u64 num_columns
  ///   u64 flags            (bit 0: co-occurrence held as a sketch;
  ///                         bit 1: that sketch lives in the SKCH section)
  ///   [counts frozen map]  (FlatMap64 frozen blob)
  ///   [co frozen map]      (exact mode) | u64 sketch_len + bytes + pad to 8
  ///                        (embedded sketch) | nothing (external sketch)
  /// With `external_sketch` the sketch bytes are the caller's problem
  /// (AppendSketchFrozen emits them); the blob carries only counts. Works
  /// for both owned and frozen sources.
  void AppendFrozen(std::string* out, bool external_sketch = false) const;

  /// \brief Appends the co-occurrence sketch as a CountMinSketch frozen
  /// blob (page-alignable, see count_min.h). Requires uses_sketch().
  void AppendSketchFrozen(std::string* out) const;

  /// \brief Builds a frozen instance viewing exactly [data, data + len).
  /// The bytes must stay alive and unmodified for the lifetime of the
  /// result (the mapped model file guarantees this). The sketch, when
  /// present, is copied — it is small by design (Sec. 3.4) and its row
  /// seeds need parsing anyway. Fails closed: any length/alignment
  /// inconsistency is an error, trailing unconsumed bytes are Corruption.
  static Result<LanguageStats> FromFrozen(const void* data, size_t len);

 private:
  uint64_t num_columns_ = 0;
  FlatMap64 counts_;
  FlatMap64 co_counts_;  // key: CombineUnordered
  Status CompressImpl(size_t budget_bytes, uint64_t seed);

  std::optional<CountMinSketch> sketch_;
  bool frozen_ = false;
  bool sketch_external_ = false;  ///< sketch lives in the SKCH section
  FlatMap64::FrozenView counts_view_;  ///< live iff frozen_
  FlatMap64::FrozenView co_view_;      ///< live iff frozen_ and no sketch
  CountMinSketch::FrozenView sketch_view_;  ///< live iff sketch_external_
};

}  // namespace autodetect
