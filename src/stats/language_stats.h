#pragma once

#include <cstdint>
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
/// A LanguageStats is either *owned* (mutable, heap FlatMap64s) or *frozen*
/// (read-only views over a caller-provided byte blob, typically inside a
/// memory-mapped ADMODEL2 file — the serving representation). Training's
/// owned dictionaries are sorted (key, count) entry arrays from build to
/// freeze — hash-deferred FlatMap64s, in ADSHARD1 wire order: the builder
/// counts by sorting runs (LanguageStatsBuilder), shard folds are sorted
/// merges, and calibration reads counts by merge-join (CountsInto /
/// CoCountsInto). EnsureHashed builds the canonical probe arrays, which the
/// training session does only for the languages a model keeps. Lookups
/// behave identically in every form; mutation of a frozen instance is a
/// programming error.

namespace autodetect {

class LanguageStats {
 public:
  LanguageStats() = default;

  /// \brief Ingests one column, given the column's *distinct* pattern keys
  /// (any order): c(p) gains 1 for each key and c(p,q) for each unordered
  /// pair. The column is counted by a LanguageStatsBuilder and folded in
  /// with MergeCanonical, so each call rewrites the entry arrays: this suits
  /// small hand-built statistics. Corpus-sized builds stage columns in a
  /// LanguageStatsBuilder (BuildCorpusStats does).
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

  /// \brief c(p1, p2) when the caller already holds both marginals
  /// (count1 = c(key1), count2 = c(key2)): a sketched language caps its
  /// estimate with them instead of reading them again. NpmiScorer reads
  /// each count once through this.
  uint64_t CoCount(uint64_t key1, uint64_t key2, uint64_t count1,
                   uint64_t count2) const;

  /// \brief c(p) for a batch of keys: for each (key, index) in `queries`,
  /// ascending by key (duplicates allowed), sets out[index] = c(key). On
  /// sorted owned stats this is one galloping merge-join over the entry
  /// array (FlatMap64::JoinSorted); otherwise one point query per key.
  void CountsInto(const std::vector<FlatMap64::Slot>& queries, uint64_t* out) const;

  /// \brief c(p1, p2) for a batch of pair keys (CombineUnordered of two
  /// distinct pattern keys), same contract as CountsInto. Exact stats only:
  /// a sketch's estimate needs both marginals (use CoCount).
  void CoCountsInto(const std::vector<FlatMap64::Slot>& queries, uint64_t* out) const;

  /// Number of distinct patterns / distinct co-occurring pairs seen.
  size_t NumPatterns() const {
    return frozen_ ? counts_view_.size() : counts_.size();
  }
  size_t NumCoPairs() const {
    return frozen_ ? co_view_.size() : co_counts_.size();
  }

  /// \brief Bytes of the statistics as frozen — the size(L) used by the
  /// selection knapsack. Dictionaries are costed at the canonical
  /// open-addressing array their entry count needs (16 bytes/slot at <= 0.75
  /// load, FlatMap64::MemoryBytes); sketches at their counter array.
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

  /// \brief Adds another shard's counts, built over a disjoint set of
  /// columns: a sorted merge of both sides' entry arrays
  /// (FlatMap64::MergeSorted). The result stays sorted (hash-deferred), the
  /// form a later hash build turns into the canonical layout, so any fold
  /// order freezes to identical bytes. Only valid on owned, exact
  /// (unsketched) stats.
  void MergeCanonical(const LanguageStats& other);

  /// \brief Gives both dictionaries their canonical probe arrays, so the
  /// frozen bytes are a pure function of the counts. Owned exact stats are
  /// only ever held sorted or already canonical, so this is EnsureHashed.
  void Canonicalize() { EnsureHashed(); }

  /// \brief Streams owned stats (shard artifacts).
  /// Frozen stats are written with AppendFrozen instead.
  void Serialize(BinaryWriter* writer) const;

  /// \brief Reads stats written by Serialize. With `defer_hash` the
  /// dictionaries keep only their sorted entry arrays (FlatMap64 hash
  /// deferral) — the shard-reduction profile, where deserialized stats are
  /// merged and re-serialized but never point-queried. EnsureHashed() (or
  /// any find-or-insert access) materializes the probe arrays.
  static Result<LanguageStats> Deserialize(BinaryReader* reader,
                                           bool defer_hash = false);

  /// \brief Materializes hash-deferred dictionaries into their canonical
  /// probe arrays (no-op otherwise) and drops the sorted entries. Point
  /// queries work either way; hashed they cost O(1) rather than a binary
  /// search, and freezing (AppendFrozen) needs the probe arrays.
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
  friend class LanguageStatsBuilder;

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

/// \brief Counts columns into one language's statistics by sorting, the
/// training path. Each column stages its pattern keys and the
/// CombineUnordered key of each unordered pair; AddRun radix-sorts the staged
/// keys and run-length-encodes them into one sorted (key, count) run per
/// dictionary. Runs are merged pairwise whenever the two newest cover the
/// same number of AddRun calls, like a binary counter, so an entry is
/// rewritten O(log runs) times however many batches a corpus spans. No hash
/// table is built: Build returns hash-deferred statistics.
class LanguageStatsBuilder {
 public:
  /// Staged keys of the columns not yet sorted into a run. A caller counting
  /// many languages one after another lends one Stage to all of them
  /// (BuildCorpusStats keeps one per chunk chain), so staging memory is one
  /// language's batch, not every language's.
  struct Stage {
    std::vector<uint64_t> patterns;
    std::vector<uint64_t> pairs;
    std::vector<uint64_t> sort_buffer;
  };

  /// \brief Stages one column's distinct pattern keys (any order, no
  /// duplicates) in `stage`; they count once AddRun sorts the stage.
  void AddColumn(const uint64_t* keys, size_t n, Stage* stage);
  /// Stages into the builder's own stage, which Build sorts.
  void AddColumn(const std::vector<uint64_t>& keys) {
    AddColumn(keys.data(), keys.size(), &own_stage_);
  }

  /// \brief Sorts everything staged in `stage` into one run, folds it into
  /// the runs so far and empties the stage (keeping its capacity).
  void AddRun(Stage* stage);

  /// \brief Folds all runs (after the own stage's) into owned statistics in
  /// sorted, hash-deferred form, and leaves the builder empty.
  LanguageStats Build();

 private:
  struct Run {
    std::vector<FlatMap64::Slot> counts;
    std::vector<FlatMap64::Slot> co_counts;
    uint64_t batches = 0;  ///< AddRun calls merged into this run
  };

  /// Merges the newest run into the one before it.
  void FoldNewestRun();

  uint64_t num_columns_ = 0;
  std::vector<Run> runs_;  ///< batches strictly decreasing from the front
  Stage own_stage_;
};

}  // namespace autodetect
