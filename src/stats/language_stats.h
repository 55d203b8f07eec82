#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "io/serde.h"
#include "stats/sorted_counts.h"

/// \file language_stats.h
/// Per-language corpus statistics as training holds them: for one
/// generalization language L, c(p) — the number of corpus columns
/// containing pattern p — and c(p1, p2) — the number of columns containing
/// both patterns (paper Sec. 2.1) — as two SortedCounts, from build to
/// freeze. Patterns are identified by their 64-bit canonical keys
/// (pattern.h); a pair by CombineUnordered of its two keys. The builder
/// counts by sorting runs (LanguageStatsBuilder), shard folds are sorted
/// merges (Merge), shards store the entry arrays verbatim (Serialize), and
/// calibration reads counts by merge-join (CountsInto / CoCountsInto).
///
/// Serving never sees this type. Freeze (frozen_stats.h) writes the
/// canonical probe tables — or the count-min sketch — of the languages a
/// model keeps into a FrozenStats, the one bridge between the two.

namespace autodetect {

class LanguageStats {
 public:
  LanguageStats() = default;

  /// \brief Ingests one column, given the column's *distinct* pattern keys
  /// (any order): c(p) gains 1 for each key and c(p,q) for each unordered
  /// pair. The column is counted by a LanguageStatsBuilder and folded in
  /// with Merge, so each call rewrites the entry arrays: this suits small
  /// hand-built statistics. Corpus-sized builds stage columns in a
  /// LanguageStatsBuilder (BuildCorpusStats does).
  void AddColumn(const std::vector<uint64_t>& distinct_keys);

  /// Number of columns ingested (the N of Eq. 1).
  uint64_t num_columns() const { return num_columns_; }

  /// c(p): columns containing pattern `key` (binary search).
  uint64_t Count(uint64_t key) const { return counts_.Get(key); }

  /// c(p1, p2): columns containing both patterns. For key1 == key2 this is
  /// c(p) by definition (a value pair with identical patterns co-occurs
  /// wherever the pattern occurs).
  uint64_t CoCount(uint64_t key1, uint64_t key2) const;

  /// \brief c(p) for a batch of keys: for each (key, index) in `queries`,
  /// ascending by key (duplicates allowed), sets out[index] = c(key), by one
  /// galloping merge-join over the entry array (SortedCounts::JoinSorted).
  void CountsInto(const std::vector<SortedCounts::Entry>& queries, uint64_t* out) const {
    counts_.JoinSorted(queries, out);
  }

  /// \brief c(p1, p2) for a batch of pair keys (CombineUnordered of two
  /// distinct pattern keys), same contract as CountsInto.
  void CoCountsInto(const std::vector<SortedCounts::Entry>& queries, uint64_t* out) const {
    co_counts_.JoinSorted(queries, out);
  }

  /// Number of distinct patterns / distinct co-occurring pairs seen.
  size_t NumPatterns() const { return counts_.size(); }
  size_t NumCoPairs() const { return co_counts_.size(); }

  /// \brief Bytes of the statistics as frozen exactly — the size(L) used by
  /// the selection knapsack: both dictionaries at the canonical probe array
  /// their entry count needs (16 bytes/slot at <= 0.75 load).
  size_t MemoryBytes() const { return counts_.MemoryBytes() + CoMemoryBytes(); }

  /// Bytes of the exact co-occurrence dictionary alone.
  size_t CoMemoryBytes() const { return co_counts_.MemoryBytes(); }

  /// \brief Adds another shard's counts, built over a disjoint set of
  /// columns: a sorted merge of both sides' entry arrays. The result is the
  /// same sorted form, so any fold order freezes to identical bytes.
  void Merge(const LanguageStats& other);

  /// \brief Streams the statistics (shard artifacts): N, then each
  /// dictionary as a count and its ascending entries, with a has_sketch
  /// byte (always 0) between them.
  void Serialize(BinaryWriter* writer) const;

  /// \brief Reads statistics written by Serialize. Entries out of order,
  /// and a set has_sketch byte (no writer produces one), are Corruption.
  static Result<LanguageStats> Deserialize(BinaryReader* reader);

  /// The dictionaries, for Freeze and whole-array checks.
  const SortedCounts& counts() const { return counts_; }
  const SortedCounts& co_counts() const { return co_counts_; }

 private:
  friend class LanguageStatsBuilder;

  uint64_t num_columns_ = 0;
  SortedCounts counts_;
  SortedCounts co_counts_;  // key: CombineUnordered
};

/// \brief Counts columns into one language's statistics by sorting, the
/// training path. Each column stages its pattern keys and the
/// CombineUnordered key of each unordered pair; AddRun radix-sorts the staged
/// keys and run-length-encodes them into one sorted (key, count) run per
/// dictionary. Runs are merged pairwise whenever the two newest cover the
/// same number of AddRun calls, like a binary counter, so an entry is
/// rewritten O(log runs) times however many batches a corpus spans. No hash
/// table is built: Build returns sorted statistics.
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

  /// \brief Folds all runs (after the own stage's) into sorted statistics
  /// and leaves the builder empty.
  LanguageStats Build();

 private:
  struct Run {
    std::vector<SortedCounts::Entry> counts;
    std::vector<SortedCounts::Entry> co_counts;
    uint64_t batches = 0;  ///< AddRun calls merged into this run
  };

  /// Merges the newest run into the one before it.
  void FoldNewestRun();

  uint64_t num_columns_ = 0;
  std::vector<Run> runs_;  ///< batches strictly decreasing from the front
  Stage own_stage_;
};

}  // namespace autodetect
