#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "stats/stats_builder.h"

/// \file shard.h
/// Statistics shards: first-class, checksummed training artifacts. Auto-
/// Detect's corpus statistics are pure additive counts (paper Sec. 2.1 —
/// pattern marginals c(p) and co-occurrence counts c(p1,p2) feeding NPMI),
/// so a corpus can be partitioned across map-style workers, each building a
/// `CorpusStats` over its own column range, and a reducer can merge the
/// partial counts exactly. The ADSHARD1 file holds one such partition:
///
///   magic "ADSHARD1" | u32 version | u32 endian marker | u64 alignment |
///   u64 file_size | (offset, length, xxhash64) for META and DATA |
///   zero pad to `alignment` | META | pad | DATA
///
/// the same page-aligned, XXH64-per-section skeleton as ADMODEL2. META is
/// the provenance + options digest (portable serde); DATA is the
/// CorpusStats serialization. Loads fail closed: truncation is IOError,
/// everything else (bad magic, wrong version, checksum mismatch) is
/// Corruption, always naming the file and section.
///
/// Determinism contract: `MergeShards` produces the same counts for ANY
/// order of the same input shards, and those counts equal a one-shot
/// `BuildCorpusStats` pass over the whole corpus: merging is
/// content-additive. The serialized form is the sorted entry arrays the
/// statistics are held in (SortedCounts), so equal counts write equal
/// bytes; the model's frozen bytes get the same guarantee from Freeze
/// (stats/frozen_stats.h), which writes each selected language's probe
/// tables in the canonical layout straight from those arrays.

namespace autodetect {

/// \brief Identity of the corpus slice a shard was built over. For the
/// synthetic substrate (profile + seed) this is enough to reconstruct the
/// column stream for supervision; external corpora leave `profile` empty
/// and supply their own source at finalize time.
struct ShardProvenance {
  std::string corpus_name;
  /// Synthetic corpus profile name (WEB, WIKI, ...); "" = external corpus.
  std::string profile;
  uint64_t seed = 0;
  /// Columns in the full corpus this shard partitions.
  uint64_t total_columns = 0;
  /// This shard's half-open column range [column_begin, column_end).
  uint64_t column_begin = 0;
  uint64_t column_end = 0;

  uint64_t num_columns() const { return column_end - column_begin; }
};

/// \brief One partition's statistics plus everything needed to check that
/// two shards are mergeable: the corpus identity and a digest of the
/// statistics-builder options they were built under.
struct StatsShard {
  ShardProvenance provenance;
  /// StatsOptionsDigest of the builder options; shards built under
  /// different options must never merge (their counts are incomparable).
  uint64_t options_digest = 0;
  CorpusStats stats;
};

/// \brief Order-independent digest of the options that shape statistics
/// content: the resolved candidate-language set, the per-column distinct
/// caps and the generalization options. Threading/batching knobs are
/// excluded — they do not change the counts.
uint64_t StatsOptionsDigest(const StatsBuilderOptions& options);

/// \brief Writes `shard` as an ADSHARD1 file (see file comment for layout).
Status WriteShard(const std::string& path, const StatsShard& shard);

/// \brief Reads and validates an ADSHARD1 file. Fail-closed: checksums are
/// verified before any byte is interpreted, and every error names `path`
/// and the offending section. Each language's dictionaries come back as
/// the ascending (key, count) entry arrays the file stores, ready to merge.
Result<StatsShard> ReadShard(const std::string& path);

/// \brief The merge contract, checked without touching any count: at least
/// one shard, equal options digests, equal corpus identity
/// (corpus_name/profile/seed), equal language sets, and column ranges that
/// are pairwise disjoint and gap-free (they must tile one contiguous
/// range). `total_columns` may differ — a grown corpus's new shards carry
/// the new total; the union keeps the maximum. Returns the provenance of
/// the union. Callers that fold in place (TrainSession::AddShards) run it
/// before any count moves, so a refused set leaves every input untouched.
Result<ShardProvenance> CheckMergeable(std::vector<const StatsShard*> shards);

/// \brief The deterministic file reducer: merges shards of one corpus into
/// a single shard covering their combined range (CheckMergeable's contract).
/// Each language folds by LanguageStats::Merge, a two-pointer merge of the
/// sorted entry arrays whose result is again sorted, so ANY input order
/// yields the same counts and the same serialized bytes.
Result<StatsShard> MergeShards(std::vector<StatsShard> shards);

/// \brief Convenience: ReadShard each path, then MergeShards.
Result<StatsShard> MergeShardFiles(const std::vector<std::string>& paths);

}  // namespace autodetect
