#pragma once

#include <map>
#include <vector>

#include "common/result.h"
#include "corpus/column_source.h"
#include "obs/metrics.h"
#include "stats/language_stats.h"
#include "text/language.h"
#include "text/pattern.h"

/// \file stats_builder.h
/// Builds per-language corpus statistics for many candidate languages in one
/// streaming pass over a column source, parallelized across languages. This
/// is the "training" half of Auto-Detect's offline phase (the other half —
/// calibration and selection — lives in src/train).
///
/// Counting is by sorting, not hashing. Columns are read in batches of
/// `batch_columns`; each language chunk keys a batch once under all of its
/// languages, then per language stages every column's pattern keys and pair
/// keys, radix-sorts them and run-length-encodes them into one sorted run
/// (LanguageStatsBuilder). Runs merge as they pile up and once more at the
/// end. The statistics come out as sorted entry arrays (SortedCounts): the
/// ADSHARD1 wire order, the input of merge-join calibration, and 16 bytes
/// per entry instead of a probe array's 21–43. Only Freeze
/// (frozen_stats.h) ever lays them out as probe tables.

namespace autodetect {

struct StatsBuilderOptions {
  /// Ids into LanguageSpace::All(); empty means all 144 candidates.
  std::vector<int> language_ids;
  /// Distinct raw values per column fed to pattern counting; columns with
  /// more distinct values are subsampled deterministically. Bounds the
  /// quadratic pair blow-up per column.
  size_t max_distinct_values_per_column = 48;
  /// Distinct *patterns* per column per language; the co-occurrence pair
  /// count per column is at most this choose 2.
  size_t max_distinct_patterns_per_column = 24;
  size_t num_threads = 0;  ///< 0 = hardware concurrency
  size_t batch_columns = 2048;
  GeneralizeOptions generalize_options;
  /// Metrics destination (train.* series); null means the process default.
  MetricsRegistry* metrics = nullptr;
};

/// \brief Statistics for a set of languages over one corpus.
class CorpusStats {
 public:
  bool Has(int lang_id) const { return per_language_.count(lang_id) > 0; }
  const LanguageStats& ForLanguage(int lang_id) const;
  LanguageStats& MutableForLanguage(int lang_id);

  std::vector<int> LanguageIds() const;
  /// \brief Adds stats for `lang_id`. If the language already exists the two
  /// are merged additively (disjoint column sets, LanguageStats::Merge) —
  /// never a silent overwrite.
  void Insert(int lang_id, LanguageStats stats);
  /// Drops all languages except `keep` (used after selection to shed the
  /// memory of unselected candidates). Debug builds assert every kept id
  /// actually exists — a typo'd id silently shrinking the candidate set is
  /// how selection bugs hide.
  void Retain(const std::vector<int>& keep);

  void Serialize(BinaryWriter* writer) const;
  static Result<CorpusStats> Deserialize(BinaryReader* reader);

 private:
  std::map<int, LanguageStats> per_language_;
};

/// \brief Streams `source` once and builds statistics for every requested
/// language. Deterministic for a given source and options.
CorpusStats BuildCorpusStats(ColumnSource* source, const StatsBuilderOptions& options);

/// \brief The distinct-value preprocessing used per column (exposed for
/// tests and for the distant-supervision module, which must mirror it):
/// order-preserving dedupe, then deterministic subsample to `max_distinct`.
std::vector<std::string> DistinctValuesForStats(const std::vector<std::string>& values,
                                                size_t max_distinct);

}  // namespace autodetect
