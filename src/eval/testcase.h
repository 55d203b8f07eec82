#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "corpus/column_source.h"
#include "corpus/corpus_generator.h"
#include "stats/frozen_stats.h"

/// \file testcase.h
/// Test-set construction for the paper's two evaluation protocols:
///
///  * Auto-eval (Sec. 4.4): a "dirty" test column is a clean column C2 with
///    one value v_d spliced in from a different column C1, where v_d is
///    verified incompatible with C2 under crude-G statistics. Dirty cases
///    are mixed with clean columns at dirty:clean ratios 1:1 / 1:5 / 1:10.
///
///  * Realistic labeled sets (stand-in for the paper's manual labeling of
///    WIKI/CSV results): clean columns dirtied by the error-injector's
///    taxonomy of real error classes (Fig. 1/2, Table 4), with
///    construction-time ground truth.

namespace autodetect {

struct TestCase {
  std::vector<std::string> values;
  bool dirty = false;
  /// Ground truth when dirty.
  int32_t dirty_index = -1;
  std::string dirty_value;
  ErrorClass error_class = ErrorClass::kNone;
  std::string domain;  ///< generating domain of the host column
};

struct SpliceTestOptions {
  size_t num_dirty = 1000;
  size_t clean_per_dirty = 1;  ///< 1, 5 or 10 (the paper's ratios)
  /// v_d must score below this against every value of C2 under crude-G
  /// statistics (unsmoothed), ensuring the splice is genuinely
  /// incompatible (mirrors Appendix F's manual tuning).
  double incompatible_threshold = -0.5;
  size_t max_column_values = 40;
  uint64_t seed = 99;
};

/// \brief Builds an auto-eval test set by streaming `source` (clean columns)
/// and splicing foreign values. `crude_stats` must be statistics for
/// LanguageSpace::CrudeG() over a training corpus.
Result<std::vector<TestCase>> GenerateSpliceTestSet(ColumnSource* source,
                                                    const FrozenStats& crude_stats,
                                                    const SpliceTestOptions& options);

struct RealisticTestOptions {
  size_t num_dirty = 500;
  size_t num_clean = 1500;
  uint64_t seed = 4242;
};

/// \brief Builds a realistic labeled test set from `profile` columns with
/// injector-based errors.
std::vector<TestCase> GenerateRealisticTestSet(const CorpusProfile& profile,
                                               const RealisticTestOptions& options);

}  // namespace autodetect
