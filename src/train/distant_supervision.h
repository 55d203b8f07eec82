#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "corpus/column_source.h"
#include "stats/frozen_stats.h"
#include "text/language.h"

/// \file distant_supervision.h
/// Automatic construction of labeled training pairs T = T+ ∪ T− (paper
/// Sec. 3.1 and Appendix F). No human labels anywhere:
///
///  * A crude generalization G (digits→\D, upper→\U, lower→\l, symbols kept)
///    is used to score pairwise compatibility of corpus columns; columns
///    whose value pairs all score above a threshold form the verified-clean
///    pool C+.
///  * T+ — compatible pairs — are sampled from within single C+ columns.
///  * T− — incompatible pairs — are formed by splicing a value u from one
///    C+ column into a different C+ column C2 and pairing u with v ∈ C2,
///    pruning pairs that are coincidentally compatible
///    (NPMI(G(u), G(v)) >= prune threshold).

namespace autodetect {

/// One labeled value pair. `compatible == false` means the pair is a
/// synthesized error (member of T−).
struct LabeledPair {
  std::string u;
  std::string v;
  bool compatible;
};

struct TrainingSet {
  std::vector<LabeledPair> positives;  ///< T+
  std::vector<LabeledPair> negatives;  ///< T−

  size_t size() const { return positives.size() + negatives.size(); }
};

struct DistantSupervisionOptions {
  size_t target_positives = 25000;
  size_t target_negatives = 25000;
  /// Min pairwise NPMI under G for a column to join C+ (paper: manually
  /// tuned to 0, chosen so almost all selected columns are truly compatible).
  double compatible_column_threshold = 0.0;
  /// Negative pairs with NPMI(G(u),G(v)) >= this are pruned as possibly
  /// compatible (paper: -0.3).
  double negative_prune_threshold = -0.3;
  /// Smoothing for the crude G scoring. Deliberately 0 (unsmoothed), unlike
  /// detection-time scoring: Jelinek-Mercer smoothing floors the NPMI of
  /// never-co-occurring common patterns around -0.2..-0.33, which would put
  /// every candidate negative right at the -0.3 prune threshold and discard
  /// exactly the training signal we need. Unsmoothed, "never co-occur" is
  /// exactly -1 and the paper's thresholds behave as intended.
  double smoothing_factor = 0.0;
  /// Fraction of T+ drawn specifically from pairs whose *crude patterns
  /// differ* (e.g. "99" with "1.99", "999" with "1,000"). The paper's T+ is
  /// sampled uniformly from 100M+ pairs, which at that scale contains
  /// plenty of such borderline-compatible pairs; at our reduced scale a
  /// uniform sample would miss them, calibrated thresholds would creep up
  /// to 0, and format-tolerant compatibility (the paper's Col-1/Col-2
  /// motivation) would be lost. Oversampling restores the constraint.
  double diverse_positive_fraction = 0.5;
  /// Pairs sampled per column when verifying compatibility.
  size_t compat_check_pairs = 16;
  /// Cap of distinct values kept per pooled column.
  size_t max_values_per_column = 12;
  /// Reservoir size of the C+ pool.
  size_t max_pool_columns = 50000;
  uint64_t seed = 7;
};

/// \brief Builds T from a (re-playable) corpus stream using pre-built crude
/// statistics for LanguageSpace::CrudeG(), frozen exactly (Freeze).
/// Deterministic given options.
Result<TrainingSet> GenerateTrainingSet(ColumnSource* source,
                                        const FrozenStats& crude_stats,
                                        const DistantSupervisionOptions& options);

}  // namespace autodetect
