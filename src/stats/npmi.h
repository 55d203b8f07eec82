#pragma once

#include <cstdint>
#include <string_view>

#include "stats/frozen_stats.h"
#include "text/pattern.h"

/// \file npmi.h
/// Pointwise mutual information over pattern co-occurrence (paper Eqs. 1-2)
/// with Jelinek-Mercer smoothing of rare co-counts (Eq. 10). This is the
/// compatibility score s_k(u, v) at the core of Auto-Detect.

namespace autodetect {

/// \brief The compatibility score as a pure function of the counts: N, the
/// smoothing factor f and the reliability gates, with no statistics
/// attached. NpmiScorer holds one and feeds it point lookups; calibration's
/// merge-join feeds it counts read in batches from training's sorted
/// statistics.
class NpmiFormula {
 public:
  /// \param num_columns the N of Eq. 1.
  /// \param smoothing_factor the f of Eq. 10 (paper default 0.1; f=0
  /// disables smoothing).
  /// \param min_pattern_support reliability gate: when BOTH patterns have
  /// been seen in fewer than this many columns, the co-occurrence evidence
  /// is too thin to call the pair incompatible and the score is 0
  /// (unknown). This extends the paper's rare-event reasoning (Sec. 3.3)
  /// to the reduced corpus scale of this reproduction; real error pairs
  /// keep one *common* side (the clean values) and are unaffected.
  NpmiFormula(uint64_t num_columns, double smoothing_factor = 0.1,
              uint64_t min_pattern_support = 3)
      : n_(static_cast<double>(num_columns)),
        f_(smoothing_factor),
        min_support_(min_pattern_support) {}

  /// Incompatibility requires a *co-occurrence deficit*: the pair's raw
  /// observed co-count must be below this fraction of the independence
  /// expectation c1*c2/N for the score to go negative at all. Pairs that
  /// co-occur at a substantial fraction of chance (e.g. mononyms inside
  /// name columns, ints among floats) are mildly anti-correlated at
  /// reduced corpus scale but are not errors; true errors co-occur
  /// essentially never (the paper's Example 1: c(v1,v3)=10 against
  /// millions). Scores for non-deficit pairs are clamped to >= 0.
  static constexpr double kDeficitRatio = 0.25;

  /// Optional evidence-quality detail reported by Score (for observability;
  /// does not affect the score itself).
  struct ScoreDetail {
    /// Both patterns were below min_pattern_support: the scorer punted and
    /// returned 0 (unknown) instead of trusting thin co-occurrence evidence.
    bool rare_fallback = false;
  };

  /// \brief NPMI from c1 = c(p1), c2 = c(p2), c12 = c(p1,p2) (raw,
  /// unsmoothed) and whether p1 == p2, in [-1, 1]. c12 is not read when
  /// p1 == p2 or when either marginal is 0, so callers skip that lookup.
  /// Conventions for the corners (limits of Eq. 2):
  ///  - identical patterns that exist in the corpus score +1;
  ///  - any pair whose smoothed co-count is zero scores -1 (never observed
  ///    together -> maximally incompatible);
  ///  - a pattern never seen at all (c(p) == 0) also yields -1, since the
  ///    corpus offers no evidence it belongs anywhere.
  /// \param detail when non-null, filled with evidence-quality flags.
  double Score(uint64_t c1, uint64_t c2, uint64_t c12, bool same,
               ScoreDetail* detail = nullptr) const;

  /// Eq. 10 over counts already read: (1-f)*observed + f*c1*c2/N.
  double Smooth(double c1, double c2, double observed) const;

  double smoothing_factor() const { return f_; }

 private:
  double n_;
  double f_;
  uint64_t min_support_;
};

/// \brief NPMI scorer bound to one language's frozen statistics: reads
/// c(p1), c(p2) and c(p1,p2) once each, then NpmiFormula::Score.
class NpmiScorer {
 public:
  using ScoreDetail = NpmiFormula::ScoreDetail;

  /// \param stats must outlive the scorer. The other parameters are
  /// NpmiFormula's.
  NpmiScorer(const FrozenStats* stats, double smoothing_factor = 0.1,
             uint64_t min_pattern_support = 3)
      : stats_(stats),
        formula_(stats->num_columns(), smoothing_factor, min_pattern_support) {}

  /// \brief NPMI of two pattern keys, in [-1, 1] (NpmiFormula::Score).
  double Score(uint64_t key1, uint64_t key2, ScoreDetail* detail = nullptr) const;

  /// \brief Smoothed co-occurrence count (Eq. 10):
  /// (1-f)*c(p1,p2) + f*c(p1)*c(p2)/N.
  double SmoothedCoCount(uint64_t key1, uint64_t key2) const;

  double smoothing_factor() const { return formula_.smoothing_factor(); }
  const FrozenStats& stats() const { return *stats_; }

 private:
  const FrozenStats* stats_;
  NpmiFormula formula_;
};

/// \brief Convenience scorer over raw values: generalizes both under `lang`
/// then scores. (Production code paths pre-generalize and reuse keys.)
double NpmiOfValues(std::string_view v1, std::string_view v2,
                    const GeneralizationLanguage& lang, const FrozenStats& stats,
                    double smoothing_factor = 0.1);

}  // namespace autodetect
