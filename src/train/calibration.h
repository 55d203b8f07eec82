#pragma once

#include <vector>

#include "common/bitset.h"
#include "common/result.h"
#include "stats/language_stats.h"
#include "text/language.h"
#include "text/run_tokenizer.h"
#include "train/distant_supervision.h"

/// \file calibration.h
/// Static-threshold calibration (paper Sec. 3.2, Eq. 7-8): for each
/// candidate language L_k, find the largest NPMI threshold θ_k such that
/// predicting "incompatible" for every training pair scoring <= θ' keeps
/// precision >= P for ALL θ' <= θ_k. Also records the empirical
/// score→precision curve, which at detection time provides the confidence
/// estimate P_k(s) used by max-confidence aggregation (Appendix B).

namespace autodetect {

/// \brief Empirical precision-at-threshold curve of one language on T.
/// Points are (score, precision of all predictions with score <= point's
/// score), sorted by score ascending.
///
/// The curve either owns its points (training path) or views a caller-owned
/// array — the zero-copy path points it directly at Point records inside a
/// memory-mapped ADMODEL2 section. Lookups are identical in both modes.
class PrecisionCurve {
 public:
  struct Point {
    double score;
    double precision;
  };
  // Points are stored verbatim in the frozen model format; the layout is
  // part of the on-disk contract.
  static_assert(sizeof(Point) == 16);

  PrecisionCurve() = default;
  explicit PrecisionCurve(std::vector<Point> points) : points_(std::move(points)) {}

  /// \brief Estimated precision P_k(s) when flagging at threshold `score`.
  /// Returns 0 for an empty curve.
  double PrecisionAt(double score) const;

  bool empty() const { return size() == 0; }
  size_t size() const { return points_.empty() ? view_size_ : points_.size(); }
  const Point* data() const { return points_.empty() ? view_data_ : points_.data(); }

  /// Frozen blob size: u64 count + points verbatim.
  size_t FrozenBytes() const { return 8 + size() * sizeof(Point); }
  /// \brief Appends the frozen representation (count + Point array) to
  /// `out`; the blob must land at an 8-byte aligned offset.
  void AppendFrozen(std::string* out) const;
  /// \brief Builds a non-owning curve viewing exactly [data, data + len);
  /// the bytes must outlive the result.
  static Result<PrecisionCurve> FromFrozen(const void* data, size_t len);

 private:
  std::vector<Point> points_;
  const Point* view_data_ = nullptr;  ///< live iff points_ is empty and set
  size_t view_size_ = 0;
};

struct CalibrationResult {
  /// θ_k. Only meaningful when has_threshold.
  double threshold = -2.0;
  /// False when no non-empty prefix meets the precision target (the
  /// language is unusable at this P and must not be selected).
  bool has_threshold = false;
  double precision_at_threshold = 0.0;
  /// Bit i set iff training negative T−[i] scores <= θ_k (the H_k^- set).
  DynamicBitset covered_negatives;
  size_t covered_count = 0;
  PrecisionCurve curve;
};

struct CalibrationOptions {
  double precision_target = 0.95;  ///< the P of Definition 5
  double smoothing_factor = 0.1;
  /// Upper bound on θ_k. NPMI > 0 means the patterns co-occur *more* than
  /// chance (Sec. 2.1), so an "incompatible" call above 0 would contradict
  /// the score's semantics no matter what the training prefix precision
  /// says; all thresholds in the paper's worked examples are negative.
  /// Strictly negative so that score 0 — the scorer's "no reliable
  /// evidence" sentinel — can never fire.
  double max_threshold = -0.01;
  /// Max points retained in the stored precision curve.
  size_t max_curve_points = 256;
};

/// \brief Training set pre-keyed under every candidate language at once.
/// Calibrating the 144 candidates used to re-generalize every training value
/// per language — 144 full string scans per value. Construction instead
/// tokenizes each *distinct* value once (run_tokenizer) and derives all
/// per-language keys with the shared-tokenization kernel; per-language
/// calibration then reads keys with no string work at all, and looks their
/// counts up by merge-join (see Score).
class PreKeyedTrainingSet {
 public:
  /// \param lang_ids ids into LanguageSpace::All(); the `lang_pos` of the
  /// accessors below indexes into this vector.
  PreKeyedTrainingSet(const TrainingSet& train, const std::vector<int>& lang_ids,
                      const GeneralizeOptions& options = {});

  size_t num_languages() const { return lang_ids_.size(); }
  const std::vector<int>& lang_ids() const { return lang_ids_; }
  size_t num_positives() const { return num_positives_; }
  size_t num_negatives() const { return pairs_.size() - num_positives_; }
  size_t size() const { return pairs_.size(); }

  /// \brief NPMI scores of every pair under language `lang_pos`, in the
  /// order positives-then-negatives (same contract as ScoreTrainingSet).
  /// c(p) and c(p1,p2) are read once per distinct query: the keys are
  /// radix-sorted and merge-joined against the language's sorted entry
  /// arrays (LanguageStats::CountsInto / CoCountsInto), so the statistics
  /// need no probe arrays. Bit-identical to NpmiScorer::Score per pair.
  std::vector<double> Score(size_t lang_pos, const LanguageStats& stats,
                            double smoothing_factor) const;

 private:
  std::vector<int> lang_ids_;
  size_t num_values_ = 0;
  /// Key of distinct value v under language l at keys_[v * L + l].
  std::vector<uint64_t> keys_;
  /// Pairs as indices into the distinct values, positives first.
  std::vector<std::pair<uint32_t, uint32_t>> pairs_;
  size_t num_positives_ = 0;
};

/// \brief The Eq. 8 threshold walk over pre-computed scores, ordered
/// positives then negatives — what both CalibrateLanguage overloads run
/// after scoring.
CalibrationResult CalibrateScores(const std::vector<double>& scores,
                                  size_t num_positives, size_t num_negatives,
                                  const CalibrationOptions& options);

/// \brief Calibrates one language against the training set.
CalibrationResult CalibrateLanguage(const GeneralizationLanguage& lang,
                                    const LanguageStats& stats,
                                    const TrainingSet& train,
                                    const CalibrationOptions& options);

/// \brief Calibrates the language at `lang_pos` of `train.lang_ids()` from
/// pre-computed keys; identical result to the string-based overload.
CalibrationResult CalibrateLanguage(size_t lang_pos, const LanguageStats& stats,
                                    const PreKeyedTrainingSet& train,
                                    const CalibrationOptions& options);

/// \brief Scores every pair of `train` under `lang`; returned in the order
/// positives-then-negatives. Exposed for the aggregation ablation bench.
std::vector<double> ScoreTrainingSet(const GeneralizationLanguage& lang,
                                     const LanguageStats& stats,
                                     const TrainingSet& train,
                                     double smoothing_factor);

}  // namespace autodetect
