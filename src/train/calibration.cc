#include "train/calibration.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"
#include "common/radix_sort.h"
#include "stats/npmi.h"
#include "text/pattern.h"
#include "text/run_tokenizer.h"

namespace autodetect {

double PrecisionCurve::PrecisionAt(double score) const {
  const Point* begin = data();
  const Point* end = begin + size();
  if (begin == end) return 0.0;
  if (score <= begin->score) return begin->precision;
  // Largest point with point.score <= score.
  const Point* it = std::upper_bound(
      begin, end, score, [](double s, const Point& p) { return s < p.score; });
  return std::prev(it)->precision;
}

void PrecisionCurve::AppendFrozen(std::string* out) const {
  uint64_t n = size();
  out->append(reinterpret_cast<const char*>(&n), sizeof(n));
  if (n > 0) out->append(reinterpret_cast<const char*>(data()), n * sizeof(Point));
}

Result<PrecisionCurve> PrecisionCurve::FromFrozen(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  if (reinterpret_cast<uintptr_t>(p) % 8 != 0) {
    return Status::Corruption("frozen curve blob is not 8-byte aligned");
  }
  if (len < 8) {
    return Status::IOError("truncated frozen curve: count needs 8 bytes, got " +
                           std::to_string(len));
  }
  uint64_t n;
  std::memcpy(&n, p, 8);
  if (n > (1ULL << 24)) return Status::Corruption("implausible curve size");
  if (len - 8 != n * sizeof(Point)) {
    return Status::Corruption("frozen curve length mismatch: count " +
                              std::to_string(n) + " vs " +
                              std::to_string(len - 8) + " payload bytes");
  }
  PrecisionCurve curve;
  curve.view_size_ = static_cast<size_t>(n);
  curve.view_data_ = n == 0 ? nullptr : reinterpret_cast<const Point*>(p + 8);
  return curve;
}

namespace {

using Slot = SortedCounts::Entry;
using ValuePair = std::pair<uint32_t, uint32_t>;

/// NPMI of each pair of `pairs` (indices into `value_keys`). Every count is
/// read once per query, in batches: the value keys and the pair keys are
/// radix-sorted with their positions and looked up by merge-join
/// (LanguageStats::CountsInto / CoCountsInto), then each pair is scored
/// from its three counts (NpmiFormula::Score).
std::vector<double> ScoreKeyPairs(const LanguageStats& stats, double smoothing_factor,
                                  const std::vector<uint64_t>& value_keys,
                                  const std::vector<ValuePair>& pairs) {
  const auto key_of = [](const Slot& s) { return s.key; };
  std::vector<Slot> queries, buffer;
  queries.reserve(std::max(value_keys.size(), pairs.size()));
  for (size_t v = 0; v < value_keys.size(); ++v) queries.push_back(Slot{value_keys[v], v});
  RadixSort(&queries, &buffer, key_of);
  std::vector<uint64_t> counts(value_keys.size());
  stats.CountsInto(queries, counts.data());

  // The formula never reads c(p1,p2) of a pair of identical keys.
  queries.clear();
  for (size_t i = 0; i < pairs.size(); ++i) {
    const uint64_t ku = value_keys[pairs[i].first];
    const uint64_t kv = value_keys[pairs[i].second];
    if (ku != kv) queries.push_back(Slot{CombineUnordered(ku, kv), i});
  }
  RadixSort(&queries, &buffer, key_of);
  std::vector<uint64_t> co_counts(pairs.size());
  stats.CoCountsInto(queries, co_counts.data());

  const NpmiFormula formula(stats.num_columns(), smoothing_factor);
  std::vector<double> scores;
  scores.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [u, v] = pairs[i];
    scores.push_back(formula.Score(counts[u], counts[v], co_counts[i],
                                   value_keys[u] == value_keys[v]));
  }
  return scores;
}

}  // namespace

std::vector<double> ScoreTrainingSet(const GeneralizationLanguage& lang,
                                     const LanguageStats& stats,
                                     const TrainingSet& train,
                                     double smoothing_factor) {
  std::vector<uint64_t> value_keys;
  std::vector<ValuePair> pairs;
  value_keys.reserve(2 * train.size());
  pairs.reserve(train.size());
  auto add = [&](const LabeledPair& p) {
    const auto at = static_cast<uint32_t>(value_keys.size());
    value_keys.push_back(GeneralizeToKey(p.u, lang));
    value_keys.push_back(GeneralizeToKey(p.v, lang));
    pairs.emplace_back(at, at + 1);
  };
  for (const auto& p : train.positives) add(p);
  for (const auto& p : train.negatives) add(p);
  return ScoreKeyPairs(stats, smoothing_factor, value_keys, pairs);
}

PreKeyedTrainingSet::PreKeyedTrainingSet(const TrainingSet& train,
                                         const std::vector<int>& lang_ids,
                                         const GeneralizeOptions& options)
    : lang_ids_(lang_ids) {
  // Intern distinct values: training pairs reuse values heavily (splice
  // negatives pair one donor against many hosts), so keying per distinct
  // value rather than per pair side is itself a large saving.
  std::unordered_map<std::string_view, uint32_t> index;
  std::vector<std::string_view> distinct;
  auto intern = [&](const std::string& v) {
    auto [it, inserted] =
        index.emplace(v, static_cast<uint32_t>(distinct.size()));
    if (inserted) distinct.push_back(v);
    return it->second;
  };
  pairs_.reserve(train.size());
  for (const auto& p : train.positives) pairs_.emplace_back(intern(p.u), intern(p.v));
  for (const auto& p : train.negatives) pairs_.emplace_back(intern(p.u), intern(p.v));
  num_positives_ = train.positives.size();
  num_values_ = distinct.size();

  MultiGeneralizer multi = MultiGeneralizer::ForIds(lang_ids_, options);
  keys_.resize(distinct.size() * lang_ids_.size());
  std::vector<ClassRun> runs;
  for (size_t v = 0; v < distinct.size(); ++v) {
    uint8_t mask = TokenizeRuns(distinct[v], options, &runs);
    multi.KeysFor(RunSpan(runs), mask, keys_.data() + v * lang_ids_.size());
  }
}

std::vector<double> PreKeyedTrainingSet::Score(size_t lang_pos,
                                               const LanguageStats& stats,
                                               double smoothing_factor) const {
  AD_CHECK(lang_pos < lang_ids_.size());
  std::vector<uint64_t> value_keys(num_values_);
  for (size_t v = 0; v < num_values_; ++v) {
    value_keys[v] = keys_[v * lang_ids_.size() + lang_pos];
  }
  return ScoreKeyPairs(stats, smoothing_factor, value_keys, pairs_);
}

CalibrationResult CalibrateScores(const std::vector<double>& scores,
                                  size_t num_positives, size_t num_negatives,
                                  const CalibrationOptions& options) {
  CalibrationResult result;
  result.covered_negatives = DynamicBitset(num_negatives);
  if (scores.empty()) return result;

  struct Scored {
    double score;
    bool is_negative;
    uint32_t neg_index;  // valid when is_negative
  };
  std::vector<Scored> items;
  items.reserve(scores.size());
  for (size_t i = 0; i < num_positives; ++i) {
    items.push_back(Scored{scores[i], false, 0});
  }
  for (size_t i = 0; i < num_negatives; ++i) {
    items.push_back(Scored{scores[num_positives + i], true,
                           static_cast<uint32_t>(i)});
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const Scored& a, const Scored& b) { return a.score < b.score; });

  // Walk prefixes grouped by tied scores. A prefix is "valid" when every
  // group boundary so far had precision >= P; θ_k is the last valid
  // boundary's score (Eq. 8).
  size_t negatives_so_far = 0;
  size_t total_so_far = 0;
  size_t valid_prefix_end = 0;  // item count of the best valid prefix
  double valid_threshold = -2.0;
  double valid_precision = 0.0;
  bool still_valid = true;

  std::vector<PrecisionCurve::Point> curve_points;

  size_t i = 0;
  while (i < items.size()) {
    size_t j = i;
    while (j < items.size() && items[j].score == items[i].score) ++j;
    for (size_t k = i; k < j; ++k) negatives_so_far += items[k].is_negative ? 1 : 0;
    total_so_far = j;
    double precision =
        static_cast<double>(negatives_so_far) / static_cast<double>(total_so_far);
    // The stored curve uses a Laplace-smoothed estimate: it never saturates
    // at exactly 1.0, so deeper (better-supported) prefixes rank above
    // shallow ones and detection-time confidences stay discriminative.
    double smoothed = (static_cast<double>(negatives_so_far) + 0.5) /
                      (static_cast<double>(total_so_far) + 1.0);
    curve_points.push_back(PrecisionCurve::Point{items[i].score, smoothed});
    if (still_valid && items[i].score > options.max_threshold) {
      still_valid = false;  // θ_k may not exceed the semantic cap
    }
    if (still_valid) {
      if (precision >= options.precision_target) {
        valid_prefix_end = j;
        valid_threshold = items[i].score;
        valid_precision = precision;
      } else {
        still_valid = false;  // Eq. 8: all θ' <= θ_k must satisfy P
      }
    }
    i = j;
  }

  if (valid_prefix_end > 0) {
    result.has_threshold = true;
    result.threshold = valid_threshold;
    result.precision_at_threshold = valid_precision;
    for (size_t k = 0; k < valid_prefix_end; ++k) {
      if (items[k].is_negative) {
        result.covered_negatives.Set(items[k].neg_index);
        ++result.covered_count;
      }
    }
  }

  // Downsample the curve for storage, always keeping first and last points.
  if (curve_points.size() > options.max_curve_points) {
    std::vector<PrecisionCurve::Point> sampled;
    sampled.reserve(options.max_curve_points);
    double stride = static_cast<double>(curve_points.size() - 1) /
                    static_cast<double>(options.max_curve_points - 1);
    for (size_t k = 0; k < options.max_curve_points; ++k) {
      sampled.push_back(curve_points[static_cast<size_t>(std::round(k * stride))]);
    }
    curve_points = std::move(sampled);
  }
  result.curve = PrecisionCurve(std::move(curve_points));
  return result;
}

CalibrationResult CalibrateLanguage(const GeneralizationLanguage& lang,
                                    const LanguageStats& stats,
                                    const TrainingSet& train,
                                    const CalibrationOptions& options) {
  std::vector<double> scores =
      ScoreTrainingSet(lang, stats, train, options.smoothing_factor);
  return CalibrateScores(scores, train.positives.size(), train.negatives.size(),
                         options);
}

CalibrationResult CalibrateLanguage(size_t lang_pos, const LanguageStats& stats,
                                    const PreKeyedTrainingSet& train,
                                    const CalibrationOptions& options) {
  std::vector<double> scores =
      train.Score(lang_pos, stats, options.smoothing_factor);
  return CalibrateScores(scores, train.num_positives(), train.num_negatives(),
                         options);
}

}  // namespace autodetect
