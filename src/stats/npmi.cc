#include "stats/npmi.h"

#include <algorithm>
#include <cmath>

namespace autodetect {

double NpmiFormula::Smooth(double c1, double c2, double observed) const {
  if (f_ <= 0.0 || n_ <= 0) return observed;
  const double expected = c1 * c2 / n_;
  return (1.0 - f_) * observed + f_ * expected;
}

double NpmiFormula::Score(uint64_t count1, uint64_t count2, uint64_t count12,
                          bool same, ScoreDetail* detail) const {
  const double n = n_;
  if (n <= 0) return -1.0;
  const double c1 = static_cast<double>(count1);
  const double c2 = static_cast<double>(count2);
  // Identical patterns are perfectly compatible whenever they exist at all
  // (two values indistinguishable under L carry no incompatibility signal).
  if (same && c1 > 0) return 1.0;
  if (c1 < static_cast<double>(min_support_) &&
      c2 < static_cast<double>(min_support_)) {
    if (detail != nullptr) detail->rare_fallback = true;
    return 0.0;  // both patterns too rare: no reliable evidence either way
  }
  if (c1 <= 0 || c2 <= 0) return -1.0;

  // Co-occurrence deficit gate (see kDeficitRatio).
  const double raw_c12 = static_cast<double>(count12);
  const double expectation = c1 * c2 / n;
  const bool deficit = raw_c12 < kDeficitRatio * expectation;

  const double c12 = Smooth(c1, c2, raw_c12);
  if (c12 <= 0) return deficit ? -1.0 : 0.0;

  const double p1 = c1 / n;
  const double p2 = c2 / n;
  // Smoothed co-count can exceed min(c1, c2) only through rounding noise;
  // clamp the joint probability into a consistent range.
  const double p12 = std::min(c12 / n, std::min(p1, p2));

  if (p12 >= 1.0) return 1.0;  // co-occur in every column

  const double pmi = std::log(p12 / (p1 * p2));
  const double denom = -std::log(p12);
  if (denom <= 0) return 1.0;
  double npmi = std::clamp(pmi / denom, -1.0, 1.0);
  if (!deficit && npmi < 0) return 0.0;
  return npmi;
}

double NpmiScorer::SmoothedCoCount(uint64_t key1, uint64_t key2) const {
  return formula_.Smooth(static_cast<double>(stats_->Count(key1)),
                         static_cast<double>(stats_->Count(key2)),
                         static_cast<double>(stats_->CoCount(key1, key2)));
}

double NpmiScorer::Score(uint64_t key1, uint64_t key2, ScoreDetail* detail) const {
  const bool same = key1 == key2;
  const uint64_t c1 = stats_->Count(key1);
  const uint64_t c2 = same ? c1 : stats_->Count(key2);
  const uint64_t c12 = !same && c1 > 0 && c2 > 0 ? stats_->CoCount(key1, key2, c1, c2) : 0;
  return formula_.Score(c1, c2, c12, same, detail);
}

double NpmiOfValues(std::string_view v1, std::string_view v2,
                    const GeneralizationLanguage& lang, const FrozenStats& stats,
                    double smoothing_factor) {
  NpmiScorer scorer(&stats, smoothing_factor);
  return scorer.Score(GeneralizeToKey(v1, lang), GeneralizeToKey(v2, lang));
}

}  // namespace autodetect
