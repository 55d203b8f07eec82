#include "train/distant_supervision.h"

#include <algorithm>

#include "common/logging.h"
#include "common/random.h"
#include "stats/npmi.h"
#include "stats/stats_builder.h"
#include "text/pattern.h"

namespace autodetect {

namespace {

/// A pooled verified-compatible column: its distinct values and their crude
/// pattern keys.
struct PooledColumn {
  std::vector<std::string> values;
  std::vector<uint64_t> crude_keys;
  /// Per value: the subsequence of non-alphanumeric characters ("1,234.5"
  /// -> ",."). Pairs differing here are format-diverse positives — the most
  /// valuable kind, because they pin down thresholds of symbol-sensitive
  /// languages (the "99"/"1.99", "999"/"1,000" compatibility classes).
  std::vector<std::string> symbol_signatures;
};

std::string SymbolSignature(const std::string& v) {
  std::string sig;
  for (char c : v) {
    bool alnum = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                 (c >= 'A' && c <= 'Z');
    if (!alnum) sig.push_back(c);
  }
  return sig;
}

}  // namespace

Result<TrainingSet> GenerateTrainingSet(ColumnSource* source,
                                        const FrozenStats& crude_stats,
                                        const DistantSupervisionOptions& options) {
  if (options.target_positives == 0 && options.target_negatives == 0) {
    return Status::Invalid("no training pairs requested");
  }
  const GeneralizationLanguage crude = LanguageSpace::CrudeG();
  NpmiScorer scorer(&crude_stats, options.smoothing_factor);
  Pcg32 rng(options.seed);

  // Pass 1: collect the verified-compatible pool C+ (reservoir sampled).
  std::vector<PooledColumn> pool;
  pool.reserve(std::min<size_t>(options.max_pool_columns, 4096));
  size_t compatible_seen = 0;

  source->Reset();
  Column column;
  while (source->Next(&column)) {
    std::vector<std::string> distinct =
        DistinctValuesForStats(column.values, options.max_values_per_column);
    if (distinct.size() < 2) continue;

    std::vector<uint64_t> keys;
    keys.reserve(distinct.size());
    for (const auto& v : distinct) keys.push_back(GeneralizeToKey(v, crude));

    // Verify pairwise compatibility on a sample of pairs.
    bool compatible = true;
    size_t checks = 0;
    for (size_t i = 0; i < keys.size() && compatible; ++i) {
      for (size_t j = i + 1; j < keys.size(); ++j) {
        if (checks++ >= options.compat_check_pairs) break;
        if (scorer.Score(keys[i], keys[j]) < options.compatible_column_threshold) {
          compatible = false;
          break;
        }
      }
    }
    if (!compatible) continue;

    ++compatible_seen;
    std::vector<std::string> signatures;
    signatures.reserve(distinct.size());
    for (const auto& v : distinct) signatures.push_back(SymbolSignature(v));
    PooledColumn pooled{std::move(distinct), std::move(keys), std::move(signatures)};
    if (pool.size() < options.max_pool_columns) {
      pool.push_back(std::move(pooled));
    } else {
      // Reservoir replacement keeps the pool an unbiased sample of C+.
      size_t idx = static_cast<size_t>(rng.NextU64() % compatible_seen);
      if (idx < pool.size()) pool[idx] = std::move(pooled);
    }
  }

  if (pool.size() < 2) {
    return Status::Invalid("fewer than 2 verified-compatible columns in corpus");
  }
  AD_LOG(Info) << "distant supervision: pooled " << pool.size()
               << " compatible columns (of " << compatible_seen << " seen)";

  TrainingSet out;
  out.positives.reserve(options.target_positives);
  out.negatives.reserve(options.target_negatives);

  // Index of pooled columns containing more than one crude pattern — the
  // source of "diverse" positives (see diverse_positive_fraction). Columns
  // whose values also differ in symbol signature are indexed separately and
  // preferred: they constrain symbol-sensitive languages.
  std::vector<uint32_t> diverse_columns;
  std::vector<uint32_t> format_diverse_columns;
  for (uint32_t ci = 0; ci < pool.size(); ++ci) {
    const auto& col = pool[ci];
    bool key_diverse = false, sig_diverse = false;
    for (size_t i = 1; i < col.crude_keys.size(); ++i) {
      key_diverse |= col.crude_keys[i] != col.crude_keys[0];
      sig_diverse |= col.symbol_signatures[i] != col.symbol_signatures[0];
    }
    if (key_diverse) diverse_columns.push_back(ci);
    if (sig_diverse) format_diverse_columns.push_back(ci);
  }

  // T+: pairs from within one compatible column.
  size_t attempts = 0;
  const size_t max_attempts_pos = options.target_positives * 20 + 1000;
  while (out.positives.size() < options.target_positives &&
         attempts++ < max_attempts_pos) {
    bool want_diverse = !diverse_columns.empty() &&
                        rng.Chance(options.diverse_positive_fraction);
    // Among diverse draws, prefer format-diverse columns half the time.
    bool want_format =
        want_diverse && !format_diverse_columns.empty() && rng.Chance(0.5);
    const PooledColumn& c =
        want_format ? pool[rng.Pick(format_diverse_columns)]
        : want_diverse
            ? pool[rng.Pick(diverse_columns)]
            : pool[rng.Below(static_cast<uint32_t>(pool.size()))];
    uint32_t i = rng.Below(static_cast<uint32_t>(c.values.size()));
    uint32_t j = rng.Below(static_cast<uint32_t>(c.values.size()));
    if (i == j) continue;
    if (want_format && c.symbol_signatures[i] == c.symbol_signatures[j]) continue;
    if (want_diverse && !want_format && c.crude_keys[i] == c.crude_keys[j]) continue;
    out.positives.push_back(LabeledPair{c.values[i], c.values[j], true});
  }

  // T−: splice u from C1 into C2, pair with v ∈ C2, prune coincidental
  // compatibility under G.
  attempts = 0;
  const size_t max_attempts_neg = options.target_negatives * 40 + 1000;
  while (out.negatives.size() < options.target_negatives &&
         attempts++ < max_attempts_neg) {
    uint32_t a = rng.Below(static_cast<uint32_t>(pool.size()));
    uint32_t b = rng.Below(static_cast<uint32_t>(pool.size()));
    if (a == b) continue;
    const PooledColumn& c1 = pool[a];
    const PooledColumn& c2 = pool[b];
    uint32_t ui = rng.Below(static_cast<uint32_t>(c1.values.size()));
    uint32_t vi = rng.Below(static_cast<uint32_t>(c2.values.size()));
    if (scorer.Score(c1.crude_keys[ui], c2.crude_keys[vi]) >=
        options.negative_prune_threshold) {
      continue;  // possibly compatible by coincidence — drop (Appendix F)
    }
    out.negatives.push_back(LabeledPair{c1.values[ui], c2.values[vi], false});
  }

  if (out.positives.empty() || out.negatives.empty()) {
    return Status::Internal("distant supervision produced an empty side: " +
                            std::to_string(out.positives.size()) + " positives, " +
                            std::to_string(out.negatives.size()) + " negatives");
  }
  AD_LOG(Info) << "distant supervision: " << out.positives.size() << " positives, "
               << out.negatives.size() << " negatives";
  return out;
}

}  // namespace autodetect
