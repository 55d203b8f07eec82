#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "detect/api.h"
#include "detect/model.h"
#include "obs/metrics.h"
#include "stats/value_interner.h"
#include "text/run_tokenizer.h"

/// \file detector.h
/// The online half of Auto-Detect: score value pairs and scan columns for
/// incompatible cells using a trained Model. The default aggregation is the
/// paper's max-confidence union over selected languages (Sec. 3.2 /
/// Appendix B); the alternatives of the Fig. 8(b) ablation are selectable.
///
/// Request/report types live in detect/api.h (the unified detection API);
/// this header provides the scoring core (Detector) and the sequential
/// executor of that API (SequentialExecutor).

namespace autodetect {

/// How per-language NPMI scores s_k(u,v) are fused into one prediction.
enum class Aggregation : uint8_t {
  /// Paper's method: flag iff ∃k with s_k <= θ_k; confidence is
  /// max_k P_k(s_k) (Eq. 11).
  kMaxConfidence = 0,
  kAvgNpmi,              ///< average s_k, thresholded at mean θ
  kMinNpmi,              ///< min s_k, thresholded at mean θ
  kMajorityVote,         ///< count of languages voting incompatible
  kWeightedMajorityVote, ///< votes weighted by margin |s_k − θ_k|
  kBestSingle,           ///< only the single highest-coverage language
};

std::string_view AggregationName(Aggregation a);

struct DetectorOptions {
  Aggregation aggregation = Aggregation::kMaxConfidence;
  /// Distinct values examined per column (mirrors the stats-build cap).
  size_t max_distinct_values = 48;
  /// Pair findings with confidence below this are not reported.
  double min_confidence = 0.0;
  /// Cap on reported pair findings per column.
  size_t max_pair_findings = 16;
  /// Per-column score budget in microseconds; 0 = unlimited. When a scan
  /// exceeds the budget mid-column, key-row class pairs not yet scored are
  /// scored under the degraded single-language fallback (the crude G of
  /// paper Sec. 3.1 when the model carries it, else the highest-coverage
  /// language) and the report is flagged ColumnStatus::kDegraded — bounded
  /// latency instead of a silently slow column. Class pairs scored before
  /// the budget tripped keep their full verdict for the rest of the scan.
  uint64_t column_budget_us = 0;
  /// Metrics destination; null means the process default registry. Metric
  /// handles are resolved once at Detector construction.
  MetricsRegistry* metrics = nullptr;
};

/// Verdict on a single value pair.
struct PairVerdict {
  bool incompatible = false;
  /// Estimated precision of the "incompatible" call, in [0, 1]; comparable
  /// across columns, used for global ranking (paper Sec. 4.2).
  double confidence = 0.0;
  /// The most damning NPMI among languages.
  double min_npmi = 1.0;
  /// lang_id of the language with the most confident incompatibility call;
  /// -1 when no language fired.
  int best_language = -1;
};

/// Reusable buffers for column scans. The scan of one column interns it,
/// keys each sampled distinct value into a flat d × |languages| matrix,
/// groups the values into key-row classes (equal rows, so equal verdicts
/// against any other value) and fills a class × class verdict table once
/// per class pair. With a caller-provided ColumnScratch every buffer keeps
/// its capacity across columns, so a warm scan allocates only for the
/// findings it reports — what the serving engine's per-worker buffers rely
/// on, and what alloc_test pins.
struct ColumnScratch {
  /// Per-value tallies behind cell attribution.
  struct CellAgg {
    uint32_t degree = 0;  ///< incompatible pairs the value takes part in
    double best_conf = 0;
  };
  /// One class-pair slot of the verdict table.
  struct ClassVerdict {
    bool scored = false;   ///< the slot holds its class pair's verdict
    bool flagged = false;  ///< incompatible at or above min_confidence
    double confidence = 0;
  };

  ValueInterner interner;            ///< per-column distinct-value index
  std::vector<uint32_t> sampled;     ///< interner entry indices actually scored
  std::vector<ClassRun> runs;        ///< tokenizer run scratch
  std::vector<uint64_t> keys;        ///< row-major, one row per sampled value
  std::vector<uint32_t> class_of;    ///< key-row class of each sampled value
  std::vector<uint32_t> class_rep;   ///< first sampled value of each class
  std::vector<uint64_t> class_sig;   ///< key-row signature of each class
  /// Lower-triangular class × class table, sized by the classes seen:
  /// slot (a, b) with a <= b sits at b(b+1)/2 + a.
  std::vector<ClassVerdict> verdicts;
  std::vector<CellAgg> agg;          ///< per sampled value
};

/// Memoization hook for pair verdicts, keyed by the order-independent hash
/// of the two values' per-language key rows. Detector never caches on its
/// own; a caller that scans many columns against one model (serve/) plugs an
/// implementation in. Implementations shared across threads must be
/// thread-safe (see serve/pair_cache.h).
class PairVerdictCache {
 public:
  virtual ~PairVerdictCache() = default;
  /// Returns true and fills `*out` on a hit.
  virtual bool Lookup(uint64_t pair_key, PairVerdict* out) = 0;
  virtual void Insert(uint64_t pair_key, const PairVerdict& verdict) = 0;
};

/// Per-language detail of one pair judgment — the full evidence trail
/// behind a PairVerdict, for UIs and debugging ("why was this flagged?").
struct LanguageExplanation {
  int lang_id = -1;
  std::string language_name;
  std::string pattern_u;  ///< canonical rendering of u's pattern
  std::string pattern_v;
  uint64_t count_u = 0;       ///< c(L(u)) in the training corpus
  uint64_t count_v = 0;
  uint64_t co_count = 0;      ///< c(L(u), L(v))
  double npmi = 0.0;          ///< s_k(u, v)
  double threshold = 0.0;     ///< θ_k
  bool fired = false;         ///< s_k <= θ_k
  double confidence = 0.0;    ///< P_k(s_k)
};

struct PairExplanation {
  PairVerdict verdict;
  std::vector<LanguageExplanation> languages;

  /// Multi-line human-readable rendering.
  std::string ToString() const;
};

class Detector {
 public:
  /// \param model must outlive the detector.
  explicit Detector(const Model* model);
  Detector(const Model* model, DetectorOptions options);

  /// \brief Scores one value pair under the configured aggregation.
  PairVerdict ScorePair(std::string_view v1, std::string_view v2) const;

  /// \brief ScorePair plus the per-language evidence behind the verdict.
  PairExplanation ExplainPair(std::string_view v1, std::string_view v2) const;

  /// \brief Executes one detection request (the unified API entry point).
  /// `scratch` may be null (an internal temporary is used); `cache` (may be
  /// null) memoizes verdicts across columns. Thread-safe when each thread
  /// uses its own scratch and the cache implementation is thread-safe.
  /// Records per-column metrics (plus per-tag metrics for a non-empty
  /// effective tag and per-tenant metrics for a non-empty context.tenant)
  /// into the registry given at construction. Cancellation precedence: an
  /// active request token wins; else context.deadline_ms (mapped onto a
  /// CancelSource here); else `fallback_cancel` (how the engine threads a
  /// batch-wide default deadline through without copying requests; the
  /// default is the inert token).
  DetectReport Detect(const DetectRequest& request, ColumnScratch* scratch = nullptr,
                      PairVerdictCache* cache = nullptr,
                      const CancelToken& fallback_cancel = {}) const;

  const Model& model() const { return *model_; }
  const DetectorOptions& options() const { return options_; }

  /// \brief Order-independent cache key of two per-language key rows, as
  /// used with PairVerdictCache (exposed for cache tests).
  static uint64_t PairCacheKey(const uint64_t* k1, const uint64_t* k2, size_t n);

 private:
  /// Hot counters/histograms, resolved once at construction (registration
  /// takes a lock; recording is relaxed-atomic only).
  struct Metrics {
    Counter* columns = nullptr;
    /// Key-row class pairs that ran NPMI scoring (full or degraded). With
    /// pairs_cache_hits it partitions the class pairs a scan reached, and
    /// so the cache lookups when a cache is plugged in.
    Counter* pairs_scored = nullptr;
    Counter* pairs_cache_hits = nullptr;  ///< class pairs served by the verdict cache
    Counter* rare_fallbacks = nullptr;    ///< class-pair-language scores punted on rarity
    Counter* columns_degraded = nullptr;  ///< budget-exceeded fallback scans
    Counter* columns_cancelled = nullptr; ///< deadline/cancel partial scans
    Histogram* column_latency_us = nullptr;
    Histogram* key_stage_us = nullptr;    ///< tokenize + per-language keying
    Histogram* score_stage_us = nullptr;  ///< stats lookup + NPMI + cache probes
    Counter* dedup_values_skipped = nullptr;  ///< duplicate rows folded away
    Counter* dedup_pairs_skipped = nullptr;   ///< pairs a non-deduped scorer would score
    Histogram* dedup_distinct_ratio = nullptr;  ///< distinct/total per column, percent
  };
  struct TagMetrics {
    Counter* columns = nullptr;
    Histogram* column_latency_us = nullptr;
  };

  /// Per-language keys of one value (allocating convenience for the
  /// two-value entry points).
  std::vector<uint64_t> KeysOf(std::string_view value) const;
  /// Allocation-free key derivation into `out[0 .. |languages|)`, using
  /// `runs` as tokenizer scratch.
  void KeysInto(std::string_view value, std::vector<ClassRun>* runs,
                uint64_t* out) const;
  /// \param rare_fallbacks when non-null, incremented by the number of
  /// languages whose score was punted for lack of pattern support.
  PairVerdict ScoreKeys(const uint64_t* k1, const uint64_t* k2,
                        uint64_t* rare_fallbacks = nullptr) const;
  /// Single-language degraded verdict over the fallback language (the
  /// kBestSingle shape pinned to degrade_lang_).
  PairVerdict ScoreKeysDegraded(const uint64_t* k1, const uint64_t* k2) const;
  /// The scan core behind Detect. Scores each key-row class pair once and
  /// fans its verdict out to the value pairs of those classes in i < j
  /// order, so findings and cell tallies come out as a per-pair scan would
  /// build them. Polls
  /// `cancel` between pair rows and switches to the degraded fallback once
  /// column_budget_us is spent; `*status` reports how the scan ended.
  ColumnReport Scan(const std::vector<std::string>& values, ColumnScratch* scratch,
                    PairVerdictCache* cache, const CancelToken& cancel,
                    ColumnStatus* status) const;
  /// Lazily-registered metric handles under `prefix` ("detect.tag.<tag>." or
  /// "detect.tenant.<tenant>." — labels are open-ended).
  const TagMetrics& MetricsForPrefix(const std::string& prefix) const;

  const Model* model_;
  DetectorOptions options_;
  /// Language index used by the degraded fallback: the crude G when the
  /// model selected it, else index 0 (highest training coverage).
  size_t degrade_lang_ = 0;
  /// Shared-tokenization kernel over the model's selected languages: every
  /// scored value is scanned once, not once per language.
  MultiGeneralizer multi_keys_;
  MetricsRegistry* registry_;
  Metrics metrics_;
  /// Lazily resolved per-tag/per-tenant metric handles, keyed by full
  /// metric-name prefix (labels are open-ended).
  mutable std::mutex tag_mu_;
  mutable std::unordered_map<std::string, TagMetrics> tag_metrics_;
};

/// The sequential executor of the unified API: one column at a time on the
/// calling thread, reusing a single scratch across requests, with an
/// optional caller-owned verdict cache. NOT thread-safe (the scratch is
/// shared across calls) — that is the point: zero synchronization for
/// embedded single-threaded callers. For concurrency use DetectionEngine.
///
/// The executor scans with one caller-owned Detector, pinned to one model.
/// Serving from a hot-reloading ModelProvider goes through DetectionEngine,
/// which pins the provider's current snapshot per batch.
class SequentialExecutor : public DetectionExecutor {
 public:
  /// \param detector not owned; must outlive the executor.
  /// \param cache optional, not owned; may be null.
  explicit SequentialExecutor(const Detector* detector,
                              PairVerdictCache* cache = nullptr)
      : detector_(detector), cache_(cache) {}

  using DetectionExecutor::Detect;
  void Detect(const std::vector<DetectRequest>& batch, ReportSink& sink) override;
  /// Single-request convenience: scans `request` on the calling thread.
  DetectReport DetectOne(const DetectRequest& request);

 private:
  const Detector* detector_;
  PairVerdictCache* cache_;
  ColumnScratch scratch_;
};

}  // namespace autodetect
