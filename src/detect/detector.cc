#include "detect/detector.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"
#include "stats/npmi.h"
#include "text/pattern.h"

namespace autodetect {

std::string_view ColumnStatusName(ColumnStatus status) {
  switch (status) {
    case ColumnStatus::kOk:
      return "ok";
    case ColumnStatus::kDegraded:
      return "degraded";
    case ColumnStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case ColumnStatus::kCancelled:
      return "cancelled";
    case ColumnStatus::kShed:
      return "shed";
  }
  return "?";
}

std::string_view AggregationName(Aggregation a) {
  switch (a) {
    case Aggregation::kMaxConfidence:
      return "Auto-Detect";
    case Aggregation::kAvgNpmi:
      return "AvgNPMI";
    case Aggregation::kMinNpmi:
      return "MinNPMI";
    case Aggregation::kMajorityVote:
      return "MV";
    case Aggregation::kWeightedMajorityVote:
      return "WMV";
    case Aggregation::kBestSingle:
      return "BestOne";
  }
  return "?";
}

std::string PairExplanation::ToString() const {
  std::string out = StrFormat("verdict: %s (confidence %.3f, min NPMI %+.3f)\n",
                              verdict.incompatible ? "INCOMPATIBLE" : "compatible",
                              verdict.confidence, verdict.min_npmi);
  for (const auto& e : languages) {
    out += StrFormat(
        "  %-26s %-22s | %-22s c=%llu/%llu co=%llu npmi %+5.2f theta %+5.2f%s\n",
        e.language_name.c_str(), e.pattern_u.c_str(), e.pattern_v.c_str(),
        static_cast<unsigned long long>(e.count_u),
        static_cast<unsigned long long>(e.count_v),
        static_cast<unsigned long long>(e.co_count), e.npmi, e.threshold,
        e.fired ? "  <-- fires" : "");
  }
  return out;
}

namespace {

MultiGeneralizer KernelForModel(const Model* model) {
  AD_CHECK(model != nullptr);
  AD_CHECK(!model->languages.empty()) << "model has no languages";
  std::vector<int> ids;
  ids.reserve(model->languages.size());
  for (const auto& l : model->languages) ids.push_back(l.lang_id);
  return MultiGeneralizer::ForIds(ids);
}

}  // namespace

Detector::Detector(const Model* model) : Detector(model, DetectorOptions()) {}

Detector::Detector(const Model* model, DetectorOptions options)
    : model_(model),
      options_(options),
      multi_keys_(KernelForModel(model)),
      registry_(OrDefaultRegistry(options.metrics)) {
  metrics_.columns = registry_->GetCounter("detect.columns_total");
  metrics_.pairs_scored = registry_->GetCounter("detect.pairs_scored_total");
  metrics_.pairs_cache_hits = registry_->GetCounter("detect.pairs_cache_hits_total");
  metrics_.rare_fallbacks = registry_->GetCounter("detect.rare_fallbacks_total");
  metrics_.columns_degraded = registry_->GetCounter("detect.columns_degraded_total");
  metrics_.columns_cancelled = registry_->GetCounter("detect.columns_cancelled_total");
  metrics_.column_latency_us = registry_->GetHistogram("detect.column_latency_us");
  metrics_.key_stage_us = registry_->GetHistogram("detect.stage.key_us");
  metrics_.score_stage_us = registry_->GetHistogram("detect.stage.score_us");
  metrics_.dedup_values_skipped =
      registry_->GetCounter("detect.dedup.values_skipped_total");
  metrics_.dedup_pairs_skipped =
      registry_->GetCounter("detect.dedup.pairs_skipped_total");
  metrics_.dedup_distinct_ratio =
      registry_->GetHistogram("detect.dedup.distinct_ratio_pct");
  // Which tokenizer tier this process dispatched (SimdTier numeric value) —
  // lets production dumps confirm the SIMD path is actually live.
  registry_->GetGauge("text.simd.isa")
      ->Set(static_cast<double>(static_cast<uint8_t>(ActiveSimdTier())));
  // Degraded fallback language: prefer the crude single-language G (paper
  // Sec. 3.1) when the model selected it, else the highest-coverage
  // language (index 0 — the languages are coverage-ordered).
  const int crude_id = LanguageSpace::IdOf(LanguageSpace::CrudeG());
  for (size_t i = 0; i < model_->languages.size(); ++i) {
    if (model_->languages[i].lang_id == crude_id) {
      degrade_lang_ = i;
      break;
    }
  }
}

const Detector::TagMetrics& Detector::MetricsForPrefix(
    const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(tag_mu_);
  auto it = tag_metrics_.find(prefix);
  if (it == tag_metrics_.end()) {
    TagMetrics m;
    m.columns = registry_->GetCounter(prefix + "columns_total");
    m.column_latency_us = registry_->GetHistogram(prefix + "column_latency_us");
    it = tag_metrics_.emplace(prefix, m).first;
  }
  return it->second;
}

std::vector<uint64_t> Detector::KeysOf(std::string_view value) const {
  std::vector<uint64_t> keys(model_->languages.size());
  std::vector<ClassRun> runs;
  KeysInto(value, &runs, keys.data());
  return keys;
}

void Detector::KeysInto(std::string_view value, std::vector<ClassRun>* runs,
                        uint64_t* out) const {
  uint8_t mask = TokenizeRuns(value, multi_keys_.options(), runs);
  multi_keys_.KeysFor(RunSpan(*runs), mask, out);
}

namespace {

/// FNV over the little-endian bytes of one per-language key row.
uint64_t RowSignature(const uint64_t* keys, size_t n) {
  Fnv1aHasher hasher;
  for (size_t i = 0; i < n; ++i) {
    uint64_t k = keys[i];
    for (int b = 0; b < 64; b += 8) hasher.Byte(static_cast<unsigned char>(k >> b));
  }
  return hasher.h;
}

}  // namespace

uint64_t Detector::PairCacheKey(const uint64_t* k1, const uint64_t* k2, size_t n) {
  return CombineUnordered(RowSignature(k1, n), RowSignature(k2, n));
}

PairVerdict Detector::ScoreKeys(const uint64_t* k1, const uint64_t* k2,
                                uint64_t* rare_fallbacks) const {
  const auto& langs = model_->languages;
  const size_t n = langs.size();
  PairVerdict verdict;
  if (n == 0) return verdict;  // empty model: neutral verdict

  // Per-language scores.
  double sum_s = 0, min_s = 1.0;
  size_t votes = 0;
  double mass_in = 0, mass_out = 0;
  double sum_theta = 0;
  double best_conf = 0;
  int best_lang = -1;
  bool any_fired = false;

  for (size_t i = 0; i < n; ++i) {
    const ModelLanguage& l = langs[i];
    NpmiScorer scorer(&l.stats, model_->smoothing_factor);
    NpmiScorer::ScoreDetail detail;
    double s = scorer.Score(k1[i], k2[i], &detail);
    if (detail.rare_fallback && rare_fallbacks != nullptr) ++*rare_fallbacks;
    sum_s += s;
    min_s = std::min(min_s, s);
    sum_theta += l.threshold;
    bool fired = s <= l.threshold;
    if (fired) {
      ++votes;
      mass_in += l.threshold - s;
      any_fired = true;
    } else {
      mass_out += s - l.threshold;
    }
    double conf = l.curve.PrecisionAt(s);
    if (fired && (best_lang == -1 || conf > best_conf)) {
      best_conf = conf;
      best_lang = l.lang_id;
    }
    if (options_.aggregation == Aggregation::kBestSingle) break;  // only first
  }

  verdict.min_npmi = min_s;
  verdict.best_language = best_lang;

  const double avg_theta = sum_theta / static_cast<double>(n);
  auto npmi_to_conf = [](double s) { return (1.0 - s) / 2.0; };

  switch (options_.aggregation) {
    case Aggregation::kMaxConfidence: {
      verdict.incompatible = any_fired;
      // Eq. 11: Q = max_k P_k(s_k) — but only languages that actually fired
      // carry evidence of incompatibility.
      verdict.confidence = any_fired ? best_conf : 0.0;
      break;
    }
    case Aggregation::kAvgNpmi: {
      double avg = sum_s / static_cast<double>(n);
      verdict.incompatible = avg <= avg_theta;
      verdict.confidence = npmi_to_conf(avg);
      break;
    }
    case Aggregation::kMinNpmi: {
      verdict.incompatible = min_s <= avg_theta;
      verdict.confidence = npmi_to_conf(min_s);
      break;
    }
    case Aggregation::kMajorityVote: {
      verdict.incompatible = 2 * votes > n;
      verdict.confidence = static_cast<double>(votes) / static_cast<double>(n);
      break;
    }
    case Aggregation::kWeightedMajorityVote: {
      verdict.incompatible = mass_in > mass_out;
      verdict.confidence = mass_in / (mass_in + mass_out + 1e-9);
      break;
    }
    case Aggregation::kBestSingle: {
      const ModelLanguage& l = langs[0];
      NpmiScorer scorer(&l.stats, model_->smoothing_factor);
      double s = scorer.Score(k1[0], k2[0]);
      verdict.incompatible = s <= l.threshold;
      verdict.confidence = verdict.incompatible ? l.curve.PrecisionAt(s) : 0.0;
      verdict.best_language = verdict.incompatible ? l.lang_id : -1;
      verdict.min_npmi = s;
      break;
    }
  }
  return verdict;
}

PairVerdict Detector::ScoreKeysDegraded(const uint64_t* k1, const uint64_t* k2) const {
  const ModelLanguage& l = model_->languages[degrade_lang_];
  NpmiScorer scorer(&l.stats, model_->smoothing_factor);
  double s = scorer.Score(k1[degrade_lang_], k2[degrade_lang_]);
  PairVerdict verdict;
  verdict.incompatible = s <= l.threshold;
  verdict.confidence = verdict.incompatible ? l.curve.PrecisionAt(s) : 0.0;
  verdict.best_language = verdict.incompatible ? l.lang_id : -1;
  verdict.min_npmi = s;
  return verdict;
}

PairVerdict Detector::ScorePair(std::string_view v1, std::string_view v2) const {
  return ScoreKeys(KeysOf(v1).data(), KeysOf(v2).data(), nullptr);
}

PairExplanation Detector::ExplainPair(std::string_view v1, std::string_view v2) const {
  PairExplanation out;
  std::vector<uint64_t> k1 = KeysOf(v1), k2 = KeysOf(v2);
  out.verdict = ScoreKeys(k1.data(), k2.data());
  out.languages.reserve(model_->languages.size());
  for (size_t i = 0; i < model_->languages.size(); ++i) {
    const ModelLanguage& l = model_->languages[i];
    NpmiScorer scorer(&l.stats, model_->smoothing_factor);
    LanguageExplanation e;
    e.lang_id = l.lang_id;
    e.language_name = l.language().Name();
    e.pattern_u = GeneralizeToString(v1, l.language());
    e.pattern_v = GeneralizeToString(v2, l.language());
    e.count_u = l.stats.Count(k1[i]);
    e.count_v = l.stats.Count(k2[i]);
    e.co_count = l.stats.CoCount(k1[i], k2[i]);
    e.npmi = scorer.Score(k1[i], k2[i]);
    e.threshold = l.threshold;
    e.fired = e.npmi <= l.threshold;
    e.confidence = l.curve.PrecisionAt(e.npmi);
    out.languages.push_back(std::move(e));
  }
  return out;
}

DetectReport Detector::Detect(const DetectRequest& request, ColumnScratch* scratch,
                              PairVerdictCache* cache,
                              const CancelToken& fallback_cancel) const {
  DetectReport report;
  report.name = request.name;
  report.tag = request.context.tag;
  // Cancellation precedence: a request-level token always wins; then the
  // request's own deadline budget (context.deadline_ms, mapped here onto the
  // CancelSource machinery — the token keeps the deadline state alive); last
  // the executor fallback (the engine's batch default deadline, inert unless
  // default_deadline_ms is set).
  CancelToken cancel;
  if (request.cancel.active()) {
    cancel = request.cancel;
  } else if (request.context.deadline_ms > 0) {
    cancel = CancelSource::WithDeadline(
                 std::chrono::milliseconds(request.context.deadline_ms))
                 .token();
  } else {
    cancel = fallback_cancel;
  }
  // latency_us is report payload (not gated instrumentation): one clock read
  // pair per column, always on.
  const auto start = std::chrono::steady_clock::now();
  ColumnStatus status = ColumnStatus::kOk;
  if (scratch != nullptr) {
    report.column = Scan(request.values, scratch, cache, cancel, &status);
  } else {
    ColumnScratch local;
    report.column = Scan(request.values, &local, cache, cancel, &status);
  }
  report.status = status;
  if (status == ColumnStatus::kDegraded) {
    metrics_.columns_degraded->Add(1);
  } else if (status == ColumnStatus::kDeadlineExceeded ||
             status == ColumnStatus::kCancelled) {
    metrics_.columns_cancelled->Add(1);
  }
  report.latency_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (!report.tag.empty()) {
    const TagMetrics& tag = MetricsForPrefix("detect.tag." + report.tag + ".");
    tag.columns->Add(1);
    tag.column_latency_us->Record(report.latency_us);
  }
  if (!request.context.tenant.empty()) {
    const TagMetrics& tenant =
        MetricsForPrefix("detect.tenant." + request.context.tenant + ".");
    tenant.columns->Add(1);
    tenant.column_latency_us->Record(report.latency_us);
  }
  return report;
}

namespace {

/// The status a tripped token maps to.
ColumnStatus CancelStatus(const CancelToken& cancel) {
  return cancel.ExpiredDeadline() ? ColumnStatus::kDeadlineExceeded
                                  : ColumnStatus::kCancelled;
}

}  // namespace

ColumnReport Detector::Scan(const std::vector<std::string>& values,
                            ColumnScratch* scratch, PairVerdictCache* cache,
                            const CancelToken& cancel, ColumnStatus* status) const {
  metrics_.columns->Add(1);
  StageTimer column_timer(metrics_.column_latency_us);
  *status = ColumnStatus::kOk;

  ColumnReport report;
  // A token that tripped before any work: return an empty partial report
  // without paying the distinct-value pass.
  if (cancel.active() && cancel.Cancelled()) {
    *status = CancelStatus(cancel);
    return report;
  }
  // Budget clock: one read at scan start, one per pair-scoring row, and only
  // when a budget was configured — the default path reads no clock here.
  const bool budgeted = options_.column_budget_us > 0;
  const auto scan_start =
      budgeted ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point();

  // Reduce the column to the distinct values to score, each with its
  // first-occurrence row: the interner indexes the column once through the
  // FlatMap64 (no string copies, no per-row node allocations).
  scratch->interner.Intern(values);
  scratch->interner.SampleIndices(options_.max_distinct_values, &scratch->sampled);
  std::vector<std::string_view> distinct;
  std::vector<uint32_t> first_rows;
  distinct.reserve(scratch->sampled.size());
  first_rows.reserve(scratch->sampled.size());
  for (uint32_t idx : scratch->sampled) {
    const ValueInterner::Entry& e = scratch->interner.entry(idx);
    distinct.push_back(e.value);
    first_rows.push_back(e.first_row);
  }
  const uint64_t nv = scratch->interner.num_values();
  const uint64_t nd = scratch->interner.num_distinct();
  const uint64_t ds = distinct.size();
  metrics_.dedup_values_skipped->Add(nv - nd);
  // Pairs a non-deduping scorer would have visited minus pairs this scan
  // actually considers.
  metrics_.dedup_pairs_skipped->Add(nv * (nv - 1) / 2 - ds * (ds - 1) / 2);
  metrics_.dedup_distinct_ratio->Record(
      nv == 0 ? 100.0 : 100.0 * static_cast<double>(nd) / static_cast<double>(nv));
  report.distinct_values = distinct.size();
  const size_t d = distinct.size();
  if (d < 2) return report;

  // Pre-generalize all distinct values under every model language into the
  // scratch's flat key matrix (row i = value i's per-language keys).
  const size_t n = model_->languages.size();
  {
    StageTimer key_timer(metrics_.key_stage_us);
    scratch->keys.resize(d * n);
    uint64_t* keys = scratch->keys.data();
    for (size_t i = 0; i < d; ++i) {
      KeysInto(distinct[i], &scratch->runs, keys + i * n);
    }

    // With a cache, each value gets a signature over its key row; a pair is
    // looked up by the order-independent combination of the two signatures.
    if (cache != nullptr) {
      scratch->signatures.resize(d);
      for (size_t i = 0; i < d; ++i) {
        scratch->signatures[i] = RowSignature(keys + i * n, n);
      }
    }
  }
  uint64_t* keys = scratch->keys.data();

  struct CellAgg {
    uint32_t degree = 0;
    double best_conf = 0;
  };
  std::vector<CellAgg> agg(d);

  // Per-column aggregates, flushed into the registry in one Add each — the
  // pair loop is the hot path and must not touch shared cache lines per
  // pair.
  uint64_t pairs_scored = 0, cache_hits = 0, rare_fallbacks = 0;
  bool degraded = false, tripped = false;
  {
    StageTimer score_timer(metrics_.score_stage_us);
    for (size_t i = 0; i < d; ++i) {
      // Safe point, once per row (≤ max_distinct_values polls per column):
      // a tripped token keeps the findings accumulated so far; a spent
      // budget downgrades the remaining rows to the single-language
      // fallback instead of aborting them.
      if (cancel.active() && cancel.Cancelled()) {
        tripped = true;
        break;
      }
      if (budgeted && !degraded &&
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - scan_start)
                  .count() >= static_cast<int64_t>(options_.column_budget_us)) {
        degraded = true;
      }
      for (size_t j = i + 1; j < d; ++j) {
        PairVerdict v;
        if (degraded) {
          // Degraded verdicts come from a weaker ensemble: bypass the cache
          // entirely so they can never be served to a full-fidelity scan.
          ++pairs_scored;
          v = ScoreKeysDegraded(keys + i * n, keys + j * n);
        } else if (cache != nullptr) {
          uint64_t pair_key =
              CombineUnordered(scratch->signatures[i], scratch->signatures[j]);
          if (cache->Lookup(pair_key, &v)) {
            ++cache_hits;
          } else {
            ++pairs_scored;
            v = ScoreKeys(keys + i * n, keys + j * n, &rare_fallbacks);
            cache->Insert(pair_key, v);
          }
        } else {
          ++pairs_scored;
          v = ScoreKeys(keys + i * n, keys + j * n, &rare_fallbacks);
        }
        if (!v.incompatible || v.confidence < options_.min_confidence) continue;
        report.pairs.push_back(PairFinding{std::string(distinct[i]),
                                           std::string(distinct[j]), v.confidence});
        ++agg[i].degree;
        ++agg[j].degree;
        agg[i].best_conf = std::max(agg[i].best_conf, v.confidence);
        agg[j].best_conf = std::max(agg[j].best_conf, v.confidence);
      }
    }
  }
  if (tripped) {
    *status = CancelStatus(cancel);
  } else if (degraded) {
    *status = ColumnStatus::kDegraded;
  }
  metrics_.pairs_scored->Add(pairs_scored);
  metrics_.pairs_cache_hits->Add(cache_hits);
  metrics_.rare_fallbacks->Add(rare_fallbacks);

  std::sort(report.pairs.begin(), report.pairs.end(),
            [](const PairFinding& a, const PairFinding& b) {
              return a.confidence > b.confidence;
            });
  if (report.pairs.size() > options_.max_pair_findings) {
    report.pairs.resize(options_.max_pair_findings);
  }

  // Cell attribution: a cell is the likely error when it clashes with at
  // least half of the other distinct values. With exactly two distinct
  // values there is no majority — fall back to global pattern frequency
  // (the rarer pattern corpus-wide is the suspect).
  auto corpus_frequency = [&](size_t idx) {
    uint64_t total = 0;
    for (size_t li = 0; li < n; ++li) {
      total += model_->languages[li].stats.Count(keys[idx * n + li]);
    }
    return total;
  };

  for (size_t i = 0; i < d; ++i) {
    if (agg[i].degree == 0) continue;
    bool is_suspect;
    if (d == 2) {
      size_t other = 1 - i;
      uint64_t mine = corpus_frequency(i);
      uint64_t theirs = corpus_frequency(other);
      is_suspect = mine < theirs || (mine == theirs && i == 1);
    } else {
      is_suspect = 2 * agg[i].degree >= (d - 1);
    }
    if (!is_suspect) continue;
    CellFinding f;
    f.row = first_rows[i];
    f.value = std::string(distinct[i]);
    f.confidence = agg[i].best_conf;
    f.incompatible_with = agg[i].degree;
    report.cells.push_back(std::move(f));
  }
  std::sort(report.cells.begin(), report.cells.end(),
            [](const CellFinding& a, const CellFinding& b) {
              if (a.confidence != b.confidence) return a.confidence > b.confidence;
              return a.incompatible_with > b.incompatible_with;
            });
  return report;
}

const Detector* SequentialExecutor::CurrentDetector() {
  if (provider_ == nullptr) return detector_;
  const uint64_t generation = provider_->Generation();
  if (!snapshot_detector_.has_value() || generation != snapshot_generation_) {
    snapshot_model_ = provider_->Snapshot();
    AD_CHECK(snapshot_model_ != nullptr);  // provider must be loaded first
    snapshot_detector_.emplace(snapshot_model_.get(), options_);
    snapshot_generation_ = generation;
  }
  return &*snapshot_detector_;
}

void SequentialExecutor::Detect(const std::vector<DetectRequest>& batch,
                                ReportSink& sink) {
  // One snapshot per batch: a provider swap mid-batch must not split the
  // batch across models. Reports stream to the sink in request order (the
  // sequential executor's delivery order is its scan order).
  const Detector* detector = CurrentDetector();
  for (size_t i = 0; i < batch.size(); ++i) {
    sink.OnReport(i, detector->Detect(batch[i], &scratch_, cache_));
  }
}

DetectReport SequentialExecutor::DetectOne(const DetectRequest& request) {
  return CurrentDetector()->Detect(request, &scratch_, cache_);
}

}  // namespace autodetect
