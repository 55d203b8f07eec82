#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <unordered_map>

#include "bench_e2e.h"
#include "common/string_util.h"
#include "detect/detector.h"
#include "net/http.h"
#include "net/json.h"
#include "net/tenant.h"
#include "serve/detection_engine.h"
#include "serve/lifecycle.h"
#include "serve/pair_cache.h"
#include "stats/npmi.h"
#include "stats/value_interner.h"
#include "text/run_tokenizer.h"

namespace autodetect::bench {

namespace {

/// Fewest (untraced, traced) pairs per request; short chains get more, up to
/// kMaxReps, so every request is judged on about kPairBudgetUs of work.
constexpr int kReps = 7;
constexpr int kMaxReps = 63;
constexpr double kPairBudgetUs = 16000;
/// The layer-sum gate: per request, the traced layers' self-times must sum
/// to within this share of the same chain timed without per-layer clocks.
constexpr double kGateShare = 0.10;
/// Columns replayed per run (fewer requests for wide requests).
constexpr size_t kReplayColumns = 512;
/// Repetitions of the detector-internals breakdown and the cached passes.
constexpr int kBreakdownReps = 5;

enum Layer : uint8_t {
  kRequest,      ///< root: one request's whole in-process chain
  kDecode,       ///< PeekFrame + DecodeRequestPayload | ParseHttpRequest + JSON
  kBudget,       ///< MemoryBudget::Admit + Charge::Extend, and the release
  kAdmission,    ///< TenantTable::ControllerFor + Admit, and Release
  kMaterialize,  ///< ToDetectBatch
  kDetect,       ///< Detector::Detect, uncached, one column
  kEncode,       ///< report frames + batch-done | JSON body + HTTP response
  kClientDecode, ///< the client's decode of that response
  kColumn,       ///< root of one column's breakdown replay
  kIntern,       ///< ValueInterner::Intern + SampleIndices
  kKey,          ///< TokenizeRuns + MultiGeneralizer::KeysFor per sampled value
  kScore,        ///< NpmiScorer::Score over every pair and language
  kNumLayers,
};
const char* const kLayerNames[kNumLayers] = {
    "request", "net.decode", "serve.budget", "serve.admission", "net.materialize",
    "detect.column", "net.encode", "client.decode", "column", "stats.intern",
    "text.key", "score.pairs"};

/// Spans {request id, name, start, end, parent} in a preallocated vector.
/// `rep` 0 marks untimed context (the breakdown's first pass is rep 1).
class SpanLog {
 public:
  struct Span {
    uint32_t request;
    uint16_t rep;
    Layer layer;
    int32_t parent;
    Clock::time_point start, end;
  };

  SpanLog() : origin_(Clock::now()) {}
  void Reserve(size_t spans) { spans_.reserve(spans); }

  int32_t Begin(uint32_t request, uint16_t rep, Layer layer, int32_t parent) {
    spans_.push_back(Span{request, rep, layer, parent, Clock::now(), {}});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) { spans_[static_cast<size_t>(index)].end = Clock::now(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the first repetition of every request as JSON lines (all of
  /// them would be tens of MB on short-chain workloads).
  Status Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return Status::IOError("cannot write " + path);
    for (const Span& s : spans_) {
      if (s.rep != 1) continue;
      std::fprintf(f,
                   "{\"request\": %u, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d}\n",
                   s.request, kLayerNames[s.layer],
                   static_cast<long long>((s.start - origin_).count()),
                   static_cast<long long>((s.end - origin_).count()), s.parent);
    }
    return std::fclose(f) == 0 ? Status::OK() : Status::IOError("cannot write " + path);
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// A span when kTraced, nothing at all otherwise: the traced and untraced
/// chains are one function body.
template <bool kTraced>
class Scope {
 public:
  Scope(SpanLog* log, uint32_t request, uint16_t rep, Layer layer, int32_t parent)
      : log_(log) {
    if constexpr (kTraced) id_ = log->Begin(request, rep, layer, parent);
  }
  ~Scope() {
    if constexpr (kTraced) log_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_ = -1;
};

/// What one request's chain needs: the server's layers, in-process.
struct Chain {
  const Detector* detector;
  ColumnScratch* scratch;
  MemoryBudget* budget;
  TenantTable* tenants;
  bool http;
};

/// One request through every layer a server request crosses, in the
/// server's order, plus the client's decode of the response.
template <bool kTraced>
Status RunChain(const Chain& chain, const std::string& input, uint32_t request, uint16_t rep,
                SpanLog* log) {
  Scope<kTraced> root(log, request, rep, kRequest, -1);
  const int32_t parent = root.id();
  WireRequest wire;
  {
    Scope<kTraced> span(log, request, rep, kDecode, parent);
    if (chain.http) {
      AD_ASSIGN_OR_RETURN(std::optional<HttpRequest> http, ParseHttpRequest(input));
      if (!http.has_value()) return Status::Corruption("incomplete HTTP request");
      AD_ASSIGN_OR_RETURN(wire, ParseJsonDetectRequest(http->body));
    } else {
      AD_ASSIGN_OR_RETURN(std::optional<FrameView> frame, PeekFrame(input));
      if (!frame.has_value()) return Status::Corruption("incomplete frame");
      AD_ASSIGN_OR_RETURN(wire, DecodeRequestPayload(frame->payload));
    }
  }
  MemoryBudget::Charge charge;
  {
    Scope<kTraced> span(log, request, rep, kBudget, parent);
    AD_ASSIGN_OR_RETURN(charge, chain.budget->Admit(input.size()));
    if (!charge.Extend(WireRequestBytes(wire))) return Status::ResourceExhausted("budget");
  }
  AdmissionController* controller = nullptr;
  std::shared_ptr<AdmissionController::Ticket> ticket;
  {
    Scope<kTraced> span(log, request, rep, kAdmission, parent);
    controller = chain.tenants->ControllerFor(wire.tenant);
    if (controller != nullptr) ticket = controller->Admit(wire.columns.size());
  }
  std::vector<DetectRequest> batch;
  {
    Scope<kTraced> span(log, request, rep, kMaterialize, parent);
    batch = ToDetectBatch(wire);
  }
  std::vector<DetectReport> reports(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Scope<kTraced> span(log, request, rep, kDetect, parent);
    reports[i] = chain.detector->Detect(batch[i], chain.scratch);
  }
  std::string response;
  {
    Scope<kTraced> span(log, request, rep, kEncode, parent);
    if (chain.http) {
      std::string body = DetectResponseToJson(wire.request_id, reports);
      body.push_back('\n');
      response = BuildHttpResponse(200, "application/json", body, /*keep_alive=*/true);
    } else {
      for (size_t i = 0; i < reports.size(); ++i) {
        response += EncodeReportFrame(WireReport{wire.request_id, i, std::move(reports[i])});
      }
      response += EncodeBatchDoneFrame({wire.request_id, reports.size()});
    }
  }
  {
    Scope<kTraced> span(log, request, rep, kAdmission, parent);
    if (controller != nullptr && ticket != nullptr) controller->Release(ticket);
  }
  {
    Scope<kTraced> span(log, request, rep, kBudget, parent);
    charge.Release();
  }
  {
    Scope<kTraced> span(log, request, rep, kClientDecode, parent);
    if (chain.http) {
      const size_t head_end = response.find("\r\n\r\n");
      AD_ASSIGN_OR_RETURN(JsonValue parsed,
                          ParseJson(std::string_view(response).substr(head_end + 4)));
      if (!parsed.IsObject()) return Status::Corruption("response is not an object");
    } else {
      std::string_view rest = response;
      while (!rest.empty()) {
        AD_ASSIGN_OR_RETURN(std::optional<FrameView> frame, PeekFrame(rest));
        if (!frame.has_value()) return Status::Corruption("truncated response frame");
        if (frame->type == FrameType::kColumnReport) {
          AD_ASSIGN_OR_RETURN(WireReport decoded, DecodeReportPayload(frame->payload));
          (void)decoded;
        }
        rest.remove_prefix(frame->frame_len);
      }
    }
  }
  return Status::OK();
}

/// Sum of `layer`'s span durations among spans[from, to).
double LayerUs(const std::vector<SpanLog::Span>& spans, size_t from, size_t to, Layer layer) {
  double us = 0;
  for (size_t i = from; i < to; ++i) {
    if (spans[i].layer == layer) us += Us(spans[i].end - spans[i].start);
  }
  return us;
}

/// Per-request medians of one request's chain layers, per column or request.
struct ChainLayers {
  double decode = 0, budget = 0, admission = 0, materialize = 0, detect = 0, encode = 0,
         client = 0;
  double gate_err = 0;      ///< |median(layer sum / untraced chain) - 1|
  double overhead_pct = 0;  ///< median(traced chain / untraced chain) - 1, in %
};

/// Runs one request's chain in back-to-back (untraced, traced) pairs, in
/// alternating order. The gate and the overhead use the median of the pairs'
/// ratios: a pair shares the machine's momentary state (another tenant's load,
/// clock speed), which cancels in the ratio.
Status MeasureChain(const Chain& chain, const std::string& input, uint32_t id, size_t cols,
                    int reps, SpanLog* log, ChainLayers* out) {
  std::vector<double> layers_ratio, traced_ratio, per_layer[kNumLayers];
  auto measure_pair = [&](int k) -> Status {
    double plain_us = 0;
    auto run_plain = [&]() -> Status {
      const auto start = Clock::now();
      AD_RETURN_NOT_OK(RunChain<false>(chain, input, id, 0, log));
      plain_us = Us(Clock::now() - start);
      return Status::OK();
    };
    if (k % 2 == 0) AD_RETURN_NOT_OK(run_plain());
    const size_t from = log->spans().size();
    AD_RETURN_NOT_OK(RunChain<true>(chain, input, id, static_cast<uint16_t>(k + 1), log));
    const size_t to = log->spans().size();
    if (k % 2 == 1) AD_RETURN_NOT_OK(run_plain());
    const auto& spans = log->spans();
    double layers_us = 0;
    for (int layer = kDecode; layer <= kClientDecode; ++layer) {
      const double us = LayerUs(spans, from, to, static_cast<Layer>(layer));
      per_layer[layer].push_back(us);
      layers_us += us;
    }
    layers_ratio.push_back(layers_us / plain_us);
    traced_ratio.push_back(Us(spans[from].end - spans[from].start) / plain_us);
    return Status::OK();
  };
  int k = 0;
  for (; k < reps; ++k) AD_RETURN_NOT_OK(measure_pair(k));
  // A request whose median misses the gate gets twice as many pairs again
  // and is judged on all of them: a transient burst on the machine is diluted,
  // a real gap between the layers and the chain stays.
  if (std::fabs(Median(layers_ratio) - 1.0) > kGateShare) {
    for (; k < 3 * reps; ++k) AD_RETURN_NOT_OK(measure_pair(k));
  }
  const double c = static_cast<double>(cols);
  out->decode = Median(per_layer[kDecode]) / c;
  out->budget = Median(per_layer[kBudget]);
  out->admission = Median(per_layer[kAdmission]);
  out->materialize = Median(per_layer[kMaterialize]) / c;
  out->detect = Median(per_layer[kDetect]) / c;
  out->encode = Median(per_layer[kEncode]) / c;
  out->client = Median(per_layer[kClientDecode]) / c;
  out->gate_err = std::fabs(Median(layers_ratio) - 1.0);
  out->overhead_pct = 100.0 * (Median(traced_ratio) - 1.0);
  return Status::OK();
}

/// Work counts and breakdown times of one column (or a request's columns).
struct ColumnWork {
  double intern_us = 0, key_us = 0, score_us = 0;
  uint64_t values = 0, distinct = 0, sampled = 0, pairs = 0, class_pairs = 0;

  void Add(const ColumnWork& o) {
    intern_us += o.intern_us;
    key_us += o.key_us;
    score_us += o.score_us;
    values += o.values;
    distinct += o.distinct;
    sampled += o.sampled;
    pairs += o.pairs;
    class_pairs += o.class_pairs;
  }
};

/// The scan core of Detector::Scan for one column, staged so each layer is
/// timed on its own: intern, key, and the max-confidence pair loop. Appends
/// the pair-cache key of every pair to `pair_keys` when non-null.
ColumnWork ReplayColumn(const Model& model, const MultiGeneralizer& multi,
                        const std::vector<std::string>& values, ValueInterner* interner,
                        SpanLog* log, uint32_t request, uint16_t rep, double* checksum,
                        std::vector<uint64_t>* pair_keys) {
  ColumnWork work;
  const size_t n = model.languages.size();
  const Scope<true> root(log, request, rep, kColumn, -1);
  std::vector<uint32_t> sampled;
  {
    const Scope<true> span(log, request, rep, kIntern, root.id());
    interner->Intern(values);
    interner->SampleIndices(48, &sampled);
  }
  const size_t d = sampled.size();
  std::vector<uint64_t> keys(d * n);
  {
    const Scope<true> span(log, request, rep, kKey, root.id());
    std::vector<ClassRun> runs;
    for (size_t i = 0; i < d; ++i) {
      const uint8_t mask =
          TokenizeRuns(interner->entry(sampled[i]).value, multi.options(), &runs);
      multi.KeysFor(RunSpan(runs), mask, keys.data() + i * n);
    }
  }
  {
    const Scope<true> span(log, request, rep, kScore, root.id());
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = i + 1; j < d; ++j) {
        double best = 0;
        for (size_t l = 0; l < n; ++l) {
          const ModelLanguage& lang = model.languages[l];
          NpmiScorer scorer(&lang.stats, model.smoothing_factor);
          const double s = scorer.Score(keys[i * n + l], keys[j * n + l]);
          const double conf = lang.curve.PrecisionAt(s);
          if (s <= lang.threshold && conf > best) best = conf;
        }
        *checksum += best;
      }
    }
  }
  const auto& spans = log->spans();
  const size_t at = spans.size();
  work.intern_us = Us(spans[at - 3].end - spans[at - 3].start);
  work.key_us = Us(spans[at - 2].end - spans[at - 2].start);
  work.score_us = Us(spans[at - 1].end - spans[at - 1].start);
  work.values = interner->num_values();
  work.distinct = interner->num_distinct();
  work.sampled = d;
  work.pairs = d * (d - 1) / 2;
  // Key-row classes: a pair verdict is a function of the two rows, so a
  // class scorer needs one score per unordered class pair, plus one per
  // class that holds two or more values (its self-pair).
  std::unordered_map<uint64_t, uint32_t> classes;
  for (size_t i = 0; i < d; ++i) {
    uint64_t sig = 0;
    for (size_t l = 0; l < n; ++l) sig = sig * 0x9e3779b97f4a7c15ULL + keys[i * n + l];
    ++classes[sig];
  }
  const uint64_t c = classes.size();
  work.class_pairs = c * (c - 1) / 2;
  for (const auto& [sig, count] : classes) work.class_pairs += count >= 2 ? 1 : 0;
  if (pair_keys != nullptr) {
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = i + 1; j < d; ++j) {
        pair_keys->push_back(
            Detector::PairCacheKey(keys.data() + i * n, keys.data() + j * n, n));
      }
    }
  }
  return work;
}

}  // namespace

Status ReplayLayers(const std::string& model_path, const RequestPool& pool, bool http,
                    bool smoke, const std::string& spans_path, RunResult* result) {
  AD_ASSIGN_OR_RETURN(Model model, Model::Load(model_path));
  MetricsRegistry registry;  // keeps the replay out of the process registry
  DetectorOptions detector_options;
  detector_options.metrics = &registry;
  Detector detector(&model, detector_options);
  ColumnScratch scratch;
  // The server's budget and tenant table, as its flags configure them.
  MemoryBudgetOptions budget_options;
  budget_options.global_bytes = 512u << 20;
  budget_options.per_request_bytes = 32u << 20;
  budget_options.metrics = &registry;
  MemoryBudget budget(budget_options);
  TenantTable tenants(&registry);
  AD_RETURN_NOT_OK(tenants.Parse("*=1024:block"));
  const Chain chain{&detector, &scratch, &budget, &tenants, http};

  const size_t cols = pool.requests.front().columns.size();
  const size_t requests =
      std::min({pool.requests.size(), std::clamp<size_t>(kReplayColumns / cols, 32, 512),
                smoke ? size_t{8} : SIZE_MAX});
  const std::vector<std::string>& inputs = http ? pool.http : pool.frames;
  SpanLog log;

  // Warm pass (model pages, scratch, interner capacity), which also sizes
  // each request's number of pairs.
  std::vector<int> reps(requests);
  size_t expected_spans = 0;
  for (size_t r = 0; r < requests; ++r) {
    const auto start = Clock::now();
    AD_RETURN_NOT_OK(RunChain<false>(chain, inputs[r], 0, 0, &log));
    reps[r] = std::clamp(static_cast<int>(kPairBudgetUs / Us(Clock::now() - start)), kReps,
                         kMaxReps);
    expected_spans += static_cast<size_t>(reps[r]) * (10 + cols) + kBreakdownReps * 4 * cols;
  }
  log.Reserve(expected_spans);

  std::vector<ChainLayers> layers(requests);
  for (size_t r = 0; r < requests; ++r) {
    AD_RETURN_NOT_OK(MeasureChain(chain, inputs[r], static_cast<uint32_t>(r + 1), cols,
                                  reps[r], &log, &layers[r]));
  }
  auto over_requests = [&](double ChainLayers::*field) {
    std::vector<double> values;
    for (const ChainLayers& l : layers) values.push_back(l.*field);
    return values;
  };

  // Detector internals, column by column; per request the median of
  // kBreakdownReps passes. The first pass also collects the pair keys.
  MultiGeneralizer multi = MultiGeneralizer::ForIds([&] {
    std::vector<int> ids;
    for (const ModelLanguage& l : model.languages) ids.push_back(l.lang_id);
    return ids;
  }());
  ValueInterner interner;
  double checksum = 0;
  std::vector<double> intern, key, key_per_value, score_per_eval, pairs, class_pairs,
      distinct_ratio, other;
  std::vector<uint64_t> pair_keys;
  for (size_t r = 0; r < requests; ++r) {
    std::vector<double> intern_us, key_us, score_us;
    ColumnWork work;
    for (int k = 0; k < kBreakdownReps; ++k) {
      work = ColumnWork{};
      for (const WireColumn& column : pool.requests[r].columns) {
        work.Add(ReplayColumn(model, multi, column.values, &interner, &log,
                              static_cast<uint32_t>(r + 1), static_cast<uint16_t>(k + 1),
                              &checksum, k == 0 ? &pair_keys : nullptr));
      }
      intern_us.push_back(work.intern_us);
      key_us.push_back(work.key_us);
      score_us.push_back(work.score_us);
    }
    const double c = static_cast<double>(cols);
    const double evals = static_cast<double>(work.pairs * model.languages.size());
    intern.push_back(Median(intern_us) / c);
    key.push_back(Median(key_us) / c);
    key_per_value.push_back(1e3 * Median(key_us) /
                            static_cast<double>(std::max<uint64_t>(work.sampled, 1)));
    score_per_eval.push_back(evals == 0 ? 0.0 : 1e3 * Median(score_us) / evals);
    pairs.push_back(static_cast<double>(work.pairs) / c);
    class_pairs.push_back(static_cast<double>(work.class_pairs) / c);
    distinct_ratio.push_back(static_cast<double>(work.distinct) /
                             static_cast<double>(work.values));
    other.push_back(layers[r].detect -
                    (Median(intern_us) + Median(key_us) + Median(score_us)) / c);
  }
  {
    const std::vector<double> err = over_requests(&ChainLayers::gate_err);
    std::fprintf(stderr,
                 "replay: %zu requests; layer-sum error p50 %.2f%% p90 %.2f%% max %.2f%%; "
                 "score checksum %.6g\n",
                 requests, 100 * Quantile(err, 0.5), 100 * Quantile(err, 0.9),
                 100 * Quantile(err, 1.0), checksum);
  }

  // Warm pair cache: per-column latency with it, and the cost of a lookup.
  ShardedPairCache cache;
  std::vector<std::vector<DetectRequest>> batches;
  for (size_t r = 0; r < requests; ++r) batches.push_back(ToDetectBatch(pool.requests[r]));
  for (const auto& batch : batches) {
    for (const DetectRequest& req : batch) detector.Detect(req, &scratch, &cache);
  }
  std::vector<double> cached;
  for (const auto& batch : batches) {
    std::vector<double> us;
    for (int k = 0; k < kBreakdownReps; ++k) {
      const auto start = Clock::now();
      for (const DetectRequest& req : batch) detector.Detect(req, &scratch, &cache);
      us.push_back(Us(Clock::now() - start) / static_cast<double>(batch.size()));
    }
    cached.push_back(Median(us));
  }
  PairVerdict verdict;
  uint64_t hits = 0;
  auto start = Clock::now();
  for (uint64_t pair_key : pair_keys) hits += cache.Lookup(pair_key, &verdict) ? 1 : 0;
  const double lookup_ns =
      pair_keys.empty() ? 0.0
                        : 1e9 * Sec(Clock::now() - start) / static_cast<double>(pair_keys.size());
  if (hits != pair_keys.size()) {
    result->CheckFailed(StrFormat("warm cache missed %zu of %zu replayed pairs",
                                  pair_keys.size() - hits, pair_keys.size()));
  }

  // Engine scaling: the same batches through SequentialExecutor and through
  // a 2-worker DetectionEngine, each with its own warm cache; the median of
  // alternating passes.
  ShardedPairCache sequential_cache;
  SequentialExecutor sequential(&detector, &sequential_cache);
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.metrics = &registry;
  DetectionEngine engine(&model, engine_options);
  for (const auto& batch : batches) {
    sequential.Detect(batch);
    engine.Detect(batch);
  }
  std::vector<double> speedup;
  for (int k = 0; k < kBreakdownReps; ++k) {
    start = Clock::now();
    for (const auto& batch : batches) sequential.Detect(batch);
    const double sequential_s = Sec(Clock::now() - start);
    start = Clock::now();
    for (const auto& batch : batches) engine.Detect(batch);
    speedup.push_back(sequential_s / Sec(Clock::now() - start));
  }

  AD_RETURN_NOT_OK(log.Write(spans_path));
  const std::vector<double> gate_err = over_requests(&ChainLayers::gate_err);
  const double worst_gate = *std::max_element(gate_err.begin(), gate_err.end());
  if (worst_gate > kGateShare) {
    result->CheckFailed(StrFormat(
        "layer self-times of some request sum to %.1f%% off its untraced chain (gate %.0f%%)",
        100 * worst_gate, 100 * kGateShare));
  }

  result->Add("net.decode_us_per_col", "us", Median(over_requests(&ChainLayers::decode)));
  result->Add("net.materialize_us_per_col", "us",
              Median(over_requests(&ChainLayers::materialize)));
  result->Add("net.encode_us_per_col", "us", Median(over_requests(&ChainLayers::encode)));
  result->Add("serve.budget_admit_us_per_req", "us", Median(over_requests(&ChainLayers::budget)));
  result->Add("serve.admission_us_per_req", "us", Median(over_requests(&ChainLayers::admission)));
  result->Add("serve.engine_speedup_2w", "ratio", Median(speedup));
  result->Add("serve.cache_lookup_ns", "ns", lookup_ns);
  result->Add("stats.intern_us_per_col", "us", Median(intern));
  result->Add("stats.distinct_ratio", "ratio", Median(distinct_ratio));
  result->Add("text.key_us_per_col", "us", Median(key));
  result->Add("text.key_ns_per_value", "ns", Median(key_per_value));
  result->Add("score.npmi_ns_per_eval", "ns", Median(score_per_eval));
  result->Add("score.pairs_per_col", "count", Median(pairs));
  result->Add("score.class_pairs_per_col", "count", Median(class_pairs));
  result->Add("detect.column_us_uncached", "us", Median(over_requests(&ChainLayers::detect)));
  result->Add("detect.column_us_cached", "us", Median(cached));
  result->Add("detect.other_us_per_col", "us", Median(other));
  result->Add("client.decode_us_per_col", "us", Median(over_requests(&ChainLayers::client)));
  result->Add("trace_overhead_pct", "%", Median(over_requests(&ChainLayers::overhead_pct)));
  result->Add("trace.layer_sum_err_max_pct", "%", 100 * worst_gate);
  return Status::OK();
}

}  // namespace autodetect::bench
