#include <algorithm>
#include <cmath>
#include <map>

#include "bench_e2e.h"
#include "common/string_util.h"
#include "corpus/corpus_generator.h"
#include "detect/detector.h"

namespace autodetect::bench {

namespace {

/// The open loop's arrival rate: well under the server's capacity at this
/// shape, so requests queue only behind stalls.
constexpr double kOpenRateRps = 4000;

/// Columns the serving model trains on. 1000 WEB columns select the same four
/// languages {48, 140, 71, 143} as 8000 columns in a third of the training
/// time, so set-up stays short enough to repeat in every run.
constexpr size_t kModelColumns = 1000;

struct Schedule {
  int setups;       ///< set-ups per run; setup_s is their median
  double warmup_s;  ///< fills the pair cache before anything is measured
  int rounds;       ///< each metric is the median across rounds
  double round_s;
};

Schedule ScheduleFor(const Config& config) {
  if (config.smoke) return {1, 0.5, 1, 1.0};
  if (config.trace) return {1, 1.0, 1, 2.0};
  // One-second rounds: the median across many of them shrugs off the rounds
  // a stall on a shared machine spoiled.
  const int rounds = std::max(1, static_cast<int>(std::lround(config.seconds)));
  return {3, 2.0, rounds, config.seconds / rounds};
}

/// Client-side rounds of one measurement: `throughput` rounds give
/// cols_per_s, `latency` rounds the latency percentiles (the same rounds on
/// the wire; closed- and open-loop halves on HTTP).
struct Measured {
  std::vector<Round> throughput, latency;
  Tally tally;
};

Status Measure(const Workload& workload, const Schedule& schedule, uint64_t seed,
               uint16_t port, RequestPool* pool, Measured* out) {
  if (workload.load != Load::kHttpCells) {
    AD_RETURN_NOT_OK(RunWireClosed(port, pool, schedule.warmup_s, schedule.rounds,
                                   schedule.round_s, &out->throughput, &out->tally));
    out->latency = out->throughput;
    return Status::OK();
  }
  // Capacity (closed loop) and latency at a fixed rate (open loop),
  // interleaved so drift on the machine hits both alike.
  AD_ASSIGN_OR_RETURN(std::unique_ptr<HttpLoad> load, HttpLoad::Connect(port, pool));
  AD_RETURN_NOT_OK(load->Closed(schedule.warmup_s, nullptr, &out->tally));
  out->throughput.resize(static_cast<size_t>(schedule.rounds));
  out->latency.resize(static_cast<size_t>(schedule.rounds));
  for (int r = 0; r < schedule.rounds; ++r) {
    AD_RETURN_NOT_OK(load->Closed(schedule.round_s / 2, &out->throughput[r], &out->tally));
    AD_RETURN_NOT_OK(load->Open(schedule.round_s / 2, kOpenRateRps,
                                seed * 1000 + static_cast<uint64_t>(r), &out->latency[r],
                                &out->tally));
  }
  return Status::OK();
}

/// Compares every sampled response with the reports an in-process
/// SequentialExecutor produces on the same model file; each mismatch is a
/// failed request. Then books the tally into `result`.
Status CheckSamples(const std::string& model_path, const RequestPool& pool, Tally* tally,
                    RunResult* result) {
  if (tally->samples.empty()) tally->Fail("no response was sampled for the reference check");
  AD_ASSIGN_OR_RETURN(Model model, Model::Load(model_path));
  Detector detector(&model);
  SequentialExecutor reference(&detector);
  std::map<size_t, std::vector<std::string>> expected;
  for (const auto& [index, prints] : tally->samples) {
    auto it = expected.find(index);
    if (it == expected.end()) {
      std::vector<std::string> want;
      for (const DetectReport& r : reference.Detect(ToDetectBatch(pool.requests[index]))) {
        want.push_back(Fingerprint(r));
      }
      it = expected.emplace(index, std::move(want)).first;
    }
    if (prints != it->second) {
      tally->Fail(StrFormat("reports of pool request %zu differ from the in-process reference",
                            index));
    }
  }
  for (const std::string& error : tally->errors) {
    std::fprintf(stderr, "bench_e2e: %s\n", error.c_str());
  }
  result->Count(tally->attempted, tally->failed);
  return Status::OK();
}

template <typename Of>
double RoundMedian(const std::vector<Round>& rounds, Of of) {
  std::vector<double> values;
  for (const Round& r : rounds) values.push_back(of(r));
  return Median(values);
}

double ColsPerS(const Round& r) { return static_cast<double>(r.columns) / r.seconds; }

}  // namespace

Result<RunResult> RunServing(const Config& config) {
  const Workload& workload = *config.workload;
  const Schedule schedule = ScheduleFor(config);
  RunResult result;

  // Set-up, several times: inputs from the seed, the model trained and
  // saved, the server spawned and healthy. The last set-up is measured;
  // every set-up must train the same model bytes.
  std::vector<double> setup_s;
  RequestPool pool;
  std::unique_ptr<ServerProcess> server;
  std::string model_path, first_model;
  TrainTimings train;
  for (int i = 0; i < schedule.setups; ++i) {
    if (server != nullptr) {
      AD_RETURN_NOT_OK(server->Stop());
      server.reset();
    }
    const auto start = Clock::now();
    pool = MakeRequestPool(workload, config.seed);
    model_path = StrFormat("%s/model-%d.admodel", config.work_dir.c_str(), i);
    GeneratorOptions gen;
    gen.seed = kModelSeed;
    gen.num_columns = kModelColumns;
    gen.inject_errors = false;
    GeneratedColumnSource corpus(gen);
    TrainPipeline pipeline(&corpus, gen.num_columns, gen.num_columns * 9 / 10,
                           gen.profile.name, kModelSeed);
    AD_RETURN_NOT_OK(pipeline.Sharded(model_path, &train));
    AD_ASSIGN_OR_RETURN(server, ServerProcess::Start(config.cli, model_path, config.work_dir, i));
    setup_s.push_back(Sec(Clock::now() - start));
    const std::string bytes = ReadFile(model_path);
    if (i == 0) first_model = bytes;
    if (bytes != first_model) result.CheckFailed("set-ups trained different model bytes");
  }

  if (config.trace) {
    AD_RETURN_NOT_OK(AddTrainLayers(train, train, model_path, &result));
    AD_RETURN_NOT_OK(TraceServing(config, std::move(server), model_path, &pool, &result));
    return result;
  }

  Measured measured;
  AD_RETURN_NOT_OK(Measure(workload, schedule, config.seed, server->port(), &pool, &measured));
  AD_ASSIGN_OR_RETURN(double peak_rss_mb, server->PeakRssMb());
  AD_RETURN_NOT_OK(server->Stop());
  AD_RETURN_NOT_OK(CheckSamples(model_path, pool, &measured.tally, &result));

  std::string rounds_line;
  for (size_t r = 0; r < measured.throughput.size(); ++r) {
    rounds_line += StrFormat(" %.0f/%.3f", ColsPerS(measured.throughput[r]),
                             Quantile(measured.latency[r].latency_ms, 0.90));
  }
  std::fprintf(stderr, "rounds (cols/s / p90 ms):%s\n", rounds_line.c_str());
  result.Add("setup_s", "s", Median(setup_s));
  result.Add("cols_per_s", "1/s", RoundMedian(measured.throughput, ColsPerS));
  result.Add("p50_ms", "ms", RoundMedian(measured.latency, [](const Round& r) {
               return Quantile(r.latency_ms, 0.50);
             }));
  // The tail is p90, not p99: one stall of a few milliseconds on a shared
  // host pushes an open-loop round's p99 up tenfold (see README.md).
  result.Add("p90_ms", "ms", RoundMedian(measured.latency, [](const Round& r) {
               return Quantile(r.latency_ms, 0.90);
             }));
  // HTTP does not stream: its first report arrives with the whole response.
  result.Add("first_report_p50_ms", "ms", RoundMedian(measured.latency, [](const Round& r) {
               return Quantile(r.first_ms.empty() ? r.latency_ms : r.first_ms, 0.50);
             }));
  result.Add("peak_rss_mb", "MB", peak_rss_mb);
  return result;
}

Status TraceServing(const Config& config, std::unique_ptr<ServerProcess> server,
                    const std::string& model_path, RequestPool* pool, RunResult* result) {
  const Workload& workload = *config.workload;
  const bool http = workload.load == Load::kHttpCells;
  Schedule schedule = ScheduleFor(config);
  Measured measured;
  AD_RETURN_NOT_OK(Measure(workload, schedule, config.seed, server->port(), pool, &measured));
  AD_ASSIGN_OR_RETURN(std::string text, server->Metrics());
  AD_RETURN_NOT_OK(server->Stop());
  AD_RETURN_NOT_OK(CheckSamples(model_path, *pool, &measured.tally, result));

  auto value = [&](const std::string& series) -> Result<double> {
    return PromValue(text, "autodetect_" + series);
  };
  AD_ASSIGN_OR_RETURN(double requests, value("serve_net_requests_total"));
  AD_ASSIGN_OR_RETURN(double bytes_in, value("serve_net_bytes_read_total"));
  AD_ASSIGN_OR_RETURN(double bytes_out, value("serve_net_bytes_written_total"));
  AD_ASSIGN_OR_RETURN(double server_p50_us,
                      value("serve_net_request_latency_us{quantile=\"0.5\"}"));
  // The dispatch wait is mostly under 1 us, below the histogram's integer
  // resolution at p50; its mean keeps the fraction.
  AD_ASSIGN_OR_RETURN(double dispatch_sum_us, value("serve_stage_dispatch_us_sum"));
  AD_ASSIGN_OR_RETURN(double dispatch_count, value("serve_stage_dispatch_us_count"));
  AD_ASSIGN_OR_RETURN(double columns, value("detect_columns_total"));
  AD_ASSIGN_OR_RETURN(double hits, value("detect_pairs_cache_hits_total"));
  AD_ASSIGN_OR_RETURN(double scored, value("detect_pairs_scored_total"));
  AD_ASSIGN_OR_RETURN(double rare, value("detect_rare_fallbacks_total"));
  AD_ASSIGN_OR_RETURN(Model model, Model::Load(model_path));
  const double languages = static_cast<double>(model.languages.size());

  const double client_p50_ms = Median(measured.latency.front().latency_ms);
  std::vector<double> late;
  for (const Round& r : measured.latency) late.insert(late.end(), r.late_ms.begin(), r.late_ms.end());
  result->Add("net.bytes_in_per_req", "B", bytes_in / requests);
  result->Add("net.bytes_out_per_req", "B", bytes_out / requests);
  result->Add("net.server_latency_p50_us", "us", server_p50_us);
  result->Add("net.outside_server_p50_us", "us", 1e3 * client_p50_ms - server_p50_us);
  result->Add("serve.dispatch_wait_mean_us", "us", dispatch_sum_us / dispatch_count);
  result->Add("serve.cache_hit_ratio", "ratio", hits / (hits + scored));
  result->Add("score.pairs_scored_per_col", "count", scored / columns);
  result->Add("score.rare_fallback_ratio", "ratio", scored > 0 ? rare / (scored * languages) : 0.0);
  result->Add("client.cpu_util", "ratio", measured.tally.client_cpu_s / measured.tally.client_wall_s);
  result->Add("client.gen_late_p99_ms", "ms", Quantile(late, 0.99));

  const std::string spans_path =
      StrFormat("%s/spans-%s.jsonl", config.work_dir.c_str(), workload.name);
  return ReplayLayers(model_path, *pool, http, config.smoke, spans_path, result);
}

}  // namespace autodetect::bench
