#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "corpus/column.h"
#include "corpus/column_source.h"
#include "detect/api.h"
#include "detect/trainer.h"
#include "net/wire.h"

/// \file bench_e2e.h
/// Internal interfaces of the end-to-end benchmark (bench_e2e). The binary
/// boots the real `autodetect_cli serve` on loopback and drives it from one
/// client thread (serving workloads), or runs the staged TrainSession
/// in-process (train_web). A --trace run replays the same inputs through each
/// layer's public functions and derives per-layer numbers from spans it
/// records around those calls. See README.md for the metric definitions.

namespace autodetect::bench {

using Clock = std::chrono::steady_clock;

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double Sec(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

/// Nearest-rank quantile of an unsorted sample; 0 for an empty one.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// CPU seconds used so far by the calling thread / the whole process.
double ThreadCpuSeconds();
double ProcessCpuSeconds();

/// A whole file's bytes ("" when unreadable).
std::string ReadFile(const std::string& path);

/// Bit-exact rendering of one report's deterministic part (hexfloat
/// confidences, so string equality is bit equality); execution metadata
/// (latency, status) is left out.
std::string Fingerprint(const DetectReport& report);

// ---------------------------------------------------------------- workloads

enum class Load {
  kWireClosed,  ///< one ADWIRE1 connection, two requests outstanding
  kHttpCells,   ///< HTTP: closed-loop capacity + Poisson open loop
  kTrain,       ///< in-process staged training
};

struct Workload {
  const char* name;
  Load load;
  size_t columns_per_request;
  size_t min_rows;
  size_t max_rows;
  size_t pool_requests;  ///< request pool size (train_web: corpus columns)
};

const Workload* FindWorkload(std::string_view name);
const std::vector<Workload>& AllWorkloads();

/// Command-line configuration of one run.
struct Config {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Small model, one short round, small train corpus: the harness self-test.
  bool smoke = false;
  std::string cli;       ///< path to autodetect_cli
  std::string work_dir;  ///< scratch directory for models, port files, logs
};

/// The fixed seed of the serving model: the workload seed drives only input
/// generation, so every run serves the same model.
inline constexpr uint64_t kModelSeed = 20180610;

// ------------------------------------------------------------------- inputs

/// One workload's request pool, in every encoding the load generators send.
/// Request i has request_id i + 1.
struct RequestPool {
  std::vector<WireRequest> requests;
  /// Complete kDetectRequest frames; the request_id sits at bytes [5, 13).
  std::vector<std::string> frames;
  /// Complete `POST /detect` HTTP/1.1 messages. The JSON request_id is a
  /// kHttpIdWidth-character space-padded field at http_id_offsets[i].
  std::vector<std::string> http;
  std::vector<size_t> http_id_offsets;
};
inline constexpr size_t kHttpIdWidth = 20;

/// Generates `workload`'s pool from `seed` (WEB profile, 10% injected errors,
/// the workload's row range).
RequestPool MakeRequestPool(const Workload& workload, uint64_t seed);

/// Groups corpus columns into 16-column requests (train_web's serving probe).
RequestPool PoolFromCorpus(const Corpus& corpus, size_t requests);

/// Writes `id` into an encoded wire frame / HTTP message in place.
void PatchWireId(std::string* frame, uint64_t id);
void PatchHttpId(std::string* message, size_t offset, uint64_t id);

// ----------------------------------------------------------------- training

/// Wall/CPU timings of one staged training pass, by stage.
struct TrainTimings {
  double stats_s = 0;        ///< BuildShard over the base range
  double stats_cpu_s = 0;    ///< process CPU time during that BuildShard
  uint64_t stats_values = 0; ///< cell values the base range holds
  double shard_build_s = 0;  ///< BuildShard over the delta range
  double merge_s = 0;        ///< AddShards
  double supervise_s = 0;
  double finalize_s = 0;
  double save_ms = 0;
};

/// The TrainSession stages over the first `columns` columns of `corpus`,
/// split at `split`. A pipeline runs either
///   Train() then Retrain()   train_web:
///       BuildShard[0, split) + UseStats + Supervise + Finalize + Save, then
///       BuildShard[split, n) + AddShards + Supervise + Finalize + Save
///   or Sharded()             the serving model: both shards, one
///                            supervision; by the shard determinism contract
///                            the same bytes as a one-shot `autodetect_cli
///                            train` on the n columns
class TrainPipeline {
 public:
  /// `corpus` is borrowed and must outlive the pipeline.
  TrainPipeline(ColumnSource* corpus, size_t columns, size_t split,
                const std::string& profile, uint64_t seed);

  Status Train(const std::string& model_path, TrainTimings* timings);
  Status Retrain(const std::string& model_path, TrainTimings* timings);
  Status Sharded(const std::string& model_path, TrainTimings* timings);

 private:
  ShardProvenance Provenance(size_t begin, size_t end, size_t total) const;
  Status BuildBase(TrainTimings* timings);
  Status AddDelta(TrainTimings* timings);
  Status FinishModel(ColumnSource* supervision_source, const std::string& model_path,
                     TrainTimings* timings);

  ColumnSource* corpus_;
  size_t columns_;
  size_t split_;
  std::string profile_;
  uint64_t seed_;
  TrainOptions options_;
  TrainSession session_;
};

/// Checks that `model_path` loads and flags the paper's flagship pair.
Status CheckFlagshipPair(const std::string& model_path);

class RunResult;
/// The train.* per-layer metrics: `train` for the statistics pass,
/// supervision, selection and save; `retrain` for the delta shard and merge.
Status AddTrainLayers(const TrainTimings& train, const TrainTimings& retrain,
                      const std::string& model_path, RunResult* result);

// ------------------------------------------------------------------- server

/// `autodetect_cli serve` as a child process on an ephemeral loopback port,
/// with the benchmark's fixed server shape (see README.md). The child dies
/// with the benchmark (PR_SET_PDEATHSIG), and Stop() — also run by the
/// destructor — drains it with SIGTERM and reaps it.
class ServerProcess {
 public:
  static Result<std::unique_ptr<ServerProcess>> Start(const std::string& cli,
                                                      const std::string& model_path,
                                                      const std::string& work_dir,
                                                      int index);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  /// GET /metrics (Prometheus text).
  Result<std::string> Metrics() const;
  /// The server's VmHWM, in MB.
  Result<double> PeakRssMb() const;
  /// SIGTERM, then waits for the graceful drain; errors unless it exits 0.
  Status Stop();

 private:
  ServerProcess(int pid, std::string log_path) : pid_(pid), log_path_(std::move(log_path)) {}
  Status AwaitReady(const std::string& port_file);

  int pid_;
  std::string log_path_;
  uint16_t port_ = 0;
};

/// One value of a Prometheus text exposition (`name` or `name{labels}`),
/// e.g. PromValue(text, "autodetect_serve_net_requests_total").
Result<double> PromValue(const std::string& text, const std::string& series);

// ----------------------------------------------------------------- load

/// Per-round client-side measurements.
struct Round {
  double seconds = 0;
  uint64_t columns = 0;
  std::vector<double> latency_ms;  ///< see README.md for each workload's clock
  std::vector<double> first_ms;    ///< send → first kColumnReport (wire only)
  std::vector<double> late_ms;     ///< how late the generator sent
};

/// Everything a load generator observed besides timings.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failure messages
  /// Every 64th request: (pool index, one fingerprint per column).
  std::vector<std::pair<size_t, std::vector<std::string>>> samples;
  double client_cpu_s = 0;
  double client_wall_s = 0;

  void Fail(const std::string& message);
};

/// Closed loop over one ADWIRE1 connection with two requests outstanding:
/// `warmup_s`, then `rounds` measured rounds of `round_s`. Request ids are
/// unique per send; the pool is cycled.
Status RunWireClosed(uint16_t port, RequestPool* pool, double warmup_s, int rounds,
                     double round_s, std::vector<Round>* out, Tally* tally);

/// HTTP/1.1 keep-alive load over four connections from this thread.
class HttpLoad {
 public:
  static Result<std::unique_ptr<HttpLoad>> Connect(uint16_t port, RequestPool* pool);
  ~HttpLoad();

  /// Closed loop, one request outstanding per connection, for `seconds`;
  /// latency is send → complete response.
  Status Closed(double seconds, Round* round, Tally* tally);
  /// Open loop: Poisson arrivals at `rate` req/s for `seconds`, sent on the
  /// connections round-robin whether or not earlier responses arrived;
  /// latency runs from the scheduled send time, so a stall is charged to
  /// every request that queued behind it.
  Status Open(double seconds, double rate, uint64_t seed, Round* round, Tally* tally);

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    size_t in_offset = 0;
    size_t outstanding = 0;
  };
  struct InFlight {
    size_t pool_index = 0;
    size_t conn = 0;
    Clock::time_point due, sent;
    Round* round = nullptr;  ///< null: warm-up, or a closed-loop request
    bool pending = false;
  };

  explicit HttpLoad(RequestPool* pool) : pool_(pool) {}
  Status Send(size_t conn, Clock::time_point due, Round* round, Tally* tally);
  Status Pump(int timeout_us, Round* round, Tally* tally, bool closed_loop);
  void Complete(size_t conn, int status, std::string_view body, Round* round, Tally* tally,
                bool closed_loop);

  RequestPool* pool_;
  std::vector<Conn> conns_;
  std::vector<InFlight> inflight_;  ///< indexed by request id - 1
  size_t outstanding_ = 0;
  size_t next_pool_ = 0;
  uint64_t sends_ = 0;
};

/// Renders an HTTP /detect response's reports (parsed with net/json.h)
/// through Fingerprint, so they compare with in-process reports; also checks
/// every column came back "ok".
Result<std::vector<std::string>> HttpReportPrints(std::string_view body, size_t columns);

// ----------------------------------------------------------------- results

/// One run's output: metrics in print order plus the output-check verdict.
class RunResult {
 public:
  void Add(const std::string& name, const std::string& unit, double value);
  /// Records a failed output check (the run then exits non-zero).
  void CheckFailed(const std::string& what);
  void Count(uint64_t attempted, uint64_t failed);

  bool correct() const { return correct_ && failed_ == 0; }
  /// Prints every metric by name with its unit, then the one-line JSON.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ------------------------------------------------------------ workload runs

/// A run's result; an error Status means the run could not be carried out
/// at all (set-up failed, the server died), and no result is printed.
Result<RunResult> RunServing(const Config& config);
Result<RunResult> RunTrain(const Config& config);

/// The serving half of a --trace run against a running server: one short
/// round, a /metrics scrape, the output checks, then the in-process layer
/// replay (ReplayLayers). Adds every serving per-layer metric; stops the
/// server.
Status TraceServing(const Config& config, std::unique_ptr<ServerProcess> server,
                    const std::string& model_path, RequestPool* pool, RunResult* result);

/// Per-layer metrics from an in-process replay of the pool's first requests
/// (8 with `smoke`) through each layer's public functions, with spans
/// written to `spans_path` as JSON lines. Fails the run's checks when the
/// layer-sum gate fails.
Status ReplayLayers(const std::string& model_path, const RequestPool& pool, bool http,
                    bool smoke, const std::string& spans_path, RunResult* result);

/// `--compare BASE NEW`: per workload and end-to-end metric, medians,
/// quartiles and a verdict under BENCHMARK.json's bounds. Returns the exit
/// code (non-zero when any verdict is "worse").
int Compare(const std::string& bench_json, const std::string& base_path,
            const std::string& new_path);

}  // namespace autodetect::bench
