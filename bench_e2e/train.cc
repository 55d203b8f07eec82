#include <sys/resource.h>

#include "bench_e2e.h"
#include "common/string_util.h"
#include "corpus/corpus_generator.h"

namespace autodetect::bench {

namespace {

/// Requests of the serving probe a train_web trace run sends through the
/// retrained model (16 corpus columns each).
constexpr size_t kProbeRequests = 256;

}  // namespace

Result<RunResult> RunTrain(const Config& config) {
  const size_t columns = config.smoke ? 1000 : config.workload->pool_requests;
  const size_t split = columns * 9 / 10;
  // Generating the corpus takes about 10 ms, and a run's first few
  // repetitions are sometimes all 50% slower, so the median needs many more
  // set-ups than serving's.
  const int setups = config.smoke || config.trace ? 1 : 21;
  RunResult result;

  // Set-up: the corpus, generated in memory from the seed.
  GeneratorOptions gen;
  gen.seed = config.seed;
  gen.num_columns = columns;
  gen.inject_errors = false;
  std::vector<double> setup_s;
  Corpus corpus;
  for (int i = 0; i < setups; ++i) {
    const auto start = Clock::now();
    corpus = GenerateCorpus(gen);
    setup_s.push_back(Sec(Clock::now() - start));
  }

  // Measurement: train + retrain cycles on fresh sessions until the run's
  // time is spent (at least one cycle). Every cycle must write the same
  // model bytes as the first.
  const std::string train_path = config.work_dir + "/train.admodel";
  const std::string retrain_path = config.work_dir + "/retrain.admodel";
  std::vector<double> train_s, retrain_s;
  TrainTimings train_stages, retrain_stages;
  std::string first_train, first_retrain;
  CorpusSource source(&corpus);
  const auto begin = Clock::now();
  do {
    TrainPipeline pipeline(&source, columns, split, gen.profile.name, gen.seed);
    auto start = Clock::now();
    AD_RETURN_NOT_OK(pipeline.Train(train_path, &train_stages));
    train_s.push_back(Sec(Clock::now() - start));
    start = Clock::now();
    AD_RETURN_NOT_OK(pipeline.Retrain(retrain_path, &retrain_stages));
    retrain_s.push_back(Sec(Clock::now() - start));
    result.Count(2, 0);

    const std::string trained = ReadFile(train_path), retrained = ReadFile(retrain_path);
    if (first_train.empty()) {
      first_train = trained;
      first_retrain = retrained;
    }
    if (trained != first_train || retrained != first_retrain) {
      result.CheckFailed("training cycles wrote different model bytes");
    }
  } while (Sec(Clock::now() - begin) < config.seconds && !config.smoke && !config.trace);

  Status flagged = CheckFlagshipPair(retrain_path);
  if (!flagged.ok()) result.CheckFailed(flagged.ToString());

  if (config.trace) {
    // The serving layers on this workload: the retrained model behind a real
    // server, fed tables made of the training corpus's own columns.
    AD_RETURN_NOT_OK(AddTrainLayers(train_stages, retrain_stages, retrain_path, &result));
    RequestPool pool = PoolFromCorpus(corpus, kProbeRequests);
    AD_ASSIGN_OR_RETURN(std::unique_ptr<ServerProcess> server,
                        ServerProcess::Start(config.cli, retrain_path, config.work_dir, 0));
    AD_RETURN_NOT_OK(TraceServing(config, std::move(server), retrain_path, &pool, &result));
    return result;
  }

  std::string line = "set-ups (s):";
  for (double s : setup_s) line += StrFormat(" %.4f", s);
  line += "; cycles (train/retrain s):";
  for (size_t i = 0; i < train_s.size(); ++i) {
    line += StrFormat(" %.3f/%.3f", train_s[i], retrain_s[i]);
  }
  std::fprintf(stderr, "%s\n", line.c_str());
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double train_median = Median(train_s);
  result.Add("setup_s", "s", Median(setup_s));
  result.Add("cols_per_s", "1/s", static_cast<double>(split) / train_median);
  result.Add("p50_ms", "ms", 1e3 * Median(retrain_s));
  result.Add("p90_ms", "ms", 1e3 * Quantile(retrain_s, 0.90));
  result.Add("first_report_p50_ms", "ms", 1e3 * train_median);
  result.Add("peak_rss_mb", "MB", static_cast<double>(usage.ru_maxrss) / 1024.0);
  return result;
}

}  // namespace autodetect::bench
