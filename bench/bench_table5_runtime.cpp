/// \file bench_table5_runtime.cpp
/// Reproduces paper Table 5: average per-column detection latency of each
/// method. Paper numbers (seconds/column): F-Regex 0.11, PWheel 0.21,
/// dBoost 0.16, Linear 1.67, Auto-Detect 0.29 — i.e. all interactive except
/// Linear; the shape to match is the ordering (Linear slowest by ~an order of
/// magnitude, the rest comparable).
///
/// Each method ranks the same 160 Ent-XLS columns (40 dirty, seed 5), cycling
/// through them from the first until at least kMinSeconds of wall time has
/// passed, so slow methods still finish in bounded time.

#include <cstdio>
#include <memory>

#include "baselines/cdm.h"
#include "baselines/dboost.h"
#include "baselines/distance_outliers.h"
#include "baselines/fregex.h"
#include "baselines/linear.h"
#include "baselines/lsa.h"
#include "baselines/pwheel.h"
#include "bench_util.h"
#include "common/stopwatch.h"

using namespace autodetect;
using namespace autodetect::benchutil;

namespace {

constexpr double kMinSeconds = 0.5;

struct Timing {
  double us_per_column = 0;
  size_t columns = 0;
};

Timing TimeMethod(const ErrorDetectorMethod& method,
                  const std::vector<TestCase>& cases, size_t* sink) {
  Timing t;
  Stopwatch watch;
  double elapsed = 0;
  while (elapsed < kMinSeconds) {
    *sink += method.RankColumn(cases[t.columns % cases.size()].values).size();
    ++t.columns;
    elapsed = watch.ElapsedSeconds();
  }
  t.us_per_column = elapsed * 1e6 / static_cast<double>(t.columns);
  return t;
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarning);
  RealisticTestOptions opts;
  opts.num_dirty = 40;
  opts.num_clean = 120;
  opts.seed = 5;
  const std::vector<TestCase> cases =
      GenerateRealisticTestSet(CorpusProfile::EntXls(), opts);

  auto model = TrainOrLoadModel(StandardConfig());
  AD_CHECK_OK(model.status());
  Detector detector(&*model);

  std::vector<std::unique_ptr<ErrorDetectorMethod>> methods;
  methods.push_back(std::make_unique<AutoDetectMethod>(&detector));
  methods.push_back(std::make_unique<FRegexDetector>());
  methods.push_back(std::make_unique<PWheelDetector>());
  methods.push_back(std::make_unique<DBoostDetector>());
  methods.push_back(std::make_unique<LinearDetector>());
  methods.push_back(std::make_unique<LinearPDetector>());
  methods.push_back(std::make_unique<CdmDetector>());
  methods.push_back(std::make_unique<LsaDetector>());
  methods.push_back(std::make_unique<SvddDetector>());
  methods.push_back(std::make_unique<DbodDetector>());
  methods.push_back(std::make_unique<LofDetector>());

  std::printf("== Table 5: per-column detection latency ==\n");
  std::printf("%zu Ent-XLS columns (%zu dirty, seed %llu), >= %.1f s per method\n\n",
              cases.size(), opts.num_dirty,
              static_cast<unsigned long long>(opts.seed), kMinSeconds);
  std::printf("%-14s %12s %10s\n", "method", "us/column", "columns");
  size_t sink = 0;
  for (const auto& method : methods) {
    const Timing t = TimeMethod(*method, cases, &sink);
    std::printf("%-14s %12.1f %10zu\n", std::string(method->name()).c_str(),
                t.us_per_column, t.columns);
  }
  // Consumes every ranking so the calls cannot be optimized away.
  std::printf("\n(%zu suspicions ranked)\n", sink);
  return 0;
}
