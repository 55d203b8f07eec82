/// \file bench_model_load.cpp
/// Model artifact load-time benchmark: ADMODEL2 cold loads (mmap + checksum
/// pass, tables served directly from the mapped bytes) of the standard
/// model. Handwritten main so the run can also assert the invariants the
/// zero-copy format must keep and emit them next to the timing:
///
///   * zero_copy — after Load the model is memory-mapped and every
///     language's statistics are frozen views over the mapping (no table is
///     rebuilt at load time);
///   * load_ms — the median cold load stays under kMaxLoadMs;
///   * reports_identical — the freshly trained in-memory model and its
///     mapped copy produce byte-identical DetectReports (hexfloat-rendered
///     confidences, so string equality is bit equality);
///   * reload_consistent — a batch detected before and after a mid-run
///     ModelRegistry::Reload of a re-saved copy of the mapped model is
///     byte-identical.
///
/// Writes BENCH_model_load.json (path overridable via argv[1]).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "detect/model_provider.h"
#include "serve/detection_engine.h"
#include "serve/model_registry.h"

using namespace autodetect;
using namespace autodetect::benchutil;

namespace {

/// Ceiling on the median cold load of the standard (~850 KB) model. Loads
/// measure 0.11-0.13 ms on a 4-core 2.1 GHz x86 VM; the margin absorbs
/// noisy neighbours without letting a table rebuild (milliseconds) through.
constexpr double kMaxLoadMs = 0.25;

/// Bit-exact rendering of one report (same idiom as model_v2_test).
std::string Fingerprint(const DetectReport& report) {
  std::string out = StrFormat("d=%zu\n", report.column.distinct_values);
  for (const auto& c : report.column.cells) {
    out += StrFormat("c %u \"%s\" %a %u\n", c.row, c.value.c_str(),
                     c.confidence, c.incompatible_with);
  }
  for (const auto& p : report.column.pairs) {
    out += StrFormat("p \"%s\"|\"%s\" %a\n", p.u.c_str(), p.v.c_str(),
                     p.confidence);
  }
  return out;
}

std::vector<std::string> Fingerprints(const std::vector<DetectReport>& reports) {
  std::vector<std::string> out;
  out.reserve(reports.size());
  for (const auto& r : reports) out.push_back(Fingerprint(r));
  return out;
}

std::vector<std::string> Detect(const Model& model,
                                const std::vector<DetectRequest>& batch) {
  FixedModel provider(&model);
  DetectionEngine engine(&provider);
  return Fingerprints(engine.Detect(batch));
}

/// Median of repeated cold loads. Each iteration re-opens and fully loads the
/// file with a warm page cache, so the timing isolates map + checksum cost.
double MedianLoadMs(const std::string& path, int iters) {
  std::vector<double> ms;
  for (int i = 0; i < iters; ++i) {
    Stopwatch watch;
    auto model = Model::Load(path);
    AD_CHECK_OK(model.status());
    ms.push_back(watch.ElapsedSeconds() * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_model_load.json");

  // A private, empty cache directory forces a fresh training run, so the
  // reference model is the trainer's in-memory output, not a mapped cache.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "bench_model_load";
  std::filesystem::remove_all(dir);
  HarnessConfig config = StandardConfig();
  config.cache_dir = dir.string();
  auto trained = TrainOrLoadModel(config);
  AD_CHECK_OK(trained.status());
  AD_CHECK(!trained->mapped());

  const std::string path = (dir / "model.admodel2").string();
  AD_CHECK_OK(trained->Save(path));
  const auto file_bytes = std::filesystem::file_size(path);

  constexpr int kIters = 9;
  const double load_ms = MedianLoadMs(path, kIters);

  auto mapped = Model::Load(path);
  AD_CHECK_OK(mapped.status());
  bool zero_copy = mapped->mapped();
  for (const auto& l : mapped->languages) zero_copy &= l.stats.frozen();

  RealisticTestOptions opts;
  opts.num_dirty = 32;
  opts.num_clean = 96;
  opts.seed = 20180610;
  auto cases = GenerateRealisticTestSet(CorpusProfile::Web(), opts);
  const std::vector<DetectRequest> batch = RequestsFromCases(cases);

  const auto mapped_prints = Detect(*mapped, batch);
  const bool reports_identical = Detect(*trained, batch) == mapped_prints;

  const std::string resaved = (dir / "resaved.admodel2").string();
  AD_CHECK_OK(mapped->Save(resaved));
  ModelRegistry registry;
  AD_CHECK_OK(registry.Reload(path));
  DetectionEngine engine(&registry);
  const auto before = Fingerprints(engine.Detect(batch));
  AD_CHECK_OK(registry.Reload(resaved));
  const auto after = Fingerprints(engine.Detect(batch));
  const bool reload_consistent =
      before == after && before == mapped_prints && registry.Generation() == 2;

  std::printf("load: %8.3f ms (%s, ceiling %.2f ms)\n", load_ms,
              HumanBytes(file_bytes).c_str(), kMaxLoadMs);
  std::printf("zero_copy: %s\n", zero_copy ? "true" : "false");
  std::printf("reports_identical: %s\n", reports_identical ? "true" : "false");
  std::printf("reload_consistent: %s\n", reload_consistent ? "true" : "false");

  FILE* f = std::fopen(out_path.c_str(), "w");
  AD_CHECK(f != nullptr) << "cannot write " << out_path;
  std::fprintf(f,
               "{\n"
               "  \"load_ms\": %.3f,\n"
               "  \"max_load_ms\": %.3f,\n"
               "  \"file_bytes\": %zu,\n"
               "  \"load_iters\": %d,\n"
               "  \"zero_copy\": %s,\n"
               "  \"reports_identical\": %s,\n"
               "  \"reload_consistent\": %s\n"
               "}\n",
               load_ms, kMaxLoadMs, static_cast<size_t>(file_bytes), kIters,
               zero_copy ? "true" : "false",
               reports_identical ? "true" : "false",
               reload_consistent ? "true" : "false");
  std::fclose(f);

  std::filesystem::remove_all(dir);

  if (!zero_copy || load_ms > kMaxLoadMs || !reports_identical ||
      !reload_consistent) {
    std::fprintf(stderr, "FAIL: invariants not met (see %s)\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("ok; wrote %s\n", out_path.c_str());
  return 0;
}
