// Golden end-to-end regression: train on a small pinned-seed corpus (PCG32
// seeds fixed below), round-trip the model through serialization, scan a
// pinned eval table set through the DetectionEngine, and compare the
// rendered findings line-for-line against the checked-in golden file
// tests/golden/detect_findings.golden.
//
// Any intentional behaviour change (scoring, calibration, selection,
// generalization keys, report ordering) shows up here as a readable diff.
// To regenerate the golden file after such a change, run
//
//   AD_REGEN_GOLDEN=1 ./build/tests/golden_test
//
// from the repository (the file is rewritten in the source tree via the
// AD_GOLDEN_DIR compile definition), eyeball the diff, and commit it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "corpus/corpus_generator.h"
#include "detect/trainer.h"
#include "serve/detection_engine.h"
#include "temp_path.h"

namespace autodetect {
namespace {

constexpr uint64_t kTrainSeed = 20180610;
constexpr uint64_t kEvalSeed = 4242;
constexpr char kGoldenFile[] = AD_GOLDEN_DIR "/detect_findings.golden";

Result<Model> TrainGoldenModel() {
  GeneratorOptions gen;
  gen.num_columns = 1200;
  gen.inject_errors = false;
  gen.seed = kTrainSeed;
  GeneratedColumnSource source(gen);
  TrainOptions train;
  train.memory_budget_bytes = 16ull << 20;
  train.stats.language_ids = {
      LanguageSpace::IdOf(LanguageSpace::CrudeG()),
      LanguageSpace::IdOf(LanguageSpace::PaperL1()),
      LanguageSpace::IdOf(LanguageSpace::PaperL2()),
      5, 40, 77, 120};
  train.supervision.target_positives = 3000;
  train.supervision.target_negatives = 3000;
  train.corpus_name = "golden-web";
  return TrainModel(&source, train);
}

/// The pinned eval tables: 48 WEB columns with injected errors plus the
/// paper's flagship hand examples. Changing this set invalidates the golden
/// file by construction — regenerate and commit together.
std::vector<DetectRequest> GoldenBatch() {
  std::vector<DetectRequest> batch;
  GeneratorOptions gen;
  gen.num_columns = 48;
  gen.inject_errors = true;
  gen.seed = kEvalSeed;
  GeneratedColumnSource source(gen);
  Column column;
  while (source.Next(&column)) {
    batch.push_back(DetectRequest{column.domain, column.values});
  }
  batch.push_back(DetectRequest{
      "paper-dates",
      {"2011-01-01", "2011-01-02", "2011-01-03", "2011-01-04", "2011/01/05"}});
  batch.push_back(DetectRequest{"paper-years", {"1962", "1981", "1974", "1990", "1865."}});
  batch.push_back(DetectRequest{"paper-thousands", {"995", "996", "997", "998", "999", "1,000"}});
  return batch;
}

/// Stable human-auditable rendering: confidences at 6 decimals, findings in
/// report order (which the detector already sorts deterministically).
std::string RenderFindings(const std::vector<DetectRequest>& batch,
                           const std::vector<DetectReport>& reports) {
  std::string out;
  for (size_t i = 0; i < batch.size(); ++i) {
    const ColumnReport& r = reports[i].column;
    out += StrFormat("[%zu] %s: distinct=%zu cells=%zu pairs=%zu\n", i,
                     batch[i].name.c_str(), r.distinct_values, r.cells.size(),
                     r.pairs.size());
    for (const auto& c : r.cells) {
      out += StrFormat("  cell row=%u value=\"%s\" conf=%.6f degree=%u\n", c.row,
                       c.value.c_str(), c.confidence, c.incompatible_with);
    }
    for (const auto& p : r.pairs) {
      out += StrFormat("  pair \"%s\" | \"%s\" conf=%.6f\n", p.u.c_str(),
                       p.v.c_str(), p.confidence);
    }
  }
  return out;
}

TEST(GoldenTest, FindingsMatchCheckedInGolden) {
  auto trained = TrainGoldenModel();
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();

  // Round-trip through the on-disk format: the golden file also guards the
  // serializer, and detection runs on the mapped copy like a real deployment.
  std::string model_path = TempPath("ad_golden_model.bin");
  ASSERT_TRUE(trained->Save(model_path).ok());
  auto model = Model::Load(model_path);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  std::vector<DetectRequest> batch = GoldenBatch();
  EngineOptions opts;
  opts.num_threads = 8;
  DetectionEngine engine(&*model, opts);
  std::vector<DetectReport> reports = engine.Detect(batch);
  // Resilience guard: with no deadline, no cancellation and no admission
  // pressure, the scan path must be untouched — every status kOk and the
  // rendering below byte-identical to the seed golden file.
  for (const auto& report : reports) {
    ASSERT_EQ(report.status, ColumnStatus::kOk) << report.name;
  }
  std::string rendered = RenderFindings(batch, reports);
  // The mapped file must stay alive until detection is done; remove after.
  std::filesystem::remove(model_path);

  if (std::getenv("AD_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenFile, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenFile;
    out << rendered;
    GTEST_SKIP() << "regenerated " << kGoldenFile << " (" << rendered.size()
                 << " bytes); review and commit it";
  }

  std::ifstream in(kGoldenFile, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << kGoldenFile
                         << "; run AD_REGEN_GOLDEN=1 ./golden_test once";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(rendered, golden.str())
      << "end-to-end findings drifted from tests/golden/detect_findings.golden; "
         "if intentional, regenerate with AD_REGEN_GOLDEN=1 ./golden_test";
}

}  // namespace
}  // namespace autodetect
