// End-to-end integration tests: the full offline pipeline (corpus →
// statistics → supervision → calibration → selection → model) followed by
// online detection, exercised on the paper's flagship scenarios and on the
// evaluation harness.

#include <gtest/gtest.h>

#include <filesystem>

#include "baselines/autodetect_method.h"
#include "baselines/pwheel.h"
#include "corpus/corpus_generator.h"
#include "detect/detector.h"
#include "detect/trainer.h"
#include "eval/metrics.h"
#include "eval/testcase.h"
#include "stats/stats_builder.h"
#include "temp_path.h"

namespace autodetect {
namespace {

/// Column-scan convenience over the unified API (detect/api.h).
ColumnReport Analyze(const Detector& detector, const std::vector<std::string>& values) {
  return detector.Detect(DetectRequest{"", values}).column;
}

class IntegrationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions gen;
    gen.num_columns = 8000;
    gen.inject_errors = false;
    gen.seed = 20180610;
    source_ = new GeneratedColumnSource(gen);
    TrainOptions train;
    train.memory_budget_bytes = 48ull << 20;
    train.supervision.target_positives = 10000;
    train.supervision.target_negatives = 10000;
    auto model = TrainModel(source_, train);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = new Model(std::move(*model));

    source_->Reset();
    StatsBuilderOptions crude_opts;
    crude_opts.language_ids = {LanguageSpace::IdOf(LanguageSpace::CrudeG())};
    crude_ = new CorpusStats(BuildCorpusStats(source_, crude_opts));
  }
  static void TearDownTestSuite() {
    delete crude_;
    delete model_;
    delete source_;
  }

  static GeneratedColumnSource* source_;
  static Model* model_;
  static CorpusStats* crude_;
};

GeneratedColumnSource* IntegrationFixture::source_ = nullptr;
Model* IntegrationFixture::model_ = nullptr;
CorpusStats* IntegrationFixture::crude_ = nullptr;

TEST_F(IntegrationFixture, SelectsMultipleComplementaryLanguages) {
  EXPECT_GE(model_->languages.size(), 2u);
  // At least one selected language must distinguish symbols (needed for the
  // mixed-date-format class of errors).
  bool symbol_sensitive = false;
  for (const auto& l : model_->languages) {
    if (l.language().TargetFor(CharClass::kSymbol) == TreeNode::kLeaf) {
      symbol_sensitive = true;
    }
  }
  EXPECT_TRUE(symbol_sensitive);
}

TEST_F(IntegrationFixture, PaperIntroductionScenarios) {
  Detector detector(model_);

  // Col-1: trailing separated value is NOT an error.
  std::vector<std::string> col1;
  for (int i = 990; i <= 999; ++i) col1.push_back(std::to_string(i));
  col1.push_back("1,000");
  EXPECT_FALSE(Analyze(detector, col1).HasFindings());

  // Col-2: a float among integers is NOT an error.
  std::vector<std::string> col2;
  for (int i = 90; i <= 99; ++i) col2.push_back(std::to_string(i));
  col2.push_back("1.99");
  EXPECT_FALSE(Analyze(detector, col2).HasFindings());

  // Col-3: a slash date among ISO dates IS an error.
  std::vector<std::string> col3 = {"2011-01-01", "2011-01-02", "2011-01-03",
                                   "2011-01-04", "2011/01/05"};
  auto report = Analyze(detector, col3);
  ASSERT_TRUE(report.HasFindings());
  EXPECT_EQ(report.Top()->value, "2011/01/05");
}

TEST_F(IntegrationFixture, PaperExample2PairJudgments) {
  Detector detector(model_);
  // (v1, v2) from Example 2: different date separators -> incompatible.
  EXPECT_TRUE(detector.ScorePair("2011-01-01", "2011.01.02").incompatible);
  // (v3, v4): month-word vs year prefix -> incompatible.
  EXPECT_TRUE(detector.ScorePair("2014-01", "July-01").incompatible);
  // Same formats -> compatible.
  EXPECT_FALSE(detector.ScorePair("1918-01-01", "2018-12-31").incompatible);
}

TEST_F(IntegrationFixture, BeatsPWheelOnSpliceBenchmark) {
  source_->Reset();
  SpliceTestOptions opts;
  opts.num_dirty = 120;
  opts.clean_per_dirty = 5;
  auto cases = GenerateSpliceTestSet(
      source_, Freeze(crude_->ForLanguage(LanguageSpace::IdOf(LanguageSpace::CrudeG()))),
      opts);
  ASSERT_TRUE(cases.ok()) << cases.status().ToString();

  Detector detector(model_);
  AutoDetectMethod auto_detect(&detector);
  PWheelDetector pwheel;
  MethodEvaluation ours = EvaluateMethod(auto_detect, *cases);
  MethodEvaluation theirs = EvaluateMethod(pwheel, *cases);

  // The paper's headline: global statistics beat the local MDL approach.
  EXPECT_GT(ours.PrecisionAt(100), 0.8);
  EXPECT_GT(ours.PrecisionAt(100), theirs.PrecisionAt(100));
  // And recall is non-trivial.
  EXPECT_GT(ours.RecallAt(300), 0.5);
}

TEST_F(IntegrationFixture, HighPrecisionTargetShrinksOrKeepsCoverage) {
  // Re-running the whole pipeline at a stricter precision target must not
  // produce a more permissive model.
  source_->Reset();
  TrainOptions strict;
  strict.precision_target = 0.99;
  strict.memory_budget_bytes = 48ull << 20;
  strict.supervision.target_positives = 10000;
  strict.supervision.target_negatives = 10000;
  auto strict_model = TrainModel(source_, strict);
  ASSERT_TRUE(strict_model.ok());
  // Thresholds for languages present in both models can only move down.
  for (const auto& sl : strict_model->languages) {
    for (const auto& ll : model_->languages) {
      if (sl.lang_id == ll.lang_id) {
        EXPECT_LE(sl.threshold, ll.threshold + 1e-12);
      }
    }
  }
}

TEST_F(IntegrationFixture, DetectionSurvivesModelRoundTripThroughDisk) {
  std::string path = TempPath("ad_integration_model.bin");
  ASSERT_TRUE(model_->Save(path).ok());
  auto loaded = Model::Load(path);
  ASSERT_TRUE(loaded.ok());
  Detector detector(&*loaded);
  std::vector<std::string> col = {"1962", "1981", "1974", "1990", "1865."};
  auto report = Analyze(detector, col);
  ASSERT_TRUE(report.HasFindings());
  EXPECT_EQ(report.Top()->value, "1865.");
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace autodetect
