// Tests for the detect subsystem: trainer pipeline, model (de)serialization
// and the Detector on the paper's flagship scenarios.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "corpus/corpus_generator.h"
#include "detect/detector.h"
#include "detect/trainer.h"
#include "temp_path.h"

namespace autodetect {
namespace {

/// Column-scan convenience over the unified API (detect/api.h).
ColumnReport Analyze(const Detector& detector, const std::vector<std::string>& values) {
  return detector.Detect(DetectRequest{"", values}).column;
}

/// Trains one shared small model (the expensive part) for all tests here.
class DetectFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions gen;
    gen.num_columns = 6000;
    gen.inject_errors = false;
    gen.seed = 20180610;
    GeneratedColumnSource source(gen);
    TrainOptions train;
    train.memory_budget_bytes = 32ull << 20;
    train.supervision.target_positives = 8000;
    train.supervision.target_negatives = 8000;
    train.corpus_name = "test-web";
    TrainSession session(train);
    Status stats = session.BuildStats(&source);
    ASSERT_TRUE(stats.ok()) << stats.ToString();
    Status supervised = session.Supervise(&source);
    ASSERT_TRUE(supervised.ok()) << supervised.ToString();
    session_ = new TrainSession(std::move(session));
    auto model = session_->Finalize();
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = new Model(std::move(*model));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete session_;
    model_ = nullptr;
    session_ = nullptr;
  }

  static TrainSession* session_;
  static Model* model_;
};

TrainSession* DetectFixture::session_ = nullptr;
Model* DetectFixture::model_ = nullptr;

TEST_F(DetectFixture, ModelHasCalibratedLanguages) {
  ASSERT_FALSE(model_->languages.empty());
  for (const auto& l : model_->languages) {
    EXPECT_GE(l.lang_id, 0);
    EXPECT_LT(l.lang_id, LanguageSpace::kNumLanguages);
    EXPECT_LT(l.threshold, 0.0);
    EXPECT_GE(l.threshold, -1.0);
    EXPECT_GT(l.train_coverage, 0u);
    EXPECT_FALSE(l.curve.empty());
  }
  // Ordered by coverage descending (BestOne first).
  for (size_t i = 1; i < model_->languages.size(); ++i) {
    EXPECT_GE(model_->languages[i - 1].train_coverage,
              model_->languages[i].train_coverage);
  }
  EXPECT_GT(model_->trained_columns, 0u);
  EXPECT_FALSE(model_->Summary().empty());
}

TEST_F(DetectFixture, ModelRespectsMemoryBudget) {
  EXPECT_LE(model_->MemoryBytes(), 32ull << 20);
}

TEST_F(DetectFixture, PaperCol1SeparatorsAreCompatible) {
  Detector detector(model_);
  std::vector<std::string> col;
  for (int i = 990; i <= 999; ++i) col.push_back(std::to_string(i));
  col.push_back("1,000");
  ColumnReport report = Analyze(detector, col);
  EXPECT_TRUE(report.cells.empty())
      << "flagged: " << (report.cells.empty() ? "" : report.cells[0].value);
}

TEST_F(DetectFixture, PaperCol3MixedDatesAreFlagged) {
  Detector detector(model_);
  std::vector<std::string> col = {"2011-01-01", "2011-01-02", "2011-01-03",
                                  "2011-01-04", "2011/01/05"};
  ColumnReport report = Analyze(detector, col);
  ASSERT_TRUE(report.HasFindings());
  EXPECT_EQ(report.Top()->value, "2011/01/05");
  EXPECT_EQ(report.Top()->row, 4u);
  EXPECT_GT(report.Top()->confidence, 0.5);
}

TEST_F(DetectFixture, TrailingDotFlagged) {
  Detector detector(model_);
  std::vector<std::string> col = {"1962", "1981", "1974", "1990", "1865."};
  ColumnReport report = Analyze(detector, col);
  ASSERT_TRUE(report.HasFindings());
  EXPECT_EQ(report.Top()->value, "1865.");
}

TEST_F(DetectFixture, ScorePairDirections) {
  Detector detector(model_);
  EXPECT_TRUE(detector.ScorePair("2011-01-01", "2011.01.02").incompatible);
  EXPECT_FALSE(detector.ScorePair("2011-01-01", "1999-12-31").incompatible);
  EXPECT_FALSE(detector.ScorePair("999", "1,000").incompatible);
}

TEST_F(DetectFixture, ScorePairIsSymmetric) {
  Detector detector(model_);
  auto a = detector.ScorePair("2011-01-01", "2011.01.02");
  auto b = detector.ScorePair("2011.01.02", "2011-01-01");
  EXPECT_EQ(a.incompatible, b.incompatible);
  EXPECT_DOUBLE_EQ(a.confidence, b.confidence);
  EXPECT_DOUBLE_EQ(a.min_npmi, b.min_npmi);
}

TEST_F(DetectFixture, TinyColumnsProduceNoFindings) {
  Detector detector(model_);
  EXPECT_FALSE(Analyze(detector, {}).HasFindings());
  EXPECT_FALSE(Analyze(detector, {"a"}).HasFindings());
  // All-identical values: one distinct value, nothing to compare.
  EXPECT_FALSE(Analyze(detector, {"x", "x", "x"}).HasFindings());
}

TEST_F(DetectFixture, PairFindingsAreCappedAndSorted) {
  DetectorOptions opts;
  opts.max_pair_findings = 3;
  Detector detector(model_, opts);
  std::vector<std::string> col = {"2011-01-01", "2011-01-02", "2011-01-03",
                                  "2011/01/04", "2011.01.05", "Jul-06"};
  ColumnReport report = Analyze(detector, col);
  EXPECT_LE(report.pairs.size(), 3u);
  for (size_t i = 1; i < report.pairs.size(); ++i) {
    EXPECT_GE(report.pairs[i - 1].confidence, report.pairs[i].confidence);
  }
}

TEST_F(DetectFixture, MinConfidenceFilters) {
  DetectorOptions opts;
  opts.min_confidence = 1.1;  // unattainable
  Detector detector(model_, opts);
  std::vector<std::string> col = {"2011-01-01", "2011-01-02", "2011/01/03"};
  EXPECT_FALSE(Analyze(detector, col).HasFindings());
}

TEST_F(DetectFixture, AggregationVariantsAllRun) {
  std::vector<std::string> col = {"1962", "1981", "1974", "1990", "1865."};
  for (Aggregation a :
       {Aggregation::kMaxConfidence, Aggregation::kAvgNpmi, Aggregation::kMinNpmi,
        Aggregation::kMajorityVote, Aggregation::kWeightedMajorityVote,
        Aggregation::kBestSingle}) {
    DetectorOptions opts;
    opts.aggregation = a;
    Detector detector(model_, opts);
    ColumnReport report = Analyze(detector, col);  // must not crash
    (void)report;
    auto verdict = detector.ScorePair("1962", "1865.");
    EXPECT_GE(verdict.confidence, 0.0) << AggregationName(a);
    EXPECT_LE(verdict.confidence, 1.0) << AggregationName(a);
  }
}

TEST_F(DetectFixture, AggregationNamesDistinct) {
  EXPECT_EQ(AggregationName(Aggregation::kMaxConfidence), "Auto-Detect");
  EXPECT_EQ(AggregationName(Aggregation::kMajorityVote), "MV");
  EXPECT_EQ(AggregationName(Aggregation::kBestSingle), "BestOne");
}

TEST_F(DetectFixture, SaveLoadRoundTripPreservesVerdicts) {
  std::string path = TempPath("ad_model_test.bin");
  ASSERT_TRUE(model_->Save(path).ok());
  auto loaded = Model::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->languages.size(), model_->languages.size());
  EXPECT_EQ(loaded->trained_columns, model_->trained_columns);
  EXPECT_EQ(loaded->corpus_name, model_->corpus_name);

  Detector original(model_);
  Detector restored(&*loaded);
  for (auto [u, v] : std::vector<std::pair<const char*, const char*>>{
           {"2011-01-01", "2011.01.02"},
           {"999", "1,000"},
           {"1962", "1865."},
           {"July-01", "2014-01"}}) {
    auto a = original.ScorePair(u, v);
    auto b = restored.ScorePair(u, v);
    EXPECT_EQ(a.incompatible, b.incompatible) << u << "/" << v;
    EXPECT_DOUBLE_EQ(a.confidence, b.confidence) << u << "/" << v;
  }
  std::filesystem::remove(path);
}

TEST_F(DetectFixture, LoadRejectsGarbageFile) {
  std::string path = TempPath("ad_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a model";
  }
  EXPECT_FALSE(Model::Load(path).ok());
  std::filesystem::remove(path);
  EXPECT_TRUE(Model::Load("/no/such/file.bin").status().IsIOError());
}

TEST_F(DetectFixture, BudgetSweepIsMonotoneInLanguages) {
  auto small = session_->Finalize(256ull << 10, 1.0);
  auto large = session_->Finalize(32ull << 20, 1.0);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_LE(small->languages.size(), large->languages.size());
  EXPECT_LE(small->MemoryBytes(), 256ull << 10);
}

TEST_F(DetectFixture, SketchedModelStillDetects) {
  // 50% compression: this fixture's dictionaries are tiny (6K training
  // columns), so the paper's 1-10% ratios would leave too few counters for
  // the never-underestimating min estimator — collision overestimates hide
  // the weak incompatibility signal a 5-row column produces. What is under
  // test is the sketch path end-to-end, not the ratio; the realistic-scale
  // ratios are gated by tests/quality_delta_test.cc.
  auto sketched = session_->Finalize(32ull << 20, 0.5);
  ASSERT_TRUE(sketched.ok());
  for (const auto& l : sketched->languages) EXPECT_TRUE(l.stats.uses_sketch());
  EXPECT_LT(sketched->MemoryBytes(), model_->MemoryBytes());
  Detector detector(&*sketched);
  std::vector<std::string> col = {"2011-01-01", "2011-01-02", "2011-01-03",
                                  "2011-01-04", "2011/01/05"};
  ColumnReport report = Analyze(detector, col);
  ASSERT_TRUE(report.HasFindings());
  EXPECT_EQ(report.Top()->value, "2011/01/05");
}

TEST_F(DetectFixture, RecalibrateChangesSmoothing) {
  TrainSession session = *session_;  // work on a copy
  session.RecalibrateInPlace(0.3);
  auto model = session.Finalize();
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->smoothing_factor, 0.3);
  session.RecalibrateInPlace(0.1);  // restore-style second call also works
  auto model2 = session.Finalize();
  ASSERT_TRUE(model2.ok());
  EXPECT_DOUBLE_EQ(model2->smoothing_factor, 0.1);
}

TEST_F(DetectFixture, ExplainPairShowsEvidence) {
  Detector detector(model_);
  PairExplanation explanation = detector.ExplainPair("2011-01-01", "2011/01/02");
  EXPECT_TRUE(explanation.verdict.incompatible);
  ASSERT_EQ(explanation.languages.size(), model_->languages.size());
  bool any_fired = false;
  for (const auto& e : explanation.languages) {
    EXPECT_FALSE(e.language_name.empty());
    EXPECT_FALSE(e.pattern_u.empty());
    EXPECT_GE(e.npmi, -1.0);
    EXPECT_LE(e.npmi, 1.0);
    any_fired |= e.fired;
    if (e.fired) {
      EXPECT_LE(e.npmi, e.threshold);
    }
  }
  EXPECT_TRUE(any_fired);
  std::string rendered = explanation.ToString();
  EXPECT_NE(rendered.find("INCOMPATIBLE"), std::string::npos);
  EXPECT_NE(rendered.find("fires"), std::string::npos);
}

TEST_F(DetectFixture, ExplainPairCompatibleCase) {
  Detector detector(model_);
  PairExplanation explanation = detector.ExplainPair("1999-12-31", "2000-01-01");
  EXPECT_FALSE(explanation.verdict.incompatible);
  for (const auto& e : explanation.languages) EXPECT_FALSE(e.fired);
  EXPECT_NE(explanation.ToString().find("compatible"), std::string::npos);
}

TEST(TrainerTest, FailsOnEmptySource) {
  Corpus corpus;
  CorpusSource source(&corpus);
  TrainOptions options;
  EXPECT_FALSE(TrainModel(&source, options).ok());
}

TEST(TrainerTest, RejectsBadSketchRatio) {
  GeneratorOptions gen;
  gen.num_columns = 400;
  gen.inject_errors = false;
  gen.seed = 88;
  GeneratedColumnSource source(gen);
  TrainOptions train;
  train.stats.language_ids = {LanguageSpace::IdOf(LanguageSpace::CrudeG()),
                              LanguageSpace::IdOf(LanguageSpace::PaperL1())};
  train.supervision.target_positives = 500;
  train.supervision.target_negatives = 500;
  TrainSession session(train);
  ASSERT_TRUE(session.BuildStats(&source).ok());
  ASSERT_TRUE(session.Supervise(&source).ok());
  EXPECT_FALSE(session.Finalize(1ull << 20, 0.0).ok());
  EXPECT_FALSE(session.Finalize(1ull << 20, 1.5).ok());
}

TEST(TrainerTest, TinyBudgetErrorsWhenNothingFits) {
  GeneratorOptions gen;
  gen.num_columns = 400;
  gen.inject_errors = false;
  gen.seed = 89;
  GeneratedColumnSource source(gen);
  TrainOptions train;
  train.stats.language_ids = {LanguageSpace::IdOf(LanguageSpace::CrudeG()),
                              LanguageSpace::IdOf(LanguageSpace::PaperL1())};
  train.supervision.target_positives = 500;
  train.supervision.target_negatives = 500;
  TrainSession session(train);
  ASSERT_TRUE(session.BuildStats(&source).ok());
  ASSERT_TRUE(session.Supervise(&source).ok());
  auto model = session.Finalize(/*memory_budget_bytes=*/1, 1.0);
  EXPECT_FALSE(model.ok());
  EXPECT_TRUE(model.status().IsCapacityExceeded());
}

}  // namespace
}  // namespace autodetect
