// Tests for the evaluation harness: test-set construction, Precision@K
// metrics and the CSV benchmark builder.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "eval/csv_benchmark.h"
#include "stats/npmi.h"
#include "text/pattern.h"
#include "eval/metrics.h"
#include "eval/testcase.h"
#include "stats/stats_builder.h"
#include "temp_path.h"

namespace autodetect {
namespace {

class EvalFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions gen;
    gen.num_columns = 3000;
    gen.inject_errors = false;
    gen.seed = 654;
    corpus_ = new Corpus(GenerateCorpus(gen));
    CorpusSource source(corpus_);
    StatsBuilderOptions opts;
    opts.language_ids = {LanguageSpace::IdOf(LanguageSpace::CrudeG())};
    stats_ = new CorpusStats(BuildCorpusStats(&source, opts));
    crude_ = new FrozenStats(Freeze(stats_->ForLanguage(opts.language_ids[0])));
  }
  static void TearDownTestSuite() {
    delete crude_;
    delete stats_;
    delete corpus_;
  }
  static Corpus* corpus_;
  static CorpusStats* stats_;
  static const FrozenStats* crude_;
};

Corpus* EvalFixture::corpus_ = nullptr;
CorpusStats* EvalFixture::stats_ = nullptr;
const FrozenStats* EvalFixture::crude_ = nullptr;

// ------------------------------------------------------------ splice sets

TEST_F(EvalFixture, SpliceSetHasRequestedShape) {
  CorpusSource source(corpus_);
  SpliceTestOptions opts;
  opts.num_dirty = 100;
  opts.clean_per_dirty = 5;
  auto cases = GenerateSpliceTestSet(&source, *crude_, opts);
  ASSERT_TRUE(cases.ok()) << cases.status().ToString();
  size_t dirty = 0, clean = 0;
  for (const auto& tc : *cases) {
    tc.dirty ? ++dirty : ++clean;
  }
  EXPECT_EQ(dirty, 100u);
  EXPECT_EQ(clean, 500u);
}

TEST_F(EvalFixture, SpliceGroundTruthPointsAtInjectedValue) {
  CorpusSource source(corpus_);
  SpliceTestOptions opts;
  opts.num_dirty = 50;
  opts.clean_per_dirty = 1;
  auto cases = GenerateSpliceTestSet(&source, *crude_, opts);
  ASSERT_TRUE(cases.ok());
  for (const auto& tc : *cases) {
    if (!tc.dirty) continue;
    ASSERT_GE(tc.dirty_index, 0);
    ASSERT_LT(static_cast<size_t>(tc.dirty_index), tc.values.size());
    EXPECT_EQ(tc.values[static_cast<size_t>(tc.dirty_index)], tc.dirty_value);
    EXPECT_EQ(tc.error_class, ErrorClass::kForeignValue);
  }
}

TEST_F(EvalFixture, SpliceVerifiedIncompatible) {
  CorpusSource source(corpus_);
  SpliceTestOptions opts;
  opts.num_dirty = 40;
  opts.clean_per_dirty = 1;
  auto cases = GenerateSpliceTestSet(&source, *crude_, opts);
  ASSERT_TRUE(cases.ok());
  NpmiScorer scorer(crude_, 0.0);
  GeneralizationLanguage crude = LanguageSpace::CrudeG();
  for (const auto& tc : *cases) {
    if (!tc.dirty) continue;
    uint64_t dk = GeneralizeToKey(tc.dirty_value, crude);
    for (size_t i = 0; i < tc.values.size(); ++i) {
      if (static_cast<int32_t>(i) == tc.dirty_index) continue;
      EXPECT_LE(scorer.Score(dk, GeneralizeToKey(tc.values[i], crude)),
                opts.incompatible_threshold);
    }
  }
}

TEST_F(EvalFixture, SpliceDeterministicForSeed) {
  CorpusSource s1(corpus_), s2(corpus_);
  SpliceTestOptions opts;
  opts.num_dirty = 30;
  auto a = GenerateSpliceTestSet(&s1, *crude_, opts);
  auto b = GenerateSpliceTestSet(&s2, *crude_, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].values, (*b)[i].values);
    EXPECT_EQ((*a)[i].dirty_index, (*b)[i].dirty_index);
  }
}

TEST(SpliceTest, FailsOnEmptySource) {
  Corpus corpus;
  CorpusSource source(&corpus);
  FrozenStats stats = Freeze(LanguageStats());
  SpliceTestOptions opts;
  EXPECT_FALSE(GenerateSpliceTestSet(&source, stats, opts).ok());
}

// --------------------------------------------------------- realistic sets

TEST(RealisticTest, ShapeAndGroundTruth) {
  RealisticTestOptions opts;
  opts.num_dirty = 60;
  opts.num_clean = 120;
  auto cases = GenerateRealisticTestSet(CorpusProfile::Wiki(), opts);
  size_t dirty = 0;
  std::set<ErrorClass> classes;
  for (const auto& tc : cases) {
    if (!tc.dirty) continue;
    ++dirty;
    classes.insert(tc.error_class);
    ASSERT_GE(tc.dirty_index, 0);
    EXPECT_EQ(tc.values[static_cast<size_t>(tc.dirty_index)], tc.dirty_value);
  }
  EXPECT_EQ(dirty, 60u);
  EXPECT_EQ(cases.size(), 180u);
  EXPECT_GE(classes.size(), 4u);  // taxonomy variety
}

TEST(RealisticTest, Deterministic) {
  RealisticTestOptions opts;
  opts.num_dirty = 20;
  opts.num_clean = 20;
  auto a = GenerateRealisticTestSet(CorpusProfile::Wiki(), opts);
  auto b = GenerateRealisticTestSet(CorpusProfile::Wiki(), opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].values, b[i].values);
}

// ---------------------------------------------------------------- metrics

/// Mock detector that flags any value containing '!' with the score encoded
/// after it ("bad!0.9" scores 0.9).
class MockMethod final : public ErrorDetectorMethod {
 public:
  std::string_view name() const override { return "Mock"; }
  std::vector<Suspicion> RankColumn(
      const std::vector<std::string>& values) const override {
    std::vector<Suspicion> out;
    for (size_t i = 0; i < values.size(); ++i) {
      size_t bang = values[i].find('!');
      if (bang == std::string::npos) continue;
      out.push_back(Suspicion{static_cast<uint32_t>(i), values[i],
                              std::stod(values[i].substr(bang + 1))});
    }
    std::sort(out.begin(), out.end(),
              [](const Suspicion& a, const Suspicion& b) { return a.score > b.score; });
    return out;
  }
};

std::vector<TestCase> MockCases() {
  // Case 0: dirty, mock flags it with high confidence (correct).
  // Case 1: dirty, mock flags the WRONG value.
  // Case 2: clean, mock flags something (false positive, mid confidence).
  // Case 3: dirty, mock flags nothing (miss).
  std::vector<TestCase> cases(4);
  cases[0].values = {"a", "bad!0.9"};
  cases[0].dirty = true;
  cases[0].dirty_index = 1;
  cases[0].dirty_value = "bad!0.9";
  cases[1].values = {"true-error", "decoy!0.8"};
  cases[1].dirty = true;
  cases[1].dirty_index = 0;
  cases[1].dirty_value = "true-error";
  cases[2].values = {"x", "fp!0.5"};
  cases[2].dirty = false;
  cases[3].values = {"missed", "clean"};
  cases[3].dirty = true;
  cases[3].dirty_index = 0;
  cases[3].dirty_value = "missed";
  return cases;
}

TEST(MetricsTest, EvaluateMethodPoolsAndRanks) {
  MockMethod mock;
  auto cases = MockCases();
  MethodEvaluation eval = EvaluateMethod(mock, cases);
  EXPECT_EQ(eval.method, "Mock");
  EXPECT_EQ(eval.num_dirty_cases, 3u);
  ASSERT_EQ(eval.ranked.size(), 3u);  // one per predicting column
  // Ranked by score: 0.9 (correct), 0.8 (wrong value), 0.5 (clean column).
  EXPECT_TRUE(eval.ranked[0].correct);
  EXPECT_FALSE(eval.ranked[1].correct);
  EXPECT_FALSE(eval.ranked[2].correct);
}

TEST(MetricsTest, PrecisionAndRecallAtK) {
  MockMethod mock;
  auto cases = MockCases();
  MethodEvaluation eval = EvaluateMethod(mock, cases);
  EXPECT_DOUBLE_EQ(eval.PrecisionAt(1), 1.0);
  EXPECT_DOUBLE_EQ(eval.PrecisionAt(2), 0.5);
  EXPECT_NEAR(eval.PrecisionAt(3), 1.0 / 3.0, 1e-12);
  // Depth beyond the prediction list counts as misses.
  EXPECT_NEAR(eval.PrecisionAt(10), 1.0 / 10.0, 1e-12);
  EXPECT_DOUBLE_EQ(eval.PrecisionAt(0), 0.0);
  EXPECT_NEAR(eval.RecallAt(3), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(eval.CorrectAt(3), 1u);
}

TEST(MetricsTest, EmptyEvaluation) {
  MethodEvaluation eval;
  EXPECT_DOUBLE_EQ(eval.PrecisionAt(10), 0.0);
  EXPECT_DOUBLE_EQ(eval.RecallAt(10), 0.0);
}

TEST(MetricsTest, FormatTableContainsMethodsAndKs) {
  MockMethod mock;
  auto cases = MockCases();
  std::vector<MethodEvaluation> evals = {EvaluateMethod(mock, cases)};
  std::string table = FormatPrecisionTable(evals, {1, 2}, "title-xyz");
  EXPECT_NE(table.find("title-xyz"), std::string::npos);
  EXPECT_NE(table.find("Mock"), std::string::npos);
  EXPECT_NE(table.find("P@1"), std::string::npos);
}

// ---------------------------------------------------------- CSV benchmark

TEST(CsvBenchmarkTest, BuildsAndReloadsConsistently) {
  CsvBenchmarkOptions opts;
  opts.directory = TempPath("ad_csvbench_test");
  opts.num_files = 5;
  opts.total_columns = 30;
  std::filesystem::remove_all(opts.directory);

  auto first = BuildCsvBenchmark(opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->size(), 30u);
  size_t dirty = 0;
  for (const auto& tc : *first) {
    if (!tc.dirty) continue;
    ++dirty;
    ASSERT_GE(tc.dirty_index, 0);
    ASSERT_LT(static_cast<size_t>(tc.dirty_index), tc.values.size());
    EXPECT_EQ(tc.values[static_cast<size_t>(tc.dirty_index)], tc.dirty_value);
  }
  EXPECT_GT(dirty, 5u);

  // Second build loads the same files (no regeneration).
  auto second = BuildCsvBenchmark(opts);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->size(), first->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*second)[i].values, (*first)[i].values);
    EXPECT_EQ((*second)[i].dirty, (*first)[i].dirty);
  }
  std::filesystem::remove_all(opts.directory);
}

}  // namespace
}  // namespace autodetect
