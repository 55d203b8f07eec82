// Tests for the training subsystem: distant supervision, threshold
// calibration (Eq. 8) and budgeted language selection (Algorithm 1).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/random.h"
#include "stats/npmi.h"
#include "text/pattern.h"
#include "corpus/corpus_generator.h"
#include "stats/stats_builder.h"
#include "train/calibration.h"
#include "train/distant_supervision.h"
#include "train/selection.h"

namespace autodetect {
namespace {

// Shared small world: a clean corpus plus crude-G statistics.
class SupervisionFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions gen;
    gen.num_columns = 3000;
    gen.inject_errors = false;
    gen.seed = 321;
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
    stats_ = nullptr;
    corpus_ = nullptr;
    crude_ = nullptr;
  }

  static Corpus* corpus_;
  static CorpusStats* stats_;
  static const FrozenStats* crude_;
};

Corpus* SupervisionFixture::corpus_ = nullptr;
CorpusStats* SupervisionFixture::stats_ = nullptr;
const FrozenStats* SupervisionFixture::crude_ = nullptr;

TEST_F(SupervisionFixture, GeneratesRequestedCounts) {
  CorpusSource source(corpus_);
  DistantSupervisionOptions opts;
  opts.target_positives = 500;
  opts.target_negatives = 500;
  auto train = GenerateTrainingSet(&source, *crude_, opts);
  ASSERT_TRUE(train.ok());
  EXPECT_EQ(train->positives.size(), 500u);
  EXPECT_EQ(train->negatives.size(), 500u);
  EXPECT_EQ(train->size(), 1000u);
  for (const auto& p : train->positives) EXPECT_TRUE(p.compatible);
  for (const auto& p : train->negatives) EXPECT_FALSE(p.compatible);
}

TEST_F(SupervisionFixture, DeterministicForSeed) {
  CorpusSource s1(corpus_), s2(corpus_);
  DistantSupervisionOptions opts;
  opts.target_positives = 200;
  opts.target_negatives = 200;
  auto a = GenerateTrainingSet(&s1, *crude_, opts);
  auto b = GenerateTrainingSet(&s2, *crude_, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->positives.size(), b->positives.size());
  for (size_t i = 0; i < a->positives.size(); ++i) {
    EXPECT_EQ(a->positives[i].u, b->positives[i].u);
    EXPECT_EQ(a->positives[i].v, b->positives[i].v);
  }
}

TEST_F(SupervisionFixture, NegativesRespectPruneThreshold) {
  CorpusSource source(corpus_);
  DistantSupervisionOptions opts;
  opts.target_positives = 50;
  opts.target_negatives = 300;
  auto train = GenerateTrainingSet(&source, *crude_, opts);
  ASSERT_TRUE(train.ok());
  NpmiScorer scorer(crude_, opts.smoothing_factor);
  GeneralizationLanguage crude = LanguageSpace::CrudeG();
  for (const auto& p : train->negatives) {
    double s = scorer.Score(GeneralizeToKey(p.u, crude), GeneralizeToKey(p.v, crude));
    EXPECT_LT(s, opts.negative_prune_threshold) << p.u << " / " << p.v;
  }
}

TEST_F(SupervisionFixture, DiversePositivesIncludeFormatVariety) {
  CorpusSource source(corpus_);
  DistantSupervisionOptions opts;
  opts.target_positives = 1000;
  opts.target_negatives = 50;
  opts.diverse_positive_fraction = 0.8;
  auto train = GenerateTrainingSet(&source, *crude_, opts);
  ASSERT_TRUE(train.ok());
  GeneralizationLanguage crude = LanguageSpace::CrudeG();
  size_t cross_pattern = 0;
  for (const auto& p : train->positives) {
    if (GeneralizeToKey(p.u, crude) != GeneralizeToKey(p.v, crude)) ++cross_pattern;
  }
  EXPECT_GT(cross_pattern, train->positives.size() / 4);
}

TEST(SupervisionTest, FailsOnDegenerateCorpus) {
  Corpus corpus;  // empty
  CorpusSource source(&corpus);
  FrozenStats stats = Freeze(LanguageStats());
  DistantSupervisionOptions opts;
  EXPECT_FALSE(GenerateTrainingSet(&source, stats, opts).ok());
}

// ------------------------------------------------------------ Calibration

/// Hand-built world: patterns A/B co-occur (compatible), A/C never do.
/// Training pairs are (a1,a2)+ identical-pattern positives, (a,b)+ cross
/// but compatible, (a,c)- incompatible.
struct CalibrationWorld {
  LanguageStats stats;
  TrainingSet train;
  GeneralizationLanguage lang = LanguageSpace::PaperL1();

  CalibrationWorld() {
    uint64_t a = GeneralizeToKey("1234", lang);    // \A[4]
    uint64_t b = GeneralizeToKey("12345", lang);   // \A[5]
    uint64_t c = GeneralizeToKey("12-34", lang);   // \A[2]-\A[2]
    for (int i = 0; i < 60; ++i) stats.AddColumn({a, b});
    for (int i = 0; i < 40; ++i) stats.AddColumn({c});
    for (int i = 0; i < 30; ++i) train.positives.push_back({"1234", "5678", true});
    for (int i = 0; i < 30; ++i) train.positives.push_back({"1234", "56789", true});
    for (int i = 0; i < 40; ++i) train.negatives.push_back({"1234", "56-78", false});
  }
};

TEST(CalibrationTest, FindsThresholdSeparatingNegatives) {
  CalibrationWorld world;
  CalibrationOptions opts;
  opts.precision_target = 0.95;
  CalibrationResult result =
      CalibrateLanguage(world.lang, world.stats, world.train, opts);
  ASSERT_TRUE(result.has_threshold);
  EXPECT_LT(result.threshold, 0.0);
  EXPECT_EQ(result.covered_count, 40u);  // every negative covered
  EXPECT_GE(result.precision_at_threshold, 0.95);
  // Coverage bitset marks all negatives.
  EXPECT_EQ(result.covered_negatives.Popcount(), 40u);
}

TEST(CalibrationTest, ImpossibleTargetYieldsNoThreshold) {
  CalibrationWorld world;
  // Make the lowest-scoring group contain a positive: the same pattern pair
  // as the negatives.
  world.train.positives.push_back({"12-99", "77-66", true});
  // (That pair scores 1.0 — same pattern — so instead poison with a pair
  // whose score equals the negatives': a (compatible-labeled) A/C pair.)
  world.train.positives.push_back({"1234", "12-34", true});
  CalibrationOptions opts;
  opts.precision_target = 1.0;  // unreachable: the poisoned group mixes labels
  CalibrationResult result =
      CalibrateLanguage(world.lang, world.stats, world.train, opts);
  EXPECT_FALSE(result.has_threshold);
  EXPECT_EQ(result.covered_count, 0u);
}

TEST(CalibrationTest, MaxThresholdCapsTheta) {
  CalibrationWorld world;
  CalibrationOptions opts;
  opts.precision_target = 0.5;
  opts.max_threshold = -0.01;
  CalibrationResult result =
      CalibrateLanguage(world.lang, world.stats, world.train, opts);
  if (result.has_threshold) {
    EXPECT_LE(result.threshold, -0.01);
  }
}

TEST(CalibrationTest, EmptyTrainingSetIsHandled) {
  CalibrationWorld world;
  TrainingSet empty;
  CalibrationOptions opts;
  CalibrationResult result = CalibrateLanguage(world.lang, world.stats, empty, opts);
  EXPECT_FALSE(result.has_threshold);
}

TEST(CalibrationTest, CurvePrecisionIsMonotoneLookup) {
  PrecisionCurve curve({{-1.0, 0.99}, {-0.5, 0.9}, {0.0, 0.6}});
  EXPECT_DOUBLE_EQ(curve.PrecisionAt(-2.0), 0.99);  // below range: first point
  EXPECT_DOUBLE_EQ(curve.PrecisionAt(-1.0), 0.99);
  EXPECT_DOUBLE_EQ(curve.PrecisionAt(-0.7), 0.99);  // between points: floor
  EXPECT_DOUBLE_EQ(curve.PrecisionAt(-0.5), 0.9);
  EXPECT_DOUBLE_EQ(curve.PrecisionAt(0.5), 0.6);  // above range: last point
  EXPECT_DOUBLE_EQ(PrecisionCurve().PrecisionAt(0.0), 0.0);
}

TEST(CalibrationTest, ScoreTrainingSetOrdersPositivesThenNegatives) {
  CalibrationWorld world;
  auto scores = ScoreTrainingSet(world.lang, world.stats, world.train, 0.1);
  EXPECT_EQ(scores.size(), world.train.size());
  // Positives (identical or co-occurring patterns) score higher on average.
  double pos = 0, neg = 0;
  for (size_t i = 0; i < world.train.positives.size(); ++i) pos += scores[i];
  for (size_t i = world.train.positives.size(); i < scores.size(); ++i) {
    neg += scores[i];
  }
  pos /= static_cast<double>(world.train.positives.size());
  neg /= static_cast<double>(world.train.negatives.size());
  EXPECT_GT(pos, neg);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void ExpectSameCalibration(const CalibrationResult& actual,
                           const CalibrationResult& expected, const std::string& label) {
  EXPECT_EQ(actual.has_threshold, expected.has_threshold) << label;
  EXPECT_TRUE(SameBits(actual.threshold, expected.threshold)) << label;
  EXPECT_TRUE(SameBits(actual.precision_at_threshold, expected.precision_at_threshold))
      << label;
  EXPECT_EQ(actual.covered_count, expected.covered_count) << label;
  EXPECT_TRUE(actual.covered_negatives == expected.covered_negatives) << label;
  ASSERT_EQ(actual.curve.size(), expected.curve.size()) << label;
  EXPECT_EQ(std::memcmp(actual.curve.data(), expected.curve.data(),
                        actual.curve.size() * sizeof(PrecisionCurve::Point)),
            0)
      << label;
}

TEST(CalibrationMergeJoinTest, ScoresAndResultsBitIdenticalToHashedScorer) {
  // Sorted statistics, as the training session holds them, over a random
  // corpus and a spread of languages.
  GeneratorOptions gen;
  gen.num_columns = 400;
  gen.seed = 35;
  Corpus corpus = GenerateCorpus(gen);
  CorpusSource source(&corpus);
  StatsBuilderOptions opts;
  opts.language_ids = {0, 5, 17, 40, LanguageSpace::IdOf(LanguageSpace::CrudeG()), 100, 143};
  CorpusStats stats = BuildCorpusStats(&source, opts);

  // Random pairs over corpus values, some identical, some with a value the
  // corpus never saw.
  Pcg32 rng(36);
  std::vector<std::string> values = {"", "~~zz~~", "qqqqqqqqqqqqqqqqqqqqqqqq#", "0"};
  for (const Column& column : corpus.columns()) {
    for (size_t v = 0; v < column.values.size() && v < 4; ++v) values.push_back(column.values[v]);
  }
  auto pick = [&] { return values[rng.Below(static_cast<uint32_t>(values.size()))]; };
  TrainingSet train;
  for (int i = 0; i < 1500; ++i) {
    const std::string u = pick();
    const std::string v = i % 10 == 0 ? u : pick();
    (i % 3 == 0 ? train.positives : train.negatives).push_back({u, v, i % 3 == 0});
  }
  PreKeyedTrainingSet prekeyed(train, opts.language_ids);

  for (double f : {0.0, 0.1}) {
    CalibrationOptions copts;
    copts.smoothing_factor = f;
    for (size_t pos = 0; pos < opts.language_ids.size(); ++pos) {
      const int id = opts.language_ids[pos];
      const std::string label = "language " + std::to_string(id) + ", f " + std::to_string(f);
      const GeneralizationLanguage& lang = LanguageSpace::All()[static_cast<size_t>(id)];
      const LanguageStats& sorted = stats.ForLanguage(id);
      const FrozenStats frozen = Freeze(sorted);
      NpmiScorer scorer(&frozen, f);
      std::vector<double> reference;
      for (const auto* side : {&train.positives, &train.negatives}) {
        for (const LabeledPair& p : *side) {
          reference.push_back(scorer.Score(GeneralizeToKey(p.u, lang), GeneralizeToKey(p.v, lang)));
        }
      }

      const std::vector<double> joined = prekeyed.Score(pos, sorted, f);
      const std::vector<double> by_string = ScoreTrainingSet(lang, sorted, train, f);
      ASSERT_EQ(joined.size(), reference.size()) << label;
      ASSERT_EQ(by_string.size(), reference.size()) << label;
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_TRUE(SameBits(joined[i], reference[i]))
            << label << ", pair " << i << ": " << joined[i] << " vs " << reference[i];
        ASSERT_TRUE(SameBits(by_string[i], reference[i])) << label << ", pair " << i;
      }

      const CalibrationResult expected = CalibrateScores(
          reference, train.positives.size(), train.negatives.size(), copts);
      ExpectSameCalibration(CalibrateLanguage(pos, sorted, prekeyed, copts), expected,
                            label + ", pre-keyed");
      ExpectSameCalibration(CalibrateLanguage(lang, sorted, train, copts), expected,
                            label + ", by string");
    }
  }
}

// Eq. 8 on hand-built score vectors: θ_k is the largest score such that
// every prefix boundary up to it has precision (negatives / flagged) >= P.

TEST(CalibrateScoresTest, PrefixAtExactlyTargetPrecisionIsIncluded) {
  // Ascending: -0.9 n, -0.8 n, -0.7 n, -0.6 {n, p} -> 4/5 = 0.8 exactly,
  // then -0.5 p -> 4/6.
  const std::vector<double> scores = {-0.6, -0.5,               // positives
                                      -0.9, -0.8, -0.7, -0.6};  // negatives
  CalibrationOptions options;
  options.precision_target = 0.8;
  const CalibrationResult r = CalibrateScores(scores, 2, 4, options);
  ASSERT_TRUE(r.has_threshold);
  EXPECT_EQ(r.threshold, -0.6);
  EXPECT_EQ(r.precision_at_threshold, 0.8);
  EXPECT_EQ(r.covered_count, 4u);
  for (size_t n = 0; n < 4; ++n) EXPECT_TRUE(r.covered_negatives.Test(n)) << n;
}

TEST(CalibrateScoresTest, StopsAtLastBoundaryBeforePrecisionDip) {
  // Ascending: -0.9 n (1/1), -0.8 n (2/2), -0.7 p (2/3, below P), then the
  // prefix recovers: -0.6 n (3/4), -0.5 n (4/5), -0.4 n (5/6).
  const std::vector<double> scores = {-0.7,                           // positive
                                      -0.9, -0.8, -0.6, -0.5, -0.4};  // negatives
  CalibrationOptions options;
  options.precision_target = 0.75;
  const CalibrationResult r = CalibrateScores(scores, 1, 5, options);
  ASSERT_TRUE(r.has_threshold);
  EXPECT_EQ(r.threshold, -0.8);
  EXPECT_EQ(r.precision_at_threshold, 1.0);
  EXPECT_EQ(r.covered_count, 2u);
  EXPECT_TRUE(r.covered_negatives.Test(0));
  EXPECT_TRUE(r.covered_negatives.Test(1));
  for (size_t n = 2; n < 5; ++n) EXPECT_FALSE(r.covered_negatives.Test(n)) << n;
}

// -------------------------------------------------------------- Selection

LanguageCandidate MakeCandidate(int id, size_t bytes, std::vector<size_t> bits,
                                size_t universe) {
  LanguageCandidate c;
  c.lang_id = id;
  c.size_bytes = bytes;
  c.covered = DynamicBitset(universe);
  for (size_t b : bits) c.covered.Set(b);
  return c;
}

TEST(SelectionTest, GreedyRespectsBudget) {
  std::vector<LanguageCandidate> candidates;
  candidates.push_back(MakeCandidate(0, 100, {0, 1, 2}, 10));
  candidates.push_back(MakeCandidate(1, 100, {3, 4, 5}, 10));
  candidates.push_back(MakeCandidate(2, 100, {6, 7}, 10));
  SelectionResult result = SelectLanguagesGreedy(candidates, 200);
  EXPECT_LE(result.total_bytes, 200u);
  EXPECT_EQ(result.selected.size(), 2u);
  EXPECT_EQ(result.covered_count, 6u);
}

TEST(SelectionTest, GreedyPrefersCoveragePerByte) {
  std::vector<LanguageCandidate> candidates;
  candidates.push_back(MakeCandidate(0, 1000, {0, 1, 2, 3}, 10));  // 0.004/B
  candidates.push_back(MakeCandidate(1, 10, {4, 5}, 10));          // 0.2/B
  SelectionResult result = SelectLanguagesGreedy(candidates, 1010);
  ASSERT_FALSE(result.selected.empty());
  EXPECT_EQ(result.selected[0], 1u);  // cheapest ratio first
  EXPECT_EQ(result.covered_count, 6u);
}

TEST(SelectionTest, SingletonFallbackBeatsBadGreedy) {
  // Greedy-by-ratio grabs the two tiny candidates and exhausts the budget;
  // the big candidate alone covers more.
  std::vector<LanguageCandidate> candidates;
  candidates.push_back(MakeCandidate(0, 10, {0}, 12));
  candidates.push_back(MakeCandidate(1, 10, {1}, 12));
  candidates.push_back(
      MakeCandidate(2, 100, {2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 12));
  SelectionResult result = SelectLanguagesGreedy(candidates, 110);
  // Greedy picks 0,1 (ratio 0.1) then 2 fits? 10+10+100=120 > 110, so greedy
  // covers 2; singleton covers 10 and must win.
  EXPECT_TRUE(result.singleton_fallback);
  EXPECT_EQ(result.selected, (std::vector<size_t>{2}));
  EXPECT_EQ(result.covered_count, 10u);
}

TEST(SelectionTest, ZeroCoverageCandidatesNeverPicked) {
  std::vector<LanguageCandidate> candidates;
  candidates.push_back(MakeCandidate(0, 1, {}, 4));
  candidates.push_back(MakeCandidate(1, 50, {0, 1}, 4));
  SelectionResult result = SelectLanguagesGreedy(candidates, 100);
  EXPECT_EQ(result.selected, (std::vector<size_t>{1}));
}

TEST(SelectionTest, EmptyCandidates) {
  SelectionResult result = SelectLanguagesGreedy({}, 100);
  EXPECT_TRUE(result.selected.empty());
  EXPECT_EQ(result.covered_count, 0u);
}

TEST(SelectionTest, OverBudgetEverythingYieldsEmpty) {
  std::vector<LanguageCandidate> candidates;
  candidates.push_back(MakeCandidate(0, 1000, {0}, 2));
  SelectionResult result = SelectLanguagesGreedy(candidates, 10);
  EXPECT_TRUE(result.selected.empty());
}

TEST(SelectionTest, ExhaustiveFindsOptimum) {
  std::vector<LanguageCandidate> candidates;
  candidates.push_back(MakeCandidate(0, 60, {0, 1, 2}, 8));
  candidates.push_back(MakeCandidate(1, 60, {2, 3, 4}, 8));
  candidates.push_back(MakeCandidate(2, 60, {5, 6}, 8));
  candidates.push_back(MakeCandidate(3, 130, {0, 1, 2, 3, 4, 5, 6, 7}, 8));
  SelectionResult result = SelectLanguagesExhaustive(candidates, 130);
  EXPECT_EQ(result.covered_count, 8u);
  EXPECT_EQ(result.selected, (std::vector<size_t>{3}));
}

// Property: greedy achieves at least 1/2*(1-1/e) of the exhaustive optimum
// (Lemma 3), over random instances.
class SelectionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SelectionPropertyTest, GreedyWithinApproximationBound) {
  Pcg32 rng(static_cast<uint64_t>(GetParam()));
  const size_t universe = 24;
  std::vector<LanguageCandidate> candidates;
  size_t n = 4 + rng.Below(6);
  for (size_t i = 0; i < n; ++i) {
    std::vector<size_t> bits;
    for (size_t b = 0; b < universe; ++b) {
      if (rng.Chance(0.25)) bits.push_back(b);
    }
    candidates.push_back(MakeCandidate(static_cast<int>(i),
                                       10 + rng.Below(200), bits, universe));
  }
  size_t budget = 100 + rng.Below(300);
  SelectionResult greedy = SelectLanguagesGreedy(candidates, budget);
  SelectionResult optimal = SelectLanguagesExhaustive(candidates, budget);
  EXPECT_LE(greedy.total_bytes, budget);
  const double kRatio = 0.5 * (1.0 - std::exp(-1.0));
  EXPECT_GE(static_cast<double>(greedy.covered_count) + 1e-9,
            kRatio * static_cast<double>(optimal.covered_count));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionPropertyTest, ::testing::Range(1, 21));

// --------------------------------------------------------- DT aggregation

DtSelectionInput MakeDtInput(int id, size_t bytes, std::vector<double> neg,
                             std::vector<double> pos) {
  DtSelectionInput in;
  in.lang_id = id;
  in.size_bytes = bytes;
  in.negative_scores = std::move(neg);
  in.positive_scores = std::move(pos);
  return in;
}

TEST(DtSelectionTest, PicksCleanSeparator) {
  // Language 0 separates perfectly at theta ~ -0.5; language 1 is useless
  // (negatives score like positives).
  std::vector<DtSelectionInput> inputs;
  inputs.push_back(MakeDtInput(0, 100, {-0.9, -0.8, -0.7, -0.6},
                               {0.5, 0.6, 0.7, 0.8}));
  inputs.push_back(MakeDtInput(1, 100, {0.4, 0.5, 0.4, 0.5},
                               {0.4, 0.5, 0.4, 0.5}));
  DtSelectionOptions opts;
  opts.memory_budget_bytes = 150;
  opts.precision_target = 0.9;
  DtSelectionResult result = SelectLanguagesDT(inputs, opts);
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0].first, 0);
  EXPECT_LT(result.selected[0].second, 0.0);
  EXPECT_GT(result.covered_negatives, 0u);
  EXPECT_GE(result.precision, 0.9);
}

TEST(DtSelectionTest, RespectsPrecisionConstraint) {
  // The only language covers negatives but drags in positives at any
  // negative threshold: precision 0.5 < target -> nothing selected.
  std::vector<DtSelectionInput> inputs;
  inputs.push_back(MakeDtInput(0, 10, {-0.5, -0.5}, {-0.5, -0.5}));
  DtSelectionOptions opts;
  opts.memory_budget_bytes = 100;
  opts.precision_target = 0.9;
  DtSelectionResult result = SelectLanguagesDT(inputs, opts);
  EXPECT_TRUE(result.selected.empty());
  EXPECT_EQ(result.covered_negatives, 0u);
}

TEST(DtSelectionTest, RespectsMemoryBudget) {
  std::vector<DtSelectionInput> inputs;
  inputs.push_back(MakeDtInput(0, 100, {-0.9, -0.8}, {0.9, 0.9}));
  inputs.push_back(MakeDtInput(1, 100, {0.5, -0.8}, {0.9, 0.9}));
  DtSelectionOptions opts;
  opts.memory_budget_bytes = 100;  // only one fits
  opts.precision_target = 0.5;
  DtSelectionResult result = SelectLanguagesDT(inputs, opts);
  EXPECT_LE(result.total_bytes, 100u);
  EXPECT_LE(result.selected.size(), 1u);
}

TEST(DtSelectionTest, ComplementaryLanguagesBothSelected) {
  // Each language covers a disjoint half of the negatives.
  std::vector<DtSelectionInput> inputs;
  inputs.push_back(MakeDtInput(0, 10, {-0.9, -0.9, 0.9, 0.9}, {0.8, 0.8}));
  inputs.push_back(MakeDtInput(1, 10, {0.9, 0.9, -0.9, -0.9}, {0.8, 0.8}));
  DtSelectionOptions opts;
  opts.memory_budget_bytes = 100;
  opts.precision_target = 0.9;
  DtSelectionResult result = SelectLanguagesDT(inputs, opts);
  EXPECT_EQ(result.selected.size(), 2u);
  EXPECT_EQ(result.covered_negatives, 4u);
}

TEST(DtSelectionTest, EmptyInputs) {
  DtSelectionOptions opts;
  opts.memory_budget_bytes = 100;
  EXPECT_TRUE(SelectLanguagesDT({}, opts).selected.empty());
}

}  // namespace
}  // namespace autodetect
