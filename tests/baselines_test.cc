// Tests for all ten baseline detectors plus Union. Each baseline has its
// own failure/strength profile; tests exercise the behaviours the paper's
// comparison relies on.

#include <gtest/gtest.h>

#include "baselines/cdm.h"
#include "baselines/dboost.h"
#include "baselines/distance_outliers.h"
#include "baselines/fregex.h"
#include "baselines/linear.h"
#include "baselines/lsa.h"
#include "baselines/lzw.h"
#include "baselines/pwheel.h"
#include "baselines/union_method.h"

namespace autodetect {
namespace {

std::vector<std::string> YearsWithDot() {
  return {"1962", "1981", "1974", "1990", "2003", "1944", "1958", "1865."};
}

std::vector<std::string> DatesWithForeign() {
  return {"2011-01-01", "2011-02-02", "2011-03-03",
          "2011-04-04", "2011-05-05", "Seattle"};
}

bool Flags(const ErrorDetectorMethod& m, const std::vector<std::string>& column,
           const std::string& value) {
  for (const auto& s : m.RankColumn(column)) {
    if (s.value == value) return true;
  }
  return false;
}

// ---------------------------------------------------------- shared basics

// One baseline under test. It prints as its name: gtest's default shared_ptr
// printer shows heap addresses, and gtest_discover_tests builds the ctest id
// from the printed parameter, so the ids would change on every build.
struct Baseline {
  std::shared_ptr<ErrorDetectorMethod> method;
  const ErrorDetectorMethod& operator*() const { return *method; }
};

void PrintTo(const Baseline& b, std::ostream* os) {
  std::string name(b.method->name());
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  *os << name;
}

class EveryBaselineTest : public ::testing::TestWithParam<Baseline> {};

TEST_P(EveryBaselineTest, EmptyAndTinyColumnsYieldNothing) {
  const auto& m = *GetParam();
  EXPECT_TRUE(m.RankColumn({}).empty()) << m.name();
  EXPECT_TRUE(m.RankColumn({"a"}).empty()) << m.name();
  EXPECT_TRUE(m.RankColumn({"a", "a"}).empty()) << m.name();
}

TEST_P(EveryBaselineTest, UniformColumnYieldsNothing) {
  const auto& m = *GetParam();
  std::vector<std::string> uniform(12, "2011-01-01");
  EXPECT_TRUE(m.RankColumn(uniform).empty()) << m.name();
}

TEST_P(EveryBaselineTest, RankedByDescendingScore) {
  const auto& m = *GetParam();
  std::vector<std::string> messy = {"1962", "1981",   "1974",  "1990",
                                    "18.5", "Sea",    "1865.", "2:45",
                                    "2003", "(1999)", "1944",  "1958"};
  auto out = m.RankColumn(messy);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out[i - 1].score, out[i].score) << m.name();
  }
}

TEST_P(EveryBaselineTest, RowsPointAtActualValues) {
  const auto& m = *GetParam();
  std::vector<std::string> column = DatesWithForeign();
  for (const auto& s : m.RankColumn(column)) {
    ASSERT_LT(s.row, column.size()) << m.name();
    EXPECT_EQ(column[s.row], s.value) << m.name();
  }
}

TEST_P(EveryBaselineTest, Deterministic) {
  const auto& m = *GetParam();
  auto column = YearsWithDot();
  auto a = m.RankColumn(column);
  auto b = m.RankColumn(column);
  ASSERT_EQ(a.size(), b.size()) << m.name();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].value, b[i].value);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBaselines, EveryBaselineTest,
    ::testing::Values(Baseline{std::make_shared<FRegexDetector>()},
                      Baseline{std::make_shared<PWheelDetector>()},
                      Baseline{std::make_shared<DBoostDetector>()},
                      Baseline{std::make_shared<LinearDetector>()},
                      Baseline{std::make_shared<LinearPDetector>()},
                      Baseline{std::make_shared<CdmDetector>()},
                      Baseline{std::make_shared<LsaDetector>()},
                      Baseline{std::make_shared<SvddDetector>()},
                      Baseline{std::make_shared<DbodDetector>()},
                      Baseline{std::make_shared<LofDetector>()}));

// ----------------------------------------------------------------- FRegex

TEST(FRegexTest, FlagsNonConformingValueInTypedColumn) {
  FRegexDetector m;
  std::vector<std::string> emails = {"alice@example.com", "bob@mail.org",
                                     "carol@corp.net", "dave@uni.edu",
                                     "not-an-email"};
  auto out = m.RankColumn(emails);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, "not-an-email");
  EXPECT_NEAR(out[0].score, 0.8, 1e-9);  // 4/5 conforming
}

TEST(FRegexTest, NoPredictionWithoutDominantType) {
  FRegexDetector m;
  // Nothing regex-typable dominates here.
  std::vector<std::string> column = {"a-1", "?x", "==", "~~", "zz9!"};
  EXPECT_TRUE(m.RankColumn(column).empty());
}

TEST(FRegexTest, Col1SeparatorsConfuseIt) {
  // The paper's Col-1: local regex typing flags the separated value.
  FRegexDetector m;
  std::vector<std::string> col;
  for (int i = 0; i < 12; ++i) col.push_back(std::to_string(100 + i));
  col.push_back("1,000");
  EXPECT_TRUE(Flags(m, col, "1,000"));
}

TEST(FRegexTest, TypeLibraryIsBroad) {
  EXPECT_GE(FRegexDetector().types().size(), 15u);
}

// ----------------------------------------------------------------- PWheel

TEST(PWheelTest, FlagsStructuralOutlier) {
  PWheelDetector m;
  EXPECT_TRUE(Flags(m, DatesWithForeign(), "Seattle"));
  EXPECT_TRUE(Flags(m, YearsWithDot(), "1865."));
}

TEST(PWheelTest, UniformStructureClean) {
  PWheelDetector m;
  std::vector<std::string> dates;
  for (int d = 1; d <= 9; ++d) dates.push_back("2011-01-0" + std::to_string(d));
  EXPECT_TRUE(m.RankColumn(dates).empty());
}

TEST(PWheelTest, FiftyFiftyMixtureNotFlagged) {
  // The paper's Col-3 observation: MDL keeps both patterns for a 50-50 mix
  // and reports nothing.
  PWheelDetector m;
  std::vector<std::string> col;
  for (int i = 1; i <= 6; ++i) {
    col.push_back("2011-01-0" + std::to_string(i));
    col.push_back("2011/02/0" + std::to_string(i));
  }
  EXPECT_TRUE(m.RankColumn(col).empty());
}

TEST(PWheelTest, InferPatternsCoversCleanValues) {
  PWheelDetector m;
  auto patterns = m.InferPatterns(YearsWithDot());
  EXPECT_FALSE(patterns.empty());
}

// ----------------------------------------------------------------- dBoost

TEST(DBoostTest, FlagsShapeDeviant) {
  DBoostDetector m;
  EXPECT_TRUE(Flags(m, YearsWithDot(), "1865."));
}

TEST(DBoostTest, FlagsNumericSigmaOutlier) {
  DBoostDetector m;
  std::vector<std::string> col = {"10", "11", "12", "10", "11", "12",
                                  "11", "10", "12", "11", "90000"};
  EXPECT_TRUE(Flags(m, col, "90000"));
}

TEST(DBoostTest, FlagsImplausibleDateField) {
  DBoostDetector m;
  std::vector<std::string> col = {"2011-01-01", "2011-02-02", "2011-03-03",
                                  "2011-99-04", "2011-05-05"};
  EXPECT_TRUE(Flags(m, col, "2011-99-04"));
}

TEST(DBoostTest, ToleratesEpsilonFractionMixtures) {
  DBoostDetector m;
  // 50-50 mixture: no dominant mode, no shape prediction.
  std::vector<std::string> col;
  for (int i = 1; i <= 6; ++i) {
    col.push_back(std::to_string(i * 11));
    col.push_back("v" + std::to_string(i));
  }
  EXPECT_FALSE(Flags(m, col, "v1"));
}

// ----------------------------------------------------------------- Linear

TEST(LinearTest, FlagsClassDeviant) {
  LinearDetector m;
  EXPECT_TRUE(Flags(m, DatesWithForeign(), "Seattle"));
}

TEST(LinearPTest, GeneralizationReducesFalseAlarmsOnVaryingText) {
  // Raw Linear sees each name as deviating positions; LinearP generalizes
  // first, so a same-pattern column scores cleaner.
  std::vector<std::string> names = {"Amy Lake", "Bob Hill", "Eva Rose",
                                    "Tom Wood", "Joe Dale"};
  LinearDetector raw;
  LinearPDetector generalized;
  EXPECT_LE(generalized.RankColumn(names).size(), raw.RankColumn(names).size());
}

// -------------------------------------------------------------------- LZW

TEST(LzwTest, EmptyIsZero) { EXPECT_EQ(LzwCompressedBits(""), 0u); }

TEST(LzwTest, RepetitiveCompressesBetterThanDiverse) {
  std::string repetitive(64, 'a');
  std::string diverse;
  for (int i = 0; i < 64; ++i) diverse.push_back(static_cast<char>('!' + (i * 7) % 90));
  EXPECT_LT(LzwCompressedBits(repetitive), LzwCompressedBits(diverse));
}

TEST(LzwTest, BitsGrowWithLength) {
  EXPECT_LT(LzwCompressedBits("abc"), LzwCompressedBits("abcabcabcabcXYZW"));
  EXPECT_EQ(LzwCompressedBytes("a"), 2u);  // 9 bits -> 2 bytes
}

// -------------------------------------------------------------------- CDM

TEST(CdmTest, SelfDistanceBelowCrossDistance) {
  double self = CdmDetector::Distance("\\D[4]-\\D[2]", "\\D[4]-\\D[2]");
  double cross = CdmDetector::Distance("\\D[4]-\\D[2]", "\\U\\l[6] \\l[4]");
  EXPECT_LT(self, cross);
}

TEST(CdmTest, FlagsForeignValue) {
  CdmDetector m;
  EXPECT_TRUE(Flags(m, DatesWithForeign(), "Seattle"));
}

// -------------------------------------------------------------------- LSA

TEST(LsaTest, FlagsEntropyReducingOutlier) {
  LsaDetector m;
  EXPECT_TRUE(Flags(m, DatesWithForeign(), "Seattle"));
}

TEST(LsaTest, BalancedTwoPatternColumnKeepsBoth) {
  LsaDetector m;
  std::vector<std::string> col;
  for (int i = 1; i <= 6; ++i) {
    col.push_back("2011-01-0" + std::to_string(i));
    col.push_back("Name" + std::to_string(i));
  }
  // Removing either half within the 30% budget cannot de-mix a 50-50
  // two-pattern column; LSA can spend at most its removal budget.
  EXPECT_LE(m.RankColumn(col).size(),
            static_cast<size_t>(LsaDetector::kMaxRemovalFraction * col.size()) + 1);
}

// ----------------------------------------------------- distance outliers

TEST(SvddTest, FlagsValueOutsideBall) {
  SvddDetector m;
  EXPECT_TRUE(Flags(m, DatesWithForeign(), "Seattle"));
}

TEST(DbodTest, FlagsIsolatedSingleton) {
  DbodDetector m;
  EXPECT_TRUE(Flags(m, DatesWithForeign(), "Seattle"));
}

TEST(DbodTest, DuplicatedValuesAreNeverOutliers) {
  DbodDetector m;
  std::vector<std::string> col = {"x-1", "x-1", "9999", "9999", "abc", "abc"};
  EXPECT_TRUE(m.RankColumn(col).empty());
}

TEST(LofTest, FlagsLowDensityPoint) {
  LofDetector m;
  std::vector<std::string> col = {"2011-01-01", "2011-02-02", "2011-03-03",
                                  "2011-04-04", "2011-05-05", "2011-06-06",
                                  "Seattle"};
  EXPECT_TRUE(Flags(m, col, "Seattle"));
}

// ------------------------------------------------------------------ Union

TEST(UnionTest, CombinesConstituentPredictions) {
  FRegexDetector fregex;
  PWheelDetector pwheel;
  UnionDetector m({&fregex, &pwheel});
  EXPECT_EQ(m.name(), "Union");
  EXPECT_TRUE(Flags(m, YearsWithDot(), "1865."));
}

TEST(UnionTest, ScoresReflectConsensus) {
  FRegexDetector fregex;
  PWheelDetector pwheel;
  DBoostDetector dboost;
  UnionDetector m({&fregex, &pwheel, &dboost});
  auto out = m.RankColumn(YearsWithDot());
  ASSERT_FALSE(out.empty());
  // "1865." is flagged by several constituents, so it leads with a vote
  // fraction near 1; no score exceeds 1 + tiebreak.
  EXPECT_EQ(out[0].value, "1865.");
  EXPECT_GT(out[0].score, 0.5);
  for (const auto& s : out) {
    EXPECT_GE(s.score, 0.0);
    EXPECT_LE(s.score, 1.01);
  }
}

TEST(UnionTest, EmptyConstituentsYieldNothing) {
  UnionDetector m({});
  EXPECT_TRUE(m.RankColumn(YearsWithDot()).empty());
}

// -------------------------------------------------------------- utilities

TEST(BaselineUtilTest, ClassPattern) {
  EXPECT_EQ(baseline_util::ClassPattern("2011-01-01"),
            "\\D[4]-\\D[2]-\\D[2]");
  EXPECT_EQ(baseline_util::ClassPattern("Ab1"), "\\L[2]\\D");
}

TEST(BaselineUtilTest, DistinctWithCounts) {
  auto d = baseline_util::DistinctWithCounts({"a", "b", "a", "c", "a"});
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d[0].value, "a");
  EXPECT_EQ(d[0].count, 3u);
  EXPECT_EQ(d[0].first_row, 0u);
  EXPECT_EQ(d[1].value, "b");
  EXPECT_EQ(d[1].first_row, 1u);
}

}  // namespace
}  // namespace autodetect
