// Tests for the statistics subsystem: per-language (co-)occurrence counts,
// NPMI with smoothing and reliability gates, and the streaming builder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <type_traits>

#include "common/random.h"
#include "corpus/corpus_generator.h"
#include "stats/frozen_stats.h"
#include "stats/language_stats.h"
#include "stats/npmi.h"
#include "stats/stats_builder.h"
#include "stats/value_interner.h"
#include "text/pattern.h"

namespace autodetect {
namespace {

// ----------------------------------------------------------- LanguageStats

TEST(LanguageStatsTest, CountsColumnsNotOccurrences) {
  LanguageStats stats;
  stats.AddColumn({1, 2});
  stats.AddColumn({1});
  EXPECT_EQ(stats.num_columns(), 2u);
  EXPECT_EQ(stats.Count(1), 2u);
  EXPECT_EQ(stats.Count(2), 1u);
  EXPECT_EQ(stats.Count(99), 0u);
  EXPECT_EQ(stats.CoCount(1, 2), 1u);
  EXPECT_EQ(stats.CoCount(2, 1), 1u);  // unordered
  EXPECT_EQ(stats.CoCount(1, 99), 0u);
}

TEST(LanguageStatsTest, SelfCoCountEqualsCount) {
  LanguageStats stats;
  stats.AddColumn({7, 8});
  stats.AddColumn({7});
  EXPECT_EQ(stats.CoCount(7, 7), 2u);
}

TEST(LanguageStatsTest, AllPairsCountedPerColumn) {
  LanguageStats stats;
  stats.AddColumn({1, 2, 3});
  EXPECT_EQ(stats.CoCount(1, 2), 1u);
  EXPECT_EQ(stats.CoCount(1, 3), 1u);
  EXPECT_EQ(stats.CoCount(2, 3), 1u);
  EXPECT_EQ(stats.NumCoPairs(), 3u);
  EXPECT_EQ(stats.NumPatterns(), 3u);
}

TEST(LanguageStatsTest, MergeAccumulates) {
  LanguageStats a, b;
  a.AddColumn({1, 2});
  b.AddColumn({2, 3});
  b.AddColumn({1, 2});
  a.Merge(b);
  EXPECT_EQ(a.num_columns(), 3u);
  EXPECT_EQ(a.Count(2), 3u);
  EXPECT_EQ(a.CoCount(1, 2), 2u);
  EXPECT_EQ(a.CoCount(2, 3), 1u);
}

TEST(LanguageStatsTest, SerializationRoundTrip) {
  LanguageStats stats;
  stats.AddColumn({1, 2, 3});
  stats.AddColumn({2, 3});
  std::stringstream ss;
  BinaryWriter w(&ss);
  stats.Serialize(&w);
  BinaryReader r(&ss);
  auto restored = LanguageStats::Deserialize(&r);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_columns(), 2u);
  EXPECT_EQ(restored->Count(2), 2u);
  EXPECT_EQ(restored->CoCount(2, 3), 2u);
  EXPECT_EQ(restored->CoCount(1, 3), 1u);
}

TEST(LanguageStatsTest, SketchCompressionPreservesDetectionSignal) {
  // Two disjoint co-occurrence cliques: keys 0..99 only ever appear with
  // each other, keys 100..199 likewise, with zipf-skewed popularity (the
  // shape real pattern co-occurrence takes). Compress to ~25% of the
  // dictionary so counters carry several pairs each — the dense regime the
  // trainer sketches in.
  constexpr uint64_t kClique = 100;
  LanguageStats training;
  Pcg32 rng(5);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t base = (i % 2) * kClique;
    std::vector<uint64_t> keys;
    for (int j = 0; j < 6; ++j) {
      keys.push_back(base + rng.NextZipf(kClique, 1.2));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    training.AddColumn(keys);
  }
  const LanguageStats& exact = training;
  Result<FrozenStats> sketched = Freeze(training, SketchSpec{0.25});
  ASSERT_TRUE(sketched.ok());
  const FrozenStats& stats = *sketched;
  EXPECT_TRUE(stats.uses_sketch());
  EXPECT_LT(stats.MemoryBytes(), exact.MemoryBytes());

  size_t cross = 0, within = 0;
  uint64_t truth_mass = 0, over_err = 0, cross_mass = 0, within_mass = 0;
  for (uint64_t k = 0; k < 2 * kClique; ++k) {
    // Count() stays exact — only the co-occurrence table is sketched.
    EXPECT_EQ(stats.Count(k), exact.Count(k));
    for (uint64_t j = k + 1; j < 2 * kClique; ++j) {
      const uint64_t truth = exact.CoCount(k, j);
      const uint64_t served = stats.CoCount(k, j);
      // The hard contract of conservative-update + min estimation: the
      // served count never drops below the truth, for any pair.
      ASSERT_GE(served, truth) << "pair (" << k << ", " << j << ")";
      if ((k < kClique) != (j < kClique)) {
        ASSERT_EQ(truth, 0u);  // cliques never mix by construction
        ++cross;
        cross_mass += served;
      } else {
        ++within;
        truth_mass += truth;
        within_mass += served;
        over_err += served - truth;
      }
    }
  }
  ASSERT_GT(truth_mass, 0u);
  ASSERT_GT(cross, 0u);
  // Aggregate overestimate stays well under the true mass at this width
  // (measured 34% at this seed) — collision noise must not swamp the
  // counts the NPMI scores are computed from.
  EXPECT_LE(over_err * 2, truth_mass)
      << "overestimate " << over_err << " vs true mass " << truth_mass;
  // And the signal that detection actually consumes survives compression:
  // pairs that truly co-occur are served clearly more mass on average than
  // pairs that never do (measured 6.4 vs 2.0 at this seed).
  EXPECT_GT(within_mass * cross, 2 * cross_mass * within)
      << "within mean " << (static_cast<double>(within_mass) / within)
      << " vs cross mean " << (static_cast<double>(cross_mass) / cross);
}

TEST(LanguageStatsTest, SketchSerializationRoundTrip) {
  LanguageStats training;
  training.AddColumn({1, 2, 3});
  Result<FrozenStats> stats = Freeze(training, SketchSpec{1.0});
  ASSERT_TRUE(stats.ok());
  // A sketched language is written as a stats blob plus a sketch blob (the
  // model's DATA and SKCH sections) and read back by attaching the sketch.
  std::string blob, sketch_blob;
  stats->AppendFrozen(&blob);
  stats->AppendSketchFrozen(&sketch_blob);
  auto bytes = std::make_shared<std::vector<uint64_t>>((blob.size() + sketch_blob.size()) / 8);
  std::memcpy(bytes->data(), blob.data(), blob.size());
  std::memcpy(bytes->data() + blob.size() / 8, sketch_blob.data(), sketch_blob.size());
  auto restored = FrozenStats::FromFrozen(bytes->data(), blob.size(), bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(restored->uses_sketch());
  auto view = CountMinSketch::FrozenView::FromBytes(bytes->data() + blob.size() / 8,
                                                    sketch_blob.size());
  ASSERT_TRUE(view.ok());
  restored->AttachSketch(std::move(*view));
  EXPECT_EQ(restored->CoCount(1, 2), stats->CoCount(1, 2));

  // Training statistics are always exact: a shard's has_sketch byte set is
  // Corruption, since no writer produces it.
  std::stringstream ss;
  BinaryWriter w(&ss);
  training.Serialize(&w);
  std::string wire = ss.str();
  const size_t has_sketch_at = 8 + 8 + training.NumPatterns() * 16;
  ASSERT_EQ(wire[has_sketch_at], 0);
  wire[has_sketch_at] = 1;
  BinaryReader r(wire.data(), wire.size());
  EXPECT_TRUE(LanguageStats::Deserialize(&r).status().IsCorruption());
}

TEST(LanguageStatsTest, DoubleCompressionRejected) {
  // Only training statistics can be frozen or sketched; what Freeze returns
  // is a different type, so compressing twice does not compile.
  static_assert(!std::is_convertible_v<const FrozenStats&, const LanguageStats&>);
  LanguageStats stats;
  stats.AddColumn({1, 2});
  ASSERT_TRUE(Freeze(stats, SketchSpec{0.5}).ok());
  EXPECT_FALSE(Freeze(stats, SketchSpec{1.5}).ok());
  EXPECT_FALSE(Freeze(LanguageStats(), SketchSpec{1.5}).ok());
  EXPECT_FALSE(Freeze(stats, SketchSpec{0.0}).ok());
}

TEST(LanguageStatsTest, SketchGatesUnknownPatterns) {
  LanguageStats training;
  training.AddColumn({1, 2});
  Result<FrozenStats> stats = Freeze(training, SketchSpec{1.0});
  ASSERT_TRUE(stats.ok());
  // Pattern 99 was never seen: sketch noise must not invent co-occurrence.
  EXPECT_EQ(stats->CoCount(1, 99), 0u);
}

TEST(FrozenStatsTest, EmbeddedSketchBlobIsInvalidAndSaysRetrain) {
  LanguageStats training;
  training.AddColumn({1, 2, 3});
  std::string blob;
  Freeze(training).AppendFrozen(&blob);
  auto words = std::make_shared<std::vector<uint64_t>>(blob.size() / 8);
  std::memcpy(words->data(), blob.data(), blob.size());
  auto exact = FrozenStats::FromFrozen(words->data(), blob.size(), words);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact->CoCount(1, 3), 1u);

  (*words)[1] = 1;  // flags: a sketch embedded in the blob, which no writer emits
  auto embedded = FrozenStats::FromFrozen(words->data(), blob.size(), words);
  ASSERT_TRUE(embedded.status().IsInvalid()) << embedded.status().ToString();
  EXPECT_NE(embedded.status().ToString().find("retrain"), std::string::npos);
  (*words)[1] = 2;  // never a valid flag value
  EXPECT_TRUE(FrozenStats::FromFrozen(words->data(), blob.size(), words)
                  .status()
                  .IsCorruption());
}

// ------------------------------------------------------------------- NPMI

/// Builds stats where key 1 and 2 co-occur in every column, and 1 / 3
/// appear often but never together.
LanguageStats MakeCorrelationCounts() {
  LanguageStats stats;
  for (int i = 0; i < 50; ++i) stats.AddColumn({1, 2});
  for (int i = 0; i < 50; ++i) stats.AddColumn({3});
  return stats;
}

FrozenStats MakeCorrelationStats() { return Freeze(MakeCorrelationCounts()); }

TEST(NpmiTest, PositivelyCorrelatedPairScoresHigh) {
  FrozenStats stats = MakeCorrelationStats();
  NpmiScorer scorer(&stats, 0.0);
  EXPECT_GT(scorer.Score(1, 2), 0.5);
}

TEST(NpmiTest, NeverCoOccurringCommonPatternsScoreMinusOneUnsmoothed) {
  FrozenStats stats = MakeCorrelationStats();
  NpmiScorer scorer(&stats, 0.0);
  EXPECT_DOUBLE_EQ(scorer.Score(1, 3), -1.0);
}

TEST(NpmiTest, SmoothingLiftsNeverCoOccurringAboveMinusOne) {
  FrozenStats stats = MakeCorrelationStats();
  NpmiScorer smoothed(&stats, 0.1);
  double s = smoothed.Score(1, 3);
  EXPECT_GT(s, -1.0);
  EXPECT_LT(s, 0.0);
}

TEST(NpmiTest, IdenticalExistingPatternIsPerfectlyCompatible) {
  LanguageStats counts;
  counts.AddColumn({5});
  FrozenStats stats = Freeze(counts);
  NpmiScorer scorer(&stats, 0.1);
  EXPECT_DOUBLE_EQ(scorer.Score(5, 5), 1.0);
}

TEST(NpmiTest, UnseenPatternAgainstCommonIsMinusOne) {
  FrozenStats stats = MakeCorrelationStats();
  NpmiScorer scorer(&stats, 0.1);
  EXPECT_DOUBLE_EQ(scorer.Score(1, 777), -1.0);
}

TEST(NpmiTest, BothRarePatternsAreUnknown) {
  LanguageStats counts = MakeCorrelationCounts();
  counts.AddColumn({100});
  counts.AddColumn({200});
  FrozenStats stats = Freeze(counts);
  NpmiScorer scorer(&stats, 0.1, /*min_pattern_support=*/3);
  EXPECT_DOUBLE_EQ(scorer.Score(100, 200), 0.0);
  EXPECT_DOUBLE_EQ(scorer.Score(100, 999), 0.0);
}

TEST(NpmiTest, DeficitGateClampsMildAnticorrelation) {
  // Keys 1 and 2 co-occur in 20 of 100 columns; expectation is
  // 50*40/100 = 20 -> ratio 1.0, no deficit -> score clamped to >= 0.
  LanguageStats counts;
  for (int i = 0; i < 20; ++i) counts.AddColumn({1, 2});
  for (int i = 0; i < 30; ++i) counts.AddColumn({1});
  for (int i = 0; i < 20; ++i) counts.AddColumn({2});
  for (int i = 0; i < 30; ++i) counts.AddColumn({9});
  FrozenStats stats = Freeze(counts);
  NpmiScorer scorer(&stats, 0.1);
  EXPECT_GE(scorer.Score(1, 2), 0.0);
}

TEST(NpmiTest, SmoothedCoCountMatchesEquation10) {
  FrozenStats stats = MakeCorrelationStats();
  // c(1)=50, c(3)=50, c13=0, N=100 -> E = 25. f=0.2 -> smoothed = 5.
  NpmiScorer scorer(&stats, 0.2);
  EXPECT_NEAR(scorer.SmoothedCoCount(1, 3), 0.2 * 25.0, 1e-9);
  // c12=50, E=25 -> 0.8*50 + 0.2*25 = 45.
  EXPECT_NEAR(scorer.SmoothedCoCount(1, 2), 45.0, 1e-9);
}

TEST(NpmiTest, EmptyStatsScoreMinusOne) {
  FrozenStats stats = Freeze(LanguageStats());
  NpmiScorer scorer(&stats, 0.1);
  EXPECT_DOUBLE_EQ(scorer.Score(1, 2), -1.0);
}

TEST(NpmiTest, ScoreIsSymmetric) {
  FrozenStats stats = MakeCorrelationStats();
  NpmiScorer scorer(&stats, 0.1);
  EXPECT_DOUBLE_EQ(scorer.Score(1, 3), scorer.Score(3, 1));
  EXPECT_DOUBLE_EQ(scorer.Score(1, 2), scorer.Score(2, 1));
}

TEST(NpmiTest, ValueConvenienceUsesLanguage) {
  // Build stats under paper L1 from two columns of dates.
  GeneralizationLanguage l1 = LanguageSpace::PaperL1();
  LanguageStats counts;
  for (int i = 0; i < 10; ++i) {
    counts.AddColumn({GeneralizeToKey("2011-01-01", l1)});
    counts.AddColumn({GeneralizeToKey("2011.01.01", l1)});
  }
  FrozenStats stats = Freeze(counts);
  double s = NpmiOfValues("2015-03-04", "2016.05.06", l1, stats, 0.0);
  EXPECT_DOUBLE_EQ(s, -1.0);  // formats never share a column
  EXPECT_DOUBLE_EQ(NpmiOfValues("2015-03-04", "1999-12-31", l1, stats, 0.0), 1.0);
}

// ------------------------------------------------------------- Builder

TEST(StatsBuilderTest, DistinctValuesDedupePreservesOrder) {
  std::vector<std::string> values = {"b", "a", "b", "c", "a"};
  auto distinct = DistinctValuesForStats(values, 10);
  EXPECT_EQ(distinct, (std::vector<std::string>{"b", "a", "c"}));
}

TEST(StatsBuilderTest, DistinctValuesSubsamplesDeterministically) {
  std::vector<std::string> values;
  for (int i = 0; i < 100; ++i) values.push_back(std::to_string(i));
  auto a = DistinctValuesForStats(values, 10);
  auto b = DistinctValuesForStats(values, 10);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a[0], "0");  // head kept
}

// --------------------------------------------------------- ValueInterner

TEST(ValueInternerTest, GroupsByIdentityInFirstOccurrenceOrder) {
  ValueInterner interner;
  const std::vector<std::string> column = {"b", "a", "b", "c", "a", "b"};
  interner.Intern(column);
  EXPECT_EQ(interner.num_values(), 6u);
  ASSERT_EQ(interner.num_distinct(), 3u);
  EXPECT_EQ(interner.entry(0).value, "b");
  EXPECT_EQ(interner.entry(0).multiplicity, 3u);
  EXPECT_EQ(interner.entry(0).first_row, 0u);
  EXPECT_EQ(interner.entry(1).value, "a");
  EXPECT_EQ(interner.entry(1).multiplicity, 2u);
  EXPECT_EQ(interner.entry(1).first_row, 1u);
  EXPECT_EQ(interner.entry(2).value, "c");
  EXPECT_EQ(interner.entry(2).multiplicity, 1u);
  EXPECT_EQ(interner.entry(2).first_row, 3u);
}

TEST(ValueInternerTest, SampleMatchesDistinctValuesForStatsOnRandomColumns) {
  // The interned selection must equal DistinctValuesForStats index for
  // index — the detect and train paths byte-compare reports/stats across
  // the two implementations. One interner across iterations also proves
  // Reset-based reuse carries no state over.
  Pcg32 rng(0x1e7e);
  ValueInterner interner;
  std::vector<uint32_t> sampled;
  for (int iter = 0; iter < 200; ++iter) {
    size_t rows = rng.Below(300);
    size_t cardinality = 1 + rng.Below(90);
    std::vector<std::string> values;
    values.reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      values.push_back("v" + std::to_string(rng.Below(static_cast<uint32_t>(cardinality))));
    }
    size_t max_distinct = 1 + rng.Below(64);

    interner.Intern(values);
    interner.SampleIndices(max_distinct, &sampled);
    std::vector<std::string> via_interner;
    for (uint32_t idx : sampled) {
      via_interner.emplace_back(interner.entry(idx).value);
    }
    EXPECT_EQ(via_interner, DistinctValuesForStats(values, max_distinct))
        << "iter " << iter << " rows " << rows << " max " << max_distinct;

    // Multiplicities partition the rows; first_row is the first occurrence.
    uint64_t total = 0;
    for (size_t e = 0; e < interner.num_distinct(); ++e) {
      const ValueInterner::Entry& entry = interner.entry(e);
      total += entry.multiplicity;
      EXPECT_EQ(values[entry.first_row], entry.value);
    }
    EXPECT_EQ(total, values.size());
  }
}

TEST(ValueInternerTest, EmptyColumn) {
  ValueInterner interner;
  const std::vector<std::string> empty;
  interner.Intern(empty);
  EXPECT_EQ(interner.num_values(), 0u);
  EXPECT_EQ(interner.num_distinct(), 0u);
  std::vector<uint32_t> sampled;
  interner.SampleIndices(48, &sampled);
  EXPECT_TRUE(sampled.empty());
}

TEST(StatsBuilderTest, CountsKnownTinyCorpus) {
  // Two columns: one ISO dates, one mixed ISO/slash.
  Corpus corpus;
  Column c1;
  c1.values = {"2011-01-01", "2012-02-02"};
  Column c2;
  c2.values = {"2013-03-03", "2013/03/04"};
  corpus.Add(c1);
  corpus.Add(c2);
  CorpusSource source(&corpus);

  StatsBuilderOptions opts;
  int l1_id = LanguageSpace::IdOf(LanguageSpace::PaperL1());
  opts.language_ids = {l1_id};
  CorpusStats stats = BuildCorpusStats(&source, opts);
  const LanguageStats& l1 = stats.ForLanguage(l1_id);

  GeneralizationLanguage lang = LanguageSpace::PaperL1();
  uint64_t iso = GeneralizeToKey("2011-01-01", lang);
  uint64_t slash = GeneralizeToKey("2011/01/01", lang);
  EXPECT_EQ(l1.num_columns(), 2u);
  EXPECT_EQ(l1.Count(iso), 2u);   // both columns contain the ISO pattern
  EXPECT_EQ(l1.Count(slash), 1u);
  EXPECT_EQ(l1.CoCount(iso, slash), 1u);  // only the mixed column
}

TEST(StatsBuilderTest, BuildsAllLanguagesByDefault) {
  GeneratorOptions gen;
  gen.num_columns = 50;
  gen.seed = 31;
  Corpus corpus = GenerateCorpus(gen);
  CorpusSource source(&corpus);
  StatsBuilderOptions opts;
  CorpusStats stats = BuildCorpusStats(&source, opts);
  EXPECT_EQ(stats.LanguageIds().size(),
            static_cast<size_t>(LanguageSpace::kNumLanguages));
  EXPECT_EQ(stats.ForLanguage(0).num_columns(), 50u);
}

TEST(StatsBuilderTest, PatternCapBoundsPairs) {
  Corpus corpus;
  Column c;
  for (int i = 0; i < 100; ++i) c.values.push_back("v" + std::to_string(i));
  corpus.Add(c);
  CorpusSource source(&corpus);
  StatsBuilderOptions opts;
  opts.language_ids = {LanguageSpace::IdOf(LanguageSpace::Leaf())};
  opts.max_distinct_values_per_column = 50;
  opts.max_distinct_patterns_per_column = 8;
  CorpusStats stats = BuildCorpusStats(&source, opts);
  const LanguageStats& leaf = stats.ForLanguage(opts.language_ids[0]);
  EXPECT_LE(leaf.NumCoPairs(), 8u * 7u / 2u);
}

TEST(StatsBuilderTest, RetainDropsOtherLanguages) {
  GeneratorOptions gen;
  gen.num_columns = 20;
  gen.seed = 32;
  Corpus corpus = GenerateCorpus(gen);
  CorpusSource source(&corpus);
  StatsBuilderOptions opts;
  opts.language_ids = {0, 1, 2};
  CorpusStats stats = BuildCorpusStats(&source, opts);
  stats.Retain({1});
  EXPECT_TRUE(stats.Has(1));
  EXPECT_FALSE(stats.Has(0));
  EXPECT_FALSE(stats.Has(2));
}

// ------------------------------------------------------ counting oracle

/// Naive counts over the same per-column distinct keys the builder sees:
/// std::map increments, pairs keyed by the ordered key pair itself.
struct OracleCounts {
  uint64_t columns = 0;
  std::map<uint64_t, uint64_t> counts;
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> co_counts;

  void AddColumn(const std::vector<uint64_t>& distinct) {
    ++columns;
    for (uint64_t k : distinct) ++counts[k];
    for (size_t i = 0; i < distinct.size(); ++i) {
      for (size_t j = i + 1; j < distinct.size(); ++j) {
        ++co_counts[std::minmax(distinct[i], distinct[j])];
      }
    }
  }
};

/// Checks training (LanguageStats) or frozen (FrozenStats) counts.
template <typename Stats>
void ExpectMatchesOracle(const Stats& stats, const OracleCounts& oracle,
                         const std::string& label) {
  EXPECT_EQ(stats.num_columns(), oracle.columns) << label;
  EXPECT_EQ(stats.NumPatterns(), oracle.counts.size()) << label;
  EXPECT_EQ(stats.NumCoPairs(), oracle.co_counts.size()) << label;
  for (const auto& [key, count] : oracle.counts) {
    ASSERT_EQ(stats.Count(key), count) << label << ", c(" << key << ")";
  }
  for (const auto& [pair, count] : oracle.co_counts) {
    ASSERT_EQ(stats.CoCount(pair.first, pair.second), count)
        << label << ", c(" << pair.first << ", " << pair.second << ")";
  }
}

TEST(LanguageStatsBuilderTest, CountsMatchNaiveMapWithKeyZeroAndRunMerges) {
  // A small key space holding both extremes, so keys repeat across columns
  // and key 0 (the probe arrays' empty-slot sentinel) is common.
  Pcg32 rng(0x5047);
  std::vector<uint64_t> space = {0, 1, 2, UINT64_MAX};
  while (space.size() < 40) space.push_back(rng.NextU64());
  for (size_t run_columns : {1, 3, 2048}) {
    const std::string label = std::to_string(run_columns) + " columns per run";
    LanguageStatsBuilder builder;
    LanguageStatsBuilder::Stage stage;
    OracleCounts oracle;
    for (int c = 0; c < 700; ++c) {
      // Draws repeat within a column; a column counts each key once, in
      // first-draw (unsorted) order.
      std::vector<uint64_t> keys;
      const uint32_t draws = rng.Below(12);
      for (uint32_t d = 0; d < draws; ++d) {
        const uint64_t key = space[rng.Below(static_cast<uint32_t>(space.size()))];
        if (std::find(keys.begin(), keys.end(), key) == keys.end()) keys.push_back(key);
      }
      builder.AddColumn(keys.data(), keys.size(), &stage);
      oracle.AddColumn(keys);
      if ((c + 1) % run_columns == 0) builder.AddRun(&stage);
    }
    builder.AddRun(&stage);
    LanguageStats stats = builder.Build();
    ExpectMatchesOracle(stats, oracle, label + ", sorted");
    ExpectMatchesOracle(Freeze(stats), oracle, label + ", frozen");
  }
}

TEST(StatsBuilderTest, CountsMatchNaiveMapAcrossBatchesAndThreads) {
  GeneratorOptions gen;
  gen.num_columns = 150;
  gen.seed = 34;
  Corpus corpus = GenerateCorpus(gen);
  StatsBuilderOptions base;
  base.language_ids = {LanguageSpace::IdOf(LanguageSpace::Leaf()), 17,
                       LanguageSpace::IdOf(LanguageSpace::CrudeG()), 100, 143};
  base.max_distinct_patterns_per_column = 8;  // the cap keeps the smallest keys

  // The oracle keys every column's distinct values per language on its own.
  const auto& all = LanguageSpace::All();
  std::vector<OracleCounts> oracle(base.language_ids.size());
  for (const Column& column : corpus.columns()) {
    const std::vector<std::string> distinct =
        DistinctValuesForStats(column.values, base.max_distinct_values_per_column);
    for (size_t l = 0; l < base.language_ids.size(); ++l) {
      std::vector<uint64_t> keys;
      for (const std::string& v : distinct) {
        keys.push_back(GeneralizeToKey(
            v, all[static_cast<size_t>(base.language_ids[l])], base.generalize_options));
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      if (keys.size() > base.max_distinct_patterns_per_column) {
        keys.resize(base.max_distinct_patterns_per_column);
      }
      oracle[l].AddColumn(keys);
    }
  }

  for (size_t batch : {1, 3, 2048}) {
    for (size_t threads : {1, 4}) {
      StatsBuilderOptions opts = base;
      opts.batch_columns = batch;
      opts.num_threads = threads;
      CorpusSource source(&corpus);
      CorpusStats stats = BuildCorpusStats(&source, opts);
      for (size_t l = 0; l < opts.language_ids.size(); ++l) {
        ExpectMatchesOracle(stats.ForLanguage(opts.language_ids[l]), oracle[l],
                            "batch " + std::to_string(batch) + ", " +
                                std::to_string(threads) + " threads, language " +
                                std::to_string(opts.language_ids[l]));
      }
    }
  }
}

TEST(StatsBuilderTest, CorpusStatsSerializationRoundTrip) {
  GeneratorOptions gen;
  gen.num_columns = 30;
  gen.seed = 33;
  Corpus corpus = GenerateCorpus(gen);
  CorpusSource source(&corpus);
  StatsBuilderOptions opts;
  opts.language_ids = {3, 17};
  CorpusStats stats = BuildCorpusStats(&source, opts);
  std::stringstream ss;
  BinaryWriter w(&ss);
  stats.Serialize(&w);
  BinaryReader r(&ss);
  auto restored = CorpusStats::Deserialize(&r);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->Has(3));
  EXPECT_TRUE(restored->Has(17));
  EXPECT_EQ(restored->ForLanguage(3).num_columns(), 30u);
}

}  // namespace
}  // namespace autodetect
