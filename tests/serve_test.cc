// Tests for the serving layer: ShardedPairCache unit behaviour and the
// DetectionEngine's concurrency contract — batch reports bit-identical to
// the sequential Detector, deterministic under rescheduling and request
// shuffles, and unchanged by the pair cache.
//
// The stress/determinism test here (8 workers x 200 mixed-size columns) is
// what tools/run_tier1.sh runs under SANITIZE=thread: data races in
// DetectionEngine/ShardedPairCache fail that gate rather than flaking.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "common/cancel.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "corpus/corpus_generator.h"
#include "detect/trainer.h"
#include "serve/detection_engine.h"
#include "serve/model_registry.h"
#include "temp_path.h"

namespace autodetect {
namespace {

/// Byte-exact rendering of a report: doubles go through %a (hexfloat), so
/// two fingerprints match iff the reports are bit-identical.
std::string Fingerprint(const ColumnReport& report) {
  std::string out = StrFormat("d=%zu\n", report.distinct_values);
  for (const auto& c : report.cells) {
    out += StrFormat("c %u \"%s\" %a %u\n", c.row, c.value.c_str(), c.confidence,
                     c.incompatible_with);
  }
  for (const auto& p : report.pairs) {
    out += StrFormat("p \"%s\"|\"%s\" %a\n", p.u.c_str(), p.v.c_str(), p.confidence);
  }
  return out;
}

std::vector<std::string> Fingerprints(const std::vector<DetectReport>& reports) {
  std::vector<std::string> out;
  out.reserve(reports.size());
  for (const auto& r : reports) out.push_back(Fingerprint(r.column));
  return out;
}

/// Sequential-baseline convenience over the unified API.
ColumnReport Analyze(const Detector& detector, const std::vector<std::string>& values,
                     ColumnScratch* scratch = nullptr,
                     PairVerdictCache* cache = nullptr) {
  return detector.Detect(DetectRequest{"", values}, scratch, cache).column;
}

/// 200 mixed-size WEB columns with injected errors, plus a few handcrafted
/// columns that are guaranteed to produce findings under any decent model.
std::vector<DetectRequest> StressBatch() {
  std::vector<DetectRequest> batch;
  GeneratorOptions gen;
  gen.num_columns = 196;
  gen.inject_errors = true;
  gen.seed = 777;
  GeneratedColumnSource source(gen);
  Column column;
  while (source.Next(&column)) {
    batch.push_back(DetectRequest{column.domain, column.values});
  }
  batch.push_back(DetectRequest{
      "dates", {"2011-01-01", "2011-01-02", "2011-01-03", "2011-01-04", "2011/01/05"}});
  batch.push_back(DetectRequest{"years", {"1962", "1981", "1974", "1990", "1865."}});
  batch.push_back(DetectRequest{"tiny", {"x"}});
  batch.push_back(DetectRequest{"empty", {}});
  return batch;
}

/// Trains one small model for all engine tests: a handful of candidate
/// languages over a pinned-seed corpus keeps the fixture seconds-cheap while
/// exercising the full multi-language scoring path.
class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions gen;
    gen.num_columns = 1200;
    gen.inject_errors = false;
    gen.seed = 20180610;
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
    train.corpus_name = "serve-test-web";
    auto model = TrainModel(&source, train);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = new Model(std::move(*model));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  static Model* model_;
};

Model* ServeFixture::model_ = nullptr;

// ------------------------------------------------------------ pair cache

PairVerdict MakeVerdict(double confidence) {
  PairVerdict v;
  v.incompatible = true;
  v.confidence = confidence;
  v.min_npmi = -confidence;
  v.best_language = 7;
  return v;
}

TEST(PairCacheTest, MissThenHitRoundTrips) {
  ShardedPairCache cache;
  PairVerdict out;
  EXPECT_FALSE(cache.Lookup(42, &out));
  cache.Insert(42, MakeVerdict(0.75));
  ASSERT_TRUE(cache.Lookup(42, &out));
  EXPECT_TRUE(out.incompatible);
  EXPECT_DOUBLE_EQ(out.confidence, 0.75);
  EXPECT_EQ(out.best_language, 7);
  PairCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST(PairCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  PairCacheOptions opts;
  opts.num_shards = 5;
  ShardedPairCache cache(opts);
  EXPECT_EQ(cache.num_shards(), 8u);
}

TEST(PairCacheTest, EvictsLeastRecentlyUsed) {
  // One shard so LRU order is global and capacity is exact.
  PairCacheOptions opts;
  opts.num_shards = 1;
  opts.capacity_bytes = 4 * ShardedPairCache::kBytesPerEntry;
  ShardedPairCache cache(opts);
  ASSERT_EQ(cache.capacity_entries(), 4u);
  for (uint64_t k = 1; k <= 4; ++k) cache.Insert(k, MakeVerdict(0.1 * k));
  // Touch 1 so 2 becomes the LRU, then overflow.
  PairVerdict out;
  ASSERT_TRUE(cache.Lookup(1, &out));
  cache.Insert(5, MakeVerdict(0.5));
  EXPECT_FALSE(cache.Lookup(2, &out)) << "LRU entry should have been evicted";
  EXPECT_TRUE(cache.Lookup(1, &out));
  EXPECT_TRUE(cache.Lookup(3, &out));
  EXPECT_TRUE(cache.Lookup(4, &out));
  EXPECT_TRUE(cache.Lookup(5, &out));
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_EQ(cache.Stats().entries, 4u);
}

TEST(PairCacheTest, InsertingExistingKeyRefreshesValueAndPosition) {
  PairCacheOptions opts;
  opts.num_shards = 1;
  opts.capacity_bytes = 2 * ShardedPairCache::kBytesPerEntry;
  ShardedPairCache cache(opts);
  cache.Insert(1, MakeVerdict(0.1));
  cache.Insert(2, MakeVerdict(0.2));
  cache.Insert(1, MakeVerdict(0.9));  // refresh: 2 is now the LRU
  cache.Insert(3, MakeVerdict(0.3));
  PairVerdict out;
  ASSERT_TRUE(cache.Lookup(1, &out));
  EXPECT_DOUBLE_EQ(out.confidence, 0.9);
  EXPECT_FALSE(cache.Lookup(2, &out));
  EXPECT_EQ(cache.Stats().entries, 2u);
}

TEST(PairCacheTest, ClearDropsEntriesKeepsCounters) {
  ShardedPairCache cache;
  cache.Insert(1, MakeVerdict(0.5));
  PairVerdict out;
  ASSERT_TRUE(cache.Lookup(1, &out));
  cache.Clear();
  EXPECT_FALSE(cache.Lookup(1, &out));
  PairCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(PairCacheTest, ConcurrentMixedUseIsSafe) {
  // Hammer one small cache from 8 threads; TSan (SANITIZE=thread) turns any
  // locking mistake here into a hard failure. Assertions are sanity only —
  // the real oracle is the sanitizer.
  PairCacheOptions opts;
  opts.num_shards = 4;
  opts.capacity_bytes = 64 * ShardedPairCache::kBytesPerEntry;
  ShardedPairCache cache(opts);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      Pcg32 rng(static_cast<uint64_t>(t) + 1);
      PairVerdict out;
      for (int i = 0; i < 20000; ++i) {
        uint64_t key = rng.Below(256) + 1;
        if (rng.Chance(0.5)) {
          cache.Insert(key, MakeVerdict(static_cast<double>(key) / 256.0));
        } else if (cache.Lookup(key, &out)) {
          ASSERT_DOUBLE_EQ(out.confidence, static_cast<double>(key) / 256.0);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  PairCacheStats stats = cache.Stats();
  EXPECT_GT(stats.insertions, 0u);
  EXPECT_LE(stats.entries, cache.capacity_entries());
}

// ------------------------------------------------------- detection engine

TEST_F(ServeFixture, BatchIsBitIdenticalToSequentialDetector) {
  std::vector<DetectRequest> batch = StressBatch();
  Detector sequential(model_);
  std::vector<std::string> expected;
  for (const auto& request : batch) {
    expected.push_back(Fingerprint(Analyze(sequential, request.values)));
  }

  EngineOptions opts;
  opts.num_threads = 8;
  opts.cache_bytes = 4ull << 20;
  DetectionEngine engine(model_, opts);
  std::vector<DetectReport> reports = engine.Detect(batch);
  ASSERT_EQ(reports.size(), batch.size());
  std::vector<std::string> actual = Fingerprints(reports);
  size_t with_findings = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "column " << i << " (" << batch[i].name << ")";
    if (reports[i].column.HasFindings()) ++with_findings;
  }
  // The batch must actually exercise the finding paths, not just agree on
  // empty reports.
  EXPECT_GT(with_findings, 0u);
}

TEST_F(ServeFixture, RepeatedRunsAndShufflesAreDeterministic) {
  std::vector<DetectRequest> batch = StressBatch();
  EngineOptions opts;
  opts.num_threads = 8;
  opts.cache_bytes = 4ull << 20;
  DetectionEngine engine(model_, opts);
  std::vector<std::string> first = Fingerprints(engine.Detect(batch));

  // Same batch, different schedules (and a now-warm cache).
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(Fingerprints(engine.Detect(batch)), first) << "run " << run;
  }

  // Shuffled request order: reports must follow the requests.
  std::vector<size_t> perm(batch.size());
  std::iota(perm.begin(), perm.end(), size_t{0});
  Pcg32 rng(2024);
  rng.Shuffle(&perm);
  std::vector<DetectRequest> shuffled;
  shuffled.reserve(batch.size());
  for (size_t i : perm) shuffled.push_back(batch[i]);
  std::vector<std::string> shuffled_prints = Fingerprints(engine.Detect(shuffled));
  for (size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(shuffled_prints[i], first[perm[i]]) << "shuffled position " << i;
  }
}

TEST_F(ServeFixture, CacheDoesNotChangeReports) {
  std::vector<DetectRequest> batch = StressBatch();
  EngineOptions cached;
  cached.num_threads = 4;
  cached.cache_bytes = 1ull << 20;
  EngineOptions uncached;
  uncached.num_threads = 4;
  uncached.cache_bytes = 0;
  DetectionEngine engine_cached(model_, cached);
  DetectionEngine engine_uncached(model_, uncached);
  EXPECT_FALSE(engine_uncached.cache_enabled());
  EXPECT_TRUE(engine_cached.cache_enabled());
  EXPECT_EQ(Fingerprints(engine_cached.Detect(batch)),
            Fingerprints(engine_uncached.Detect(batch)));
  EXPECT_EQ(engine_uncached.Stats().cache.insertions, 0u);
}

TEST_F(ServeFixture, CacheHitsAccumulateAcrossBatches) {
  std::vector<DetectRequest> batch = StressBatch();
  EngineOptions opts;
  opts.num_threads = 4;
  DetectionEngine engine(model_, opts);
  engine.Detect(batch);
  uint64_t misses_after_first = engine.Stats().cache.misses;
  engine.Detect(batch);
  PairCacheStats stats = engine.Stats().cache;
  // The second identical batch is served from cache almost entirely.
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.misses, misses_after_first);
  EXPECT_GT(stats.HitRate(), 0.4);
  EXPECT_EQ(engine.Stats().batches, 2u);
  EXPECT_EQ(engine.Stats().columns, 2 * batch.size());
}

TEST_F(ServeFixture, SingleWorkerAndEmptyBatches) {
  EngineOptions opts;
  opts.num_threads = 1;
  DetectionEngine engine(model_, opts);
  EXPECT_EQ(engine.num_threads(), 1u);
  EXPECT_TRUE(engine.Detect({}).empty());
  std::vector<DetectRequest> batch = {
      DetectRequest{"dates",
                    {"2011-01-01", "2011-01-02", "2011-01-03", "2011/01/04"}}};
  std::vector<DetectReport> reports = engine.Detect(batch);
  ASSERT_EQ(reports.size(), 1u);
  Detector sequential(model_);
  EXPECT_EQ(Fingerprint(reports[0].column),
            Fingerprint(Analyze(sequential, batch[0].values)));
}

TEST_F(ServeFixture, ConcurrentDetectCallersAreIsolated) {
  // Multiple application threads sharing one engine: each must get its own
  // batch's reports, in its own request order.
  std::vector<DetectRequest> batch = StressBatch();
  Detector sequential(model_);
  std::vector<std::string> expected;
  for (const auto& request : batch) {
    expected.push_back(Fingerprint(Analyze(sequential, request.values)));
  }
  EngineOptions opts;
  opts.num_threads = 4;
  DetectionEngine engine(model_, opts);
  std::vector<std::thread> callers;
  std::vector<std::vector<std::string>> results(4);
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&engine, &batch, &results, t] {
      results[t] = Fingerprints(engine.Detect(batch));
    });
  }
  for (auto& th : callers) th.join();
  for (int t = 0; t < 4; ++t) {
    ASSERT_EQ(results[t].size(), expected.size()) << "caller " << t;
    EXPECT_EQ(results[t], expected) << "caller " << t;
  }
}

TEST_F(ServeFixture, CancelledBatchesLeaveEngineStateIntact) {
  // Cancellation stress for the SANITIZE=thread/address gate: batches are
  // cancelled mid-flight from another thread while workers are scanning,
  // which exercises the partial-report early-out against the scratch
  // free-list and per-batch latch. The sanitizer is the oracle for
  // use-after-free/races; afterwards an untimed batch must still be
  // bit-identical to the sequential baseline, proving the cancelled runs
  // did not corrupt any pooled state.
  std::vector<DetectRequest> batch = StressBatch();
  Detector sequential(model_);
  std::vector<std::string> expected;
  for (const auto& request : batch) {
    expected.push_back(Fingerprint(Analyze(sequential, request.values)));
  }

  EngineOptions opts;
  opts.num_threads = 4;
  opts.cache_bytes = 1ull << 20;
  DetectionEngine engine(model_, opts);
  for (int round = 0; round < 8; ++round) {
    CancelSource source;
    std::vector<DetectRequest> timed = batch;
    for (auto& request : timed) request.cancel = source.token();
    std::thread canceller([&source, round] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      source.Cancel();
    });
    std::vector<DetectReport> reports = engine.Detect(timed);
    canceller.join();
    ASSERT_EQ(reports.size(), timed.size());
    for (const auto& report : reports) {
      EXPECT_TRUE(report.status == ColumnStatus::kOk ||
                  report.status == ColumnStatus::kCancelled)
          << static_cast<int>(report.status);
    }
  }
  EXPECT_EQ(Fingerprints(engine.Detect(batch)), expected)
      << "cancelled batches corrupted pooled engine state";
}

TEST_F(ServeFixture, MetricsAgreeWithEngineStats) {
  // The serve.cache.* gauges are published by a snapshot-time collector; they
  // must agree with the engine's own Stats() accounting, and the detect/serve
  // counters must match the work actually submitted.
  MetricsRegistry registry;
  std::vector<DetectRequest> batch = StressBatch();
  EngineOptions opts;
  opts.num_threads = 4;
  opts.metrics = &registry;
  DetectionEngine engine(model_, opts);
  engine.Detect(batch);
  engine.Detect(batch);  // warm-cache pass so hits are non-zero

  EngineStats stats = engine.Stats();
  MetricsSnapshot snap = registry.Snapshot();
  if (!kMetricsEnabled) {
    EXPECT_EQ(snap.counters.at("serve.columns_total"), 0u);
    return;
  }
  EXPECT_EQ(snap.counters.at("serve.batches_total"), stats.batches);
  EXPECT_EQ(snap.counters.at("serve.columns_total"), stats.columns);
  EXPECT_EQ(snap.counters.at("detect.columns_total"), 2 * batch.size());
  EXPECT_DOUBLE_EQ(snap.gauges.at("serve.cache.hits"),
                   static_cast<double>(stats.cache.hits));
  EXPECT_DOUBLE_EQ(snap.gauges.at("serve.cache.misses"),
                   static_cast<double>(stats.cache.misses));
  EXPECT_DOUBLE_EQ(snap.gauges.at("serve.cache.entries"),
                   static_cast<double>(stats.cache.entries));
  EXPECT_DOUBLE_EQ(snap.gauges.at("serve.cache.hit_rate"), stats.cache.HitRate());
  EXPECT_GT(snap.gauges.at("serve.cache.hits"), 0.0);
  // Detector-level counters: pairs_scored counts fresh scores (cache
  // misses), pairs_cache_hits counts hits — together they partition the
  // pair lookups, so both must agree with the cache's own accounting.
  uint64_t pairs = snap.counters.at("detect.pairs_scored_total");
  uint64_t hits = snap.counters.at("detect.pairs_cache_hits_total");
  EXPECT_GT(pairs, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(hits, stats.cache.hits);
  EXPECT_EQ(pairs, stats.cache.misses);
  // Per-shard gauges sum to the totals.
  double shard_hits = 0.0;
  std::vector<PairCacheStats> per_shard = engine.cache()->PerShardStats();
  for (size_t i = 0; i < per_shard.size(); ++i) {
    shard_hits += snap.gauges.at(StrFormat("serve.cache.shard%zu.hits", i));
  }
  EXPECT_DOUBLE_EQ(shard_hits, static_cast<double>(stats.cache.hits));
  // Latency histograms recorded one entry per column / per batch.
  EXPECT_EQ(snap.histograms.at("detect.column_latency_us").count, 2 * batch.size());
  EXPECT_EQ(snap.histograms.at("serve.batch_latency_us").count, 2u);
}

TEST_F(ServeFixture, UnifiedDetectCarriesNamesTagsAndLatency) {
  // The DetectReport envelope: names/tags echo the request, latency is
  // always populated (it is report payload, not gated instrumentation), and
  // per-tag metrics aggregate only tagged requests.
  MetricsRegistry registry;
  EngineOptions opts;
  opts.num_threads = 2;
  opts.metrics = &registry;
  DetectionEngine engine(model_, opts);
  std::vector<DetectRequest> batch = {
      DetectRequest{"dates",
                    {"2011-01-01", "2011-01-02", "2011-01-03", "2011/01/04"},
                    RequestContext{"acme", "t1.csv"}},
      DetectRequest{"years", {"1962", "1981", "1974", "1990", "1865."},
                    RequestContext{"acme", "t1.csv"}},
      DetectRequest{"untagged", {"a", "b", "c"}},
  };
  std::vector<DetectReport> reports = engine.Detect(batch);
  ASSERT_EQ(reports.size(), 3u);
  for (size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].name, batch[i].name);
    EXPECT_EQ(reports[i].tag, batch[i].context.tag);
  }
  // And the sequential executor produces the identical column reports.
  Detector sequential(model_);
  SequentialExecutor executor(&sequential);
  std::vector<DetectReport> seq_reports = executor.Detect(batch);
  ASSERT_EQ(seq_reports.size(), 3u);
  for (size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(Fingerprint(reports[i].column), Fingerprint(seq_reports[i].column));
  }
  if (kMetricsEnabled) {
    MetricsSnapshot snap = registry.Snapshot();
    EXPECT_EQ(snap.counters.at("detect.tag.t1.csv.columns_total"), 2u);
    EXPECT_EQ(snap.histograms.at("detect.tag.t1.csv.column_latency_us").count, 2u);
    EXPECT_EQ(snap.counters.count("detect.tag..columns_total"), 0u);
    // Tenant attribution rides alongside the tag metrics.
    EXPECT_EQ(snap.counters.at("detect.tenant.acme.columns_total"), 2u);
    EXPECT_EQ(snap.counters.count("detect.tenant..columns_total"), 0u);
  }
}

TEST_F(ServeFixture, ScratchOverloadMatchesAllocatingPath) {
  // The Detector-level contract the engine builds on: scratch reuse and the
  // cache hook leave reports bit-identical.
  Detector detector(model_);
  ColumnScratch scratch;
  ShardedPairCache cache;
  std::vector<DetectRequest> batch = StressBatch();
  for (const auto& request : batch) {
    std::string baseline = Fingerprint(Analyze(detector, request.values));
    EXPECT_EQ(Fingerprint(Analyze(detector, request.values, &scratch, nullptr)),
              baseline);
    EXPECT_EQ(Fingerprint(Analyze(detector, request.values, &scratch, &cache)),
              baseline);
    // Second pass with a warm cache.
    EXPECT_EQ(Fingerprint(Analyze(detector, request.values, &scratch, &cache)),
              baseline);
  }
  EXPECT_GT(cache.Stats().hits, 0u);
}

// -------------------------------------------------------- model registry

/// A second, deliberately different model (single crude language, different
/// corpus) so reload tests can tell "old snapshot" from "new snapshot" by
/// report content. Trained once, lazily.
const Model& VariantModel() {
  static const Model* model = [] {
    GeneratorOptions gen;
    gen.num_columns = 600;
    gen.inject_errors = false;
    gen.seed = 4242;
    GeneratedColumnSource source(gen);
    TrainOptions train;
    train.memory_budget_bytes = 8ull << 20;
    train.stats.language_ids = {LanguageSpace::IdOf(LanguageSpace::CrudeG())};
    train.supervision.target_positives = 1500;
    train.supervision.target_negatives = 1500;
    train.corpus_name = "serve-test-variant";
    auto trained = TrainModel(&source, train);
    AD_CHECK(trained.ok()) << trained.status().ToString();
    return new Model(std::move(*trained));
  }();
  return *model;
}

TEST_F(ServeFixture, RegistryFailedReloadKeepsServingOldModel) {
  std::string good = TempPath("ad_serve_registry_good.bin");
  std::string bad = TempPath("ad_serve_registry_bad.bin");
  ASSERT_TRUE(model_->Save(good).ok());
  {
    std::ofstream out(bad, std::ios::binary);
    out << "ADMODEL2 this is not a model";
  }

  MetricsRegistry metrics;
  ModelRegistry registry(&metrics);
  EXPECT_EQ(registry.Snapshot(), nullptr);
  ASSERT_TRUE(registry.Reload(good).ok());
  std::shared_ptr<const Model> snapshot = registry.Snapshot();
  ASSERT_NE(snapshot, nullptr);
  uint64_t generation = registry.Generation();
  EXPECT_GT(generation, 0u);
  EXPECT_EQ(registry.path(), good);

  Status failed = registry.Reload(bad);
  EXPECT_FALSE(failed.ok());
  // Fails closed: same snapshot pointer, same generation, path unchanged.
  EXPECT_EQ(registry.Snapshot(), snapshot);
  EXPECT_EQ(registry.Generation(), generation);
  EXPECT_EQ(registry.path(), good);
  if (kMetricsEnabled) {
    MetricsSnapshot snap = metrics.Snapshot();
    EXPECT_EQ(snap.counters.at("model.reload.total"), 1u);
    EXPECT_EQ(snap.counters.at("model.reload.errors_total"), 1u);
    EXPECT_GT(snap.gauges.at("model.bytes"), 0.0);
  }
  std::filesystem::remove(good);
  std::filesystem::remove(bad);
}

TEST_F(ServeFixture, RegistryReloadRacingBatchesStaysSnapshotConsistent) {
  // The snapshot-consistency guarantee under fire: batches race hot reloads
  // that flip between two different models, and every batch's reports must
  // match exactly one of them — never a mix.
  std::string path_a = TempPath("ad_serve_reload_a.bin");
  std::string path_b = TempPath("ad_serve_reload_b.bin");
  ASSERT_TRUE(model_->Save(path_a).ok());
  ASSERT_TRUE(VariantModel().Save(path_b).ok());

  std::vector<DetectRequest> batch = StressBatch();
  batch.resize(48);  // keep the race loop cheap; plenty of columns per batch

  auto loaded_a = Model::Load(path_a);
  auto loaded_b = Model::Load(path_b);
  ASSERT_TRUE(loaded_a.ok()) << loaded_a.status().ToString();
  ASSERT_TRUE(loaded_b.ok()) << loaded_b.status().ToString();
  Detector seq_a(&*loaded_a);
  Detector seq_b(&*loaded_b);
  std::vector<std::string> expected_a, expected_b;
  for (const auto& request : batch) {
    expected_a.push_back(Fingerprint(Analyze(seq_a, request.values)));
    expected_b.push_back(Fingerprint(Analyze(seq_b, request.values)));
  }
  // The mix check below is vacuous unless the two models actually disagree.
  ASSERT_NE(expected_a, expected_b);

  ModelRegistry registry;
  ASSERT_TRUE(registry.Reload(path_a).ok());
  EngineOptions opts;
  opts.num_threads = 4;
  opts.cache_bytes = 1ull << 20;
  DetectionEngine engine(&registry, opts);

  std::atomic<bool> stop{false};
  std::thread reloader([&] {
    int flip = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_TRUE(registry.Reload((++flip % 2) ? path_b : path_a).ok());
    }
  });

  constexpr int kBatches = 16;
  std::vector<std::vector<std::string>> runs(kBatches);
  std::vector<std::thread> callers;
  std::atomic<int> next{0};
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&] {
      for (int i = next.fetch_add(1); i < kBatches; i = next.fetch_add(1)) {
        runs[i] = Fingerprints(engine.Detect(batch));
      }
    });
  }
  for (auto& th : callers) th.join();
  stop.store(true);
  reloader.join();

  for (int i = 0; i < kBatches; ++i) {
    bool is_a = runs[i] == expected_a;
    bool is_b = runs[i] == expected_b;
    EXPECT_TRUE(is_a || is_b)
        << "batch " << i << " mixed reports from two model snapshots";
  }
  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
}

TEST_F(ServeFixture, WatcherPicksUpRewrittenArtifact) {
  std::string path = TempPath("ad_serve_watch.bin");
  ASSERT_TRUE(model_->Save(path).ok());

  ModelRegistry registry;
  ASSERT_TRUE(
      registry.StartWatch(path, std::chrono::milliseconds(10)).ok());
  EXPECT_TRUE(registry.watching());
  uint64_t gen0 = registry.Generation();
  ASSERT_GT(gen0, 0u);

  // An engine over the registry follows the swap too.
  std::vector<std::string> values = {"2011-01-01", "2011-01-02", "2011/01/03"};
  DetectionEngine engine(&registry);
  DetectReport before = engine.Detect({DetectRequest{"dates", values}}).front();

  // Rewrite the artifact in place (retrain-and-mv shape) and nudge the mtime
  // forward in case the filesystem clock is coarse.
  ASSERT_TRUE(VariantModel().Save(path).ok());
  std::error_code ec;
  std::filesystem::last_write_time(
      path, std::filesystem::file_time_type::clock::now() + std::chrono::seconds(2),
      ec);

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (registry.Generation() == gen0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(registry.Generation(), gen0) << "watcher never picked up the rewrite";
  registry.StopWatch();
  EXPECT_FALSE(registry.watching());

  DetectReport after = engine.Detect({DetectRequest{"dates", values}}).front();
  Detector variant_detector(&VariantModel());
  EXPECT_EQ(Fingerprint(after.column), Fingerprint(Analyze(variant_detector, values)));
  (void)before;
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace autodetect
