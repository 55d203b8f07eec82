// Tests for the resilient-serving layer: the failpoint framework (trigger
// grammar, determinism, compile-out stubs), cooperative cancellation tokens,
// the admission controller's three policies, graceful degradation under a
// per-column budget, and the DetectionEngine's end-to-end behaviour with
// deadlines, shedding and chaos injection.
//
// tools/run_tier1.sh runs this binary three ways: in the default ctest pass
// (failpoints compiled out — chaos cases skip, everything else must hold),
// under FAILPOINTS=on (the chaos build, where every case runs), and under
// SANITIZE=address/thread (the cancelled-batch stress below is the
// freed-scratch race detector).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "corpus/corpus_generator.h"
#include "detect/trainer.h"
#include "serve/detection_engine.h"
#include "serve/model_registry.h"
#include "serve/resilience.h"
#include "temp_path.h"

namespace autodetect {
namespace {

using failpoint::FailpointSpec;
using failpoint::ScopedFailpoint;

// ------------------------------------------------------------- failpoints

TEST(FailpointTest, CompiledOutStubsAreInert) {
  if (kFailpointsEnabled) GTEST_SKIP() << "chaos build: sites are live";
  failpoint::Enable("stub.site");
  EXPECT_FALSE(AD_FAILPOINT("stub.site"));
  EXPECT_FALSE(failpoint::Fire("stub.site"));
  EXPECT_TRUE(failpoint::Armed().empty());
  EXPECT_EQ(failpoint::Stats("stub.site").evaluations, 0u);
  Status st = failpoint::EnableFromString("stub.site", "on");
  EXPECT_FALSE(st.ok());
}

class FailpointFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kFailpointsEnabled) {
      GTEST_SKIP() << "failpoints compiled out (build with "
                      "-DAUTODETECT_FAILPOINTS=ON)";
    }
  }
  void TearDown() override { failpoint::DisableAll(); }
};

TEST_F(FailpointFixture, UnarmedSiteNeverFires) {
  EXPECT_FALSE(AD_FAILPOINT("test.never.armed"));
  EXPECT_EQ(failpoint::Stats("test.never.armed").evaluations, 0u);
}

TEST_F(FailpointFixture, AlwaysOnFiresEveryEvaluation) {
  failpoint::Enable("test.always");
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(AD_FAILPOINT("test.always"));
  auto stats = failpoint::Stats("test.always");
  EXPECT_EQ(stats.evaluations, 5u);
  EXPECT_EQ(stats.hits, 5u);
}

TEST_F(FailpointFixture, OnceFiresExactlyOnce) {
  FailpointSpec spec;
  spec.max_hits = 1;
  failpoint::Enable("test.once", spec);
  EXPECT_TRUE(AD_FAILPOINT("test.once"));
  EXPECT_FALSE(AD_FAILPOINT("test.once"));
  EXPECT_FALSE(AD_FAILPOINT("test.once"));
  EXPECT_EQ(failpoint::Stats("test.once").hits, 1u);
}

TEST_F(FailpointFixture, SkipThenLimitedHits) {
  ASSERT_TRUE(failpoint::EnableFromString("test.skip", "skip2*once").ok());
  EXPECT_FALSE(AD_FAILPOINT("test.skip"));  // skipped
  EXPECT_FALSE(AD_FAILPOINT("test.skip"));  // skipped
  EXPECT_TRUE(AD_FAILPOINT("test.skip"));   // fires
  EXPECT_FALSE(AD_FAILPOINT("test.skip"));  // once spent
}

TEST_F(FailpointFixture, GrammarRoundTrips) {
  EXPECT_TRUE(failpoint::EnableFromString("g", "on").ok());
  EXPECT_TRUE(failpoint::EnableFromString("g", "once").ok());
  EXPECT_TRUE(failpoint::EnableFromString("g", "3x").ok());
  EXPECT_TRUE(failpoint::EnableFromString("g", "p0.25").ok());
  EXPECT_TRUE(failpoint::EnableFromString("g", "skip2").ok());
  EXPECT_TRUE(failpoint::EnableFromString("g", "skip2*once").ok());
  EXPECT_FALSE(failpoint::EnableFromString("g", "").ok());
  EXPECT_FALSE(failpoint::EnableFromString("g", "sometimes").ok());
  EXPECT_FALSE(failpoint::EnableFromString("g", "p1.5").ok());
  EXPECT_FALSE(failpoint::EnableFromString("g", "skip").ok());
}

TEST_F(FailpointFixture, ProbabilityIsDeterministicPerSite) {
  // Re-arming reseeds from the site name, so the fire sequence replays.
  auto draw_sequence = [] {
    ASSERT_TRUE(failpoint::EnableFromString("test.prob", "p0.5").ok());
  };
  std::vector<bool> first, second;
  draw_sequence();
  for (int i = 0; i < 64; ++i) first.push_back(AD_FAILPOINT("test.prob"));
  draw_sequence();
  for (int i = 0; i < 64; ++i) second.push_back(AD_FAILPOINT("test.prob"));
  EXPECT_EQ(first, second);
  auto stats = failpoint::Stats("test.prob");
  EXPECT_GT(stats.hits, 10u);  // p0.5 over 64 draws: wildly improbable bounds
  EXPECT_LT(stats.hits, 54u);
}

TEST_F(FailpointFixture, ArmedCatalogAndScopedDisarm) {
  {
    ScopedFailpoint a("test.scope.a");
    ScopedFailpoint b("test.scope.b");
    auto armed = failpoint::Armed();
    EXPECT_EQ(armed, (std::vector<std::string>{"test.scope.a", "test.scope.b"}));
  }
  EXPECT_TRUE(failpoint::Armed().empty());
  EXPECT_FALSE(AD_FAILPOINT("test.scope.a"));
}

// ------------------------------------------------------------ cancel token

TEST(CancelTokenTest, DefaultTokenIsInert) {
  CancelToken token;
  EXPECT_FALSE(token.active());
  EXPECT_FALSE(token.Cancelled());
  EXPECT_FALSE(token.ExpiredDeadline());
  EXPECT_FALSE(token.has_deadline());
}

TEST(CancelTokenTest, ExplicitCancelIsStickyAndShared) {
  CancelSource source;
  CancelToken token = source.token();
  CancelToken copy = token;
  EXPECT_TRUE(token.active());
  EXPECT_FALSE(token.Cancelled());
  source.Cancel();
  EXPECT_TRUE(token.Cancelled());
  EXPECT_TRUE(copy.Cancelled());
  EXPECT_FALSE(token.ExpiredDeadline());  // cancelled, not expired
}

TEST(CancelTokenTest, DeadlineExpiryIsDistinguishable) {
  CancelSource source = CancelSource::WithDeadline(std::chrono::milliseconds(0));
  CancelToken token = source.token();
  EXPECT_TRUE(token.has_deadline());
  EXPECT_TRUE(token.Cancelled());        // deadline already passed
  EXPECT_TRUE(token.ExpiredDeadline());  // and the reason is the deadline
}

TEST(CancelTokenTest, FutureDeadlineNotYetCancelled) {
  CancelSource source =
      CancelSource::WithDeadline(std::chrono::milliseconds(60000));
  EXPECT_FALSE(source.token().Cancelled());
}

// ------------------------------------------------------- admission control

TEST(AdmissionPolicyTest, ParseAndNameRoundTrip) {
  for (auto policy : {AdmissionPolicy::kBlock, AdmissionPolicy::kShedOldest,
                      AdmissionPolicy::kReject}) {
    auto parsed = ParseAdmissionPolicy(AdmissionPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ParseAdmissionPolicy("drop-newest").ok());
}

TEST(AdmissionControllerTest, DisabledAdmitsNothingToTrack) {
  AdmissionController controller;  // queue_cap_columns = 0
  EXPECT_FALSE(controller.enabled());
  EXPECT_EQ(controller.Admit(100), nullptr);
  EXPECT_EQ(controller.Stats().admitted, 0u);
}

TEST(AdmissionControllerTest, RejectPolicyRefusesOverCapacity) {
  AdmissionOptions options;
  options.queue_cap_columns = 4;
  options.policy = AdmissionPolicy::kReject;
  AdmissionController controller(options);

  auto first = controller.Admit(3);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(controller.Admit(2), nullptr);  // 3 + 2 > 4
  auto fits = controller.Admit(1);          // 3 + 1 == 4
  ASSERT_NE(fits, nullptr);

  AdmissionStats stats = controller.Stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.inflight_columns, 4u);

  controller.Release(first);
  controller.Release(fits);
  EXPECT_EQ(controller.Stats().inflight_columns, 0u);
}

TEST(AdmissionControllerTest, OversizedBatchAdmittedAlone) {
  AdmissionOptions options;
  options.queue_cap_columns = 4;
  options.policy = AdmissionPolicy::kReject;
  AdmissionController controller(options);

  auto huge = controller.Admit(64);  // > cap, but nothing in flight
  ASSERT_NE(huge, nullptr);
  EXPECT_EQ(controller.Admit(1), nullptr);  // full now
  controller.Release(huge);
  auto after = controller.Admit(1);
  ASSERT_NE(after, nullptr);
  controller.Release(after);
}

TEST(AdmissionControllerTest, BlockPolicyTimesOutThenUnblocksOnRelease) {
  AdmissionOptions options;
  options.queue_cap_columns = 4;
  options.policy = AdmissionPolicy::kBlock;
  options.block_timeout_ms = 30;
  AdmissionController controller(options);

  auto first = controller.Admit(4);
  ASSERT_NE(first, nullptr);
  // Full: the wait must expire and the batch be rejected.
  EXPECT_EQ(controller.Admit(2), nullptr);
  EXPECT_EQ(controller.Stats().block_timeouts, 1u);
  controller.Release(first);

  // A releaser frees capacity mid-wait: the blocked Admit must succeed. The
  // long timeout means only a 10 s stall of the releaser can fail this half.
  options.block_timeout_ms = 10000;
  AdmissionController patient(options);
  auto held = patient.Admit(4);
  ASSERT_NE(held, nullptr);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    patient.Release(held);
  });
  auto second = patient.Admit(2);  // blocks until the release
  releaser.join();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(patient.Stats().block_timeouts, 0u);
  patient.Release(second);
}

TEST(AdmissionControllerTest, ShedOldestEvictsInAdmissionOrder) {
  AdmissionOptions options;
  options.queue_cap_columns = 4;
  options.policy = AdmissionPolicy::kShedOldest;
  AdmissionController controller(options);

  auto oldest = controller.Admit(2);
  auto middle = controller.Admit(1);
  ASSERT_NE(oldest, nullptr);
  ASSERT_NE(middle, nullptr);
  EXPECT_FALSE(oldest->shed());

  // 3 live + 3 new > cap 4; shedding the oldest (2 columns) makes it fit,
  // so the walk stops there and the middle ticket survives.
  auto newest = controller.Admit(3);
  ASSERT_NE(newest, nullptr);         // shed-oldest never rejects
  EXPECT_TRUE(oldest->shed());
  EXPECT_FALSE(middle->shed());
  EXPECT_FALSE(newest->shed());

  controller.CountShedColumns(2);
  EXPECT_EQ(controller.Stats().shed_columns, 2u);
  controller.Release(oldest);
  controller.Release(middle);
  controller.Release(newest);
}

// --------------------------------------------------------- engine fixture

/// One small trained model for all engine-level resilience tests (same
/// pinned recipe as serve_test, so scan behaviour is well understood).
class ResilienceFixture : public ::testing::Test {
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
    train.corpus_name = "resilience-test-web";
    auto model = TrainModel(&source, train);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = new Model(std::move(*model));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  /// Mixed batch with guaranteed-findings columns.
  static std::vector<DetectRequest> MakeBatch(size_t generated) {
    std::vector<DetectRequest> batch;
    GeneratorOptions gen;
    gen.num_columns = generated;
    gen.inject_errors = true;
    gen.seed = 99;
    GeneratedColumnSource source(gen);
    Column column;
    while (source.Next(&column)) {
      batch.push_back(DetectRequest{column.domain, column.values});
    }
    batch.push_back(DetectRequest{
        "dates",
        {"2011-01-01", "2011-01-02", "2011-01-03", "2011-01-04", "2011/01/05"}});
    batch.push_back(DetectRequest{"years", {"1962", "1981", "1974", "1990", "1865."}});
    return batch;
  }

  static Model* model_;
};

Model* ResilienceFixture::model_ = nullptr;

TEST_F(ResilienceFixture, DefaultConfigEveryStatusOk) {
  EngineOptions options;
  options.num_threads = 4;
  DetectionEngine engine(model_, options);
  std::vector<DetectRequest> batch = MakeBatch(24);
  std::vector<DetectReport> reports = engine.Detect(batch);
  ASSERT_EQ(reports.size(), batch.size());
  for (const auto& report : reports) {
    EXPECT_EQ(report.status, ColumnStatus::kOk) << report.name;
  }
}

TEST_F(ResilienceFixture, PreCancelledTokenYieldsEmptyCancelledReports) {
  EngineOptions options;
  options.num_threads = 2;
  DetectionEngine engine(model_, options);
  CancelSource source;
  source.Cancel();
  std::vector<DetectRequest> batch = MakeBatch(8);
  for (auto& request : batch) request.cancel = source.token();
  std::vector<DetectReport> reports = engine.Detect(batch);
  for (size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].status, ColumnStatus::kCancelled);
    EXPECT_EQ(reports[i].name, batch[i].name);  // identity still echoed
    EXPECT_TRUE(reports[i].column.cells.empty());
  }
}

TEST_F(ResilienceFixture, ExpiredDeadlineReportsDeadlineExceeded) {
  EngineOptions options;
  options.num_threads = 2;
  DetectionEngine engine(model_, options);
  CancelSource source = CancelSource::WithDeadline(std::chrono::milliseconds(0));
  std::vector<DetectRequest> batch = MakeBatch(4);
  for (auto& request : batch) request.cancel = source.token();
  for (const auto& report : engine.Detect(batch)) {
    EXPECT_EQ(report.status, ColumnStatus::kDeadlineExceeded);
  }
}

TEST_F(ResilienceFixture, EngineDefaultDeadlineAppliesWhenRequestHasNone) {
  EngineOptions options;
  options.num_threads = 2;
  // A 0ms... would mean disabled; use an unreachably generous deadline to
  // prove the plumbing leaves reports kOk, then an immediate one via the
  // request to prove per-request tokens win over the engine default.
  options.default_deadline_ms = 60000;
  DetectionEngine engine(model_, options);
  std::vector<DetectRequest> batch = MakeBatch(4);
  CancelSource expired = CancelSource::WithDeadline(std::chrono::milliseconds(0));
  batch.front().cancel = expired.token();
  std::vector<DetectReport> reports = engine.Detect(batch);
  EXPECT_EQ(reports.front().status, ColumnStatus::kDeadlineExceeded);
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].status, ColumnStatus::kOk);
  }
}

TEST_F(ResilienceFixture, ColumnBudgetDegradesInsteadOfBlocking) {
  DetectorOptions options;
  options.column_budget_us = 1;  // ~always exceeded after the first row
  Detector detector(model_, options);
  // A wide generated column: plenty of pair rows to cross the budget.
  std::vector<DetectRequest> batch = MakeBatch(8);
  size_t degraded = 0;
  for (const auto& request : batch) {
    DetectReport report = detector.Detect(request);
    if (report.status == ColumnStatus::kDegraded) ++degraded;
    // Degraded or not, the report structure stays intact and sorted.
    for (size_t i = 1; i < report.column.pairs.size(); ++i) {
      EXPECT_GE(report.column.pairs[i - 1].confidence,
                report.column.pairs[i].confidence);
    }
  }
  EXPECT_GT(degraded, 0u);
}

TEST_F(ResilienceFixture, DegradedScanBypassesTheCache) {
  // Prime a cache with full-fidelity verdicts, then run a degraded scan
  // against the same cache: the cache contents must be untouched (no
  // degraded insertions) and the full-fidelity reports unchanged after.
  ShardedPairCache cache;
  DetectorOptions full;
  Detector detector(model_, full);
  std::vector<DetectRequest> batch = MakeBatch(4);
  std::vector<std::string> before;
  for (const auto& request : batch) {
    before.push_back(StrFormat("%zu", detector.Detect(request, nullptr, &cache)
                                          .column.cells.size()));
  }
  const uint64_t insertions_before = cache.Stats().insertions;

  DetectorOptions degraded_opts;
  degraded_opts.column_budget_us = 1;
  Detector degraded(model_, degraded_opts);
  for (const auto& request : batch) {
    (void)degraded.Detect(request, nullptr, &cache);
  }
  // Degraded rows bypass the cache in both directions; only the pre-budget
  // rows of each scan may have probed it. Easiest strong check: re-running
  // the full detector still reproduces the original reports.
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(before[i],
              StrFormat("%zu", detector.Detect(batch[i], nullptr, &cache)
                                   .column.cells.size()));
  }
  EXPECT_GE(cache.Stats().insertions, insertions_before);
}

TEST_F(ResilienceFixture, CancelledBatchNeverTouchesFreedScratch) {
  // The freed-scratch stress: batches cancelled mid-flight from another
  // thread while the caller's results/state live on its stack. Run under
  // SANITIZE=address/thread by tools/run_tier1.sh — any worker touching a
  // dead batch's scratch, results vector or latch is a hard failure there.
  EngineOptions options;
  options.num_threads = 4;
  DetectionEngine engine(model_, options);
  std::vector<DetectRequest> base = MakeBatch(48);
  for (int round = 0; round < 10; ++round) {
    CancelSource source;
    std::vector<DetectRequest> batch = base;
    for (auto& request : batch) request.cancel = source.token();
    std::thread canceller([&source, round] {
      // Staggered cancel points: from "before workers start" to "mid-scan".
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      source.Cancel();
    });
    std::vector<DetectReport> reports = engine.Detect(batch);
    canceller.join();
    ASSERT_EQ(reports.size(), batch.size());
    for (size_t i = 0; i < reports.size(); ++i) {
      // Every report is either complete or honestly partial — and the
      // identity echo proves the slot was written by its own worker.
      EXPECT_EQ(reports[i].name, batch[i].name);
      EXPECT_TRUE(reports[i].status == ColumnStatus::kOk ||
                  reports[i].status == ColumnStatus::kCancelled)
          << ColumnStatusName(reports[i].status);
    }
  }
}

TEST_F(ResilienceFixture, HeldQuotaShedsBatchUntilReleased) {
  // Default build, no failpoint: holding the anonymous tenant's whole quota
  // makes the engine refuse the next batch deterministically.
  MetricsRegistry registry;
  TenantTable tenants(&registry);
  ASSERT_TRUE(tenants.Parse("*=4:reject").ok());
  EngineOptions options;
  options.num_threads = 2;
  options.metrics = &registry;
  options.tenants = &tenants;
  DetectionEngine engine(model_, options);
  AdmissionController* controller = tenants.ControllerFor("");
  ASSERT_NE(controller, nullptr);
  auto held = controller->Admit(4);
  ASSERT_NE(held, nullptr);

  std::vector<DetectRequest> batch = MakeBatch(2);
  for (const auto& report : engine.Detect(batch)) {
    EXPECT_EQ(report.status, ColumnStatus::kShed);
    EXPECT_TRUE(report.column.cells.empty());
  }
  AdmissionStats stats = controller->Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.shed_columns, batch.size());

  controller->Release(held);
  for (const auto& report : engine.Detect(batch)) {
    EXPECT_EQ(report.status, ColumnStatus::kOk) << report.name;
  }
  EXPECT_EQ(controller->Stats().inflight_columns, 0u);
}

TEST_F(ResilienceFixture, RejectedBatchShedsEveryColumn) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "needs the serve.worker.slow failpoint (chaos build)";
  }
  // One slow worker thread + an over-cap second batch: deterministic
  // rejection without sleeping-and-hoping on scheduler timing.
  ScopedFailpoint slow("serve.worker.slow");
  MetricsRegistry registry;
  TenantTable tenants(&registry);
  ASSERT_TRUE(tenants.Parse("*=4:reject").ok());
  EngineOptions options;
  options.num_threads = 1;
  options.metrics = &registry;
  options.tenants = &tenants;
  DetectionEngine engine(model_, options);
  AdmissionController* controller = tenants.ControllerFor("");
  ASSERT_NE(controller, nullptr);

  std::vector<DetectRequest> first = MakeBatch(2);   // 4 columns, admitted
  std::vector<DetectRequest> second = MakeBatch(1);  // rejected while busy
  std::atomic<bool> first_started{false};

  std::thread runner([&] {
    first_started.store(true);
    std::vector<DetectReport> reports = engine.Detect(first);
    for (const auto& report : reports) {
      EXPECT_EQ(report.status, ColumnStatus::kOk);
    }
  });
  while (!first_started.load() || controller->Stats().inflight_columns == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<DetectReport> rejected = engine.Detect(second);
  runner.join();
  for (const auto& report : rejected) {
    EXPECT_EQ(report.status, ColumnStatus::kShed);
    EXPECT_TRUE(report.column.cells.empty());
  }
  AdmissionStats stats = controller->Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.shed_columns, second.size());
}

TEST_F(ResilienceFixture, ShedOldestVictimColumnsReportShed) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "needs the serve.worker.slow failpoint (chaos build)";
  }
  ScopedFailpoint slow("serve.worker.slow");
  MetricsRegistry registry;
  TenantTable tenants(&registry);
  ASSERT_TRUE(tenants.Parse("*=4:shed-oldest").ok());
  EngineOptions options;
  options.num_threads = 1;
  options.metrics = &registry;
  options.tenants = &tenants;
  DetectionEngine engine(model_, options);
  AdmissionController* controller = tenants.ControllerFor("");
  ASSERT_NE(controller, nullptr);

  std::vector<DetectRequest> first = MakeBatch(2);   // 4 columns
  std::vector<DetectRequest> second = MakeBatch(1);  // 3 columns, sheds first
  std::vector<DetectReport> first_reports;

  std::thread runner([&] { first_reports = engine.Detect(first); });
  while (controller->Stats().inflight_columns == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<DetectReport> second_reports = engine.Detect(second);
  runner.join();

  // The newcomer was admitted and fully served.
  for (const auto& report : second_reports) {
    EXPECT_EQ(report.status, ColumnStatus::kOk);
  }
  // The victim finished the column it was scanning and shed the rest.
  size_t shed = 0;
  for (const auto& report : first_reports) {
    if (report.status == ColumnStatus::kShed) {
      ++shed;
      EXPECT_TRUE(report.column.cells.empty());
    }
  }
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(controller->Stats().shed_columns, shed);
  EXPECT_EQ(controller->Stats().rejected, 0u);  // shed-oldest never rejects
}

TEST_F(ResilienceFixture, WatcherRetriesFailedReloadWithBackoff) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "needs the registry.reload.fail failpoint (chaos build)";
  }
  namespace fs = std::filesystem;
  const std::string path = TempPath("ad_resilience_watch.model");
  ASSERT_TRUE(model_->Save(path).ok());

  ModelRegistry registry;
  ASSERT_TRUE(registry.StartWatch(path, std::chrono::milliseconds(20)).ok());
  const uint64_t generation = registry.Generation();

  // Fail the next two reload attempts, then let the retry succeed. The mtime
  // changes ONCE — only backoff-driven retries can recover, which is the
  // regression this test pins (the old watcher waited for the next push).
  {
    FailpointSpec twice;
    twice.max_hits = 2;
    ScopedFailpoint fail("registry.reload.fail", twice);
    ASSERT_TRUE(model_->Save(path).ok());  // bump mtime
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (registry.Generation() == generation &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_GT(registry.Generation(), generation)
      << "watcher never recovered from transient reload failures";
  EXPECT_EQ(failpoint::Stats("registry.reload.fail").hits, 2u);
  registry.StopWatch();
  fs::remove(path);
}

}  // namespace
}  // namespace autodetect
