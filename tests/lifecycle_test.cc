/// \file lifecycle_test.cc
/// Unit tests for the server lifecycle & overload-defense layer
/// (serve/lifecycle.h): MemoryBudget two-phase charging, HealthLadder
/// severity/stickiness, Watchdog wedge and stall detection, and the
/// ModelRegistry's reload-failure policy as the ladder sees it. Watchdog
/// timing is driven through CheckNow() and small real windows; the one
/// background thread here, the registry's watcher, is awaited by polling
/// with a deadline, never by a fixed sleep.

#include "serve/lifecycle.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "corpus/corpus_generator.h"
#include "detect/trainer.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "temp_path.h"

namespace autodetect {
namespace {

// ------------------------------------------------------------- MemoryBudget

TEST(MemoryBudgetTest, DisabledBudgetAdmitsEverything) {
  MemoryBudget budget;  // both limits 0 = unlimited
  EXPECT_FALSE(budget.enabled());
  auto charge = budget.Admit(size_t{1} << 40);
  ASSERT_TRUE(charge.ok());
  EXPECT_TRUE(charge->Extend(size_t{1} << 40));
  EXPECT_EQ(budget.rejected_total(), 0u);
}

TEST(MemoryBudgetTest, PerRequestCapRejectsTyped) {
  MetricsRegistry metrics;
  MemoryBudget budget({/*global_bytes=*/0, /*per_request_bytes=*/100, &metrics});
  EXPECT_TRUE(budget.WouldExceedPerRequest(101));
  EXPECT_FALSE(budget.WouldExceedPerRequest(100));

  auto rejected = budget.Admit(101);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourceExhausted());
  EXPECT_EQ(budget.rejected_total(), 1u);
  if (kMetricsEnabled) {
    EXPECT_EQ(metrics.GetCounter("serve.mem.rejected_total")->Value(), 1u);
  }

  auto admitted = budget.Admit(60);
  ASSERT_TRUE(admitted.ok());
  // Cumulative per-request cap: 60 admitted + 50 more would be 110 > 100.
  EXPECT_FALSE(admitted->Extend(50));
  EXPECT_EQ(admitted->bytes(), 60u);
  EXPECT_TRUE(admitted->Extend(40));
  EXPECT_EQ(admitted->bytes(), 100u);
}

TEST(MemoryBudgetTest, GlobalBudgetReleasesAndTracksPeak) {
  MemoryBudget budget({/*global_bytes=*/1000, /*per_request_bytes=*/0});
  auto a = budget.Admit(600);
  ASSERT_TRUE(a.ok());
  auto b = budget.Admit(300);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(budget.inflight_bytes(), 900u);

  // 900 + 200 does not fit; the refusal is retryable-flavoured.
  auto refused = budget.Admit(200);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsResourceExhausted());
  EXPECT_NE(refused.status().ToString().find("retry"), std::string::npos);

  a->Release();
  EXPECT_EQ(budget.inflight_bytes(), 300u);
  a->Release();  // idempotent
  EXPECT_EQ(budget.inflight_bytes(), 300u);
  auto c = budget.Admit(200);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(budget.peak_bytes(), 900u);
}

TEST(MemoryBudgetTest, MoveTransfersOwnershipAndDestructorReleases) {
  MemoryBudget budget({/*global_bytes=*/1000, /*per_request_bytes=*/0});
  {
    auto a = budget.Admit(400);
    ASSERT_TRUE(a.ok());
    MemoryBudget::Charge moved = std::move(*a);
    EXPECT_EQ(moved.bytes(), 400u);
    EXPECT_EQ(a->bytes(), 0u);  // NOLINT(bugprone-use-after-move): contract
    EXPECT_EQ(budget.inflight_bytes(), 400u);
  }
  // The moved-to charge went out of scope: everything returned, once.
  EXPECT_EQ(budget.inflight_bytes(), 0u);
}

TEST(MemoryBudgetTest, ConcurrentChargingNeverOversubscribes) {
  MemoryBudget budget({/*global_bytes=*/10000, /*per_request_bytes=*/0});
  std::vector<std::thread> threads;
  std::atomic<size_t> admitted{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&budget, &admitted] {
      for (int i = 0; i < 200; ++i) {
        auto charge = budget.Admit(100);
        if (charge.ok()) {
          admitted.fetch_add(1);
          EXPECT_LE(budget.inflight_bytes(), 10000u);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_GT(admitted.load(), 0u);
  EXPECT_EQ(budget.inflight_bytes(), 0u);
  EXPECT_LE(budget.peak_bytes(), 10000u);
}

// ------------------------------------------------------------- HealthLadder

TEST(HealthLadderTest, SeverityOrderingAndRecovery) {
  MetricsRegistry metrics;
  HealthLadder ladder(&metrics);
  EXPECT_EQ(ladder.state(), HealthState::kHealthy);
  EXPECT_TRUE(ladder.Serving());

  ladder.SetCondition("worker-wedged", true);
  EXPECT_EQ(ladder.state(), HealthState::kDegraded);
  EXPECT_TRUE(ladder.Serving());  // degraded still serves
  if (kMetricsEnabled) {
    EXPECT_EQ(metrics.GetGauge("serve.health.state")->Value(), 1.0);
  }

  ladder.SetUnhealthyCondition("acceptor-stalled", true);
  EXPECT_EQ(ladder.state(), HealthState::kUnhealthy);
  EXPECT_FALSE(ladder.Serving());

  ladder.SetUnhealthyCondition("acceptor-stalled", false);
  EXPECT_EQ(ladder.state(), HealthState::kDegraded);
  ladder.SetCondition("worker-wedged", false);
  EXPECT_EQ(ladder.state(), HealthState::kHealthy);
  EXPECT_EQ(metrics.GetGauge("serve.health.state")->Value(), 0.0);
}

TEST(HealthLadderTest, DrainingIsStickyAndOutranksDegraded) {
  HealthLadder ladder;
  ladder.SetCondition("breaker:model-reload", true);
  ladder.SetDraining();
  EXPECT_EQ(ladder.state(), HealthState::kDraining);
  EXPECT_FALSE(ladder.Serving());
  // Clearing the condition cannot un-drain.
  ladder.SetCondition("breaker:model-reload", false);
  EXPECT_EQ(ladder.state(), HealthState::kDraining);
  EXPECT_TRUE(ladder.draining());
  // Unhealthy still outranks draining (the server cannot even drain).
  ladder.SetUnhealthyCondition("acceptor-stalled", true);
  EXPECT_EQ(ladder.state(), HealthState::kUnhealthy);
}

TEST(HealthLadderTest, ToJsonIsDeterministic) {
  HealthLadder ladder;
  EXPECT_EQ(ladder.ToJson(),
            "{\"state\":\"healthy\",\"draining\":false,\"conditions\":[]}");
  ladder.SetCondition("worker-wedged", true);
  ladder.SetCondition("breaker:model-reload", true);
  const std::string json = ladder.ToJson();
  EXPECT_NE(json.find("\"state\":\"degraded\""), std::string::npos);
  // Conditions are sorted for deterministic output.
  EXPECT_LT(json.find("breaker:model-reload"), json.find("worker-wedged"));
}

// ----------------------------------------------------------------- Watchdog

TEST(WatchdogTest, WedgedTaskFlipsDegradedAndRecovers) {
  HealthLadder ladder;
  WatchdogOptions options;
  options.wedge_timeout_ms = 20;
  options.health = &ladder;
  Watchdog dog(options);  // no Start(): checks driven synchronously
  {
    Watchdog::TaskScope scope(&dog, "wire");
    dog.CheckNow();
    EXPECT_EQ(dog.wedged_tasks(), 0u);  // fresh task is not wedged
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    dog.CheckNow();
    EXPECT_EQ(dog.wedged_tasks(), 1u);
    EXPECT_EQ(ladder.state(), HealthState::kDegraded);
  }
  dog.CheckNow();
  EXPECT_EQ(dog.wedged_tasks(), 0u);
  EXPECT_EQ(ladder.state(), HealthState::kHealthy);
}

TEST(WatchdogTest, StalledHeartbeatFlipsUnhealthyAndRecovers) {
  HealthLadder ladder;
  WatchdogOptions options;
  options.stall_timeout_ms = 20;
  options.health = &ladder;
  Watchdog dog(options);
  const size_t id = dog.RegisterHeartbeat("acceptor-0");
  dog.Beat(id);
  dog.CheckNow();
  EXPECT_EQ(dog.stalled_loops(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  dog.CheckNow();
  EXPECT_EQ(dog.stalled_loops(), 1u);
  EXPECT_EQ(ladder.state(), HealthState::kUnhealthy);
  dog.Beat(id);
  dog.CheckNow();
  EXPECT_EQ(dog.stalled_loops(), 0u);
  EXPECT_EQ(ladder.state(), HealthState::kHealthy);
}

TEST(WatchdogTest, NullSafeTaskScopeAndThreadLifecycle) {
  { Watchdog::TaskScope scope(nullptr, "noop"); }  // must not crash
  Watchdog dog({/*interval_ms=*/5});
  dog.Start();
  { Watchdog::TaskScope scope(&dog, "wire"); }
  dog.Stop();
  dog.Stop();  // idempotent
}

// ---------------------------------------------------- Model reload policy

/// A one-language model trained on a small corpus: enough for a real
/// artifact on disk, cheap enough for a per-case ctest process.
const Model& TinyModel() {
  static const Model* model = [] {
    GeneratorOptions gen;
    gen.num_columns = 120;
    gen.inject_errors = false;
    gen.seed = 3160;
    GeneratedColumnSource source(gen);
    TrainOptions train;
    train.stats.language_ids = {LanguageSpace::IdOf(LanguageSpace::CrudeG())};
    train.supervision.target_positives = 300;
    train.supervision.target_negatives = 300;
    train.corpus_name = "lifecycle-test";
    auto trained = TrainModel(&source, train);
    AD_CHECK(trained.ok()) << trained.status().ToString();
    return new Model(std::move(*trained));
  }();
  return *model;
}

/// Polls `done` every 5ms for up to 20s; true once it holds.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

TEST(ModelReloadPolicyTest, ThreeFailedReloadsDegradeAndEveryReloadReadsDisk) {
  MetricsRegistry metrics;
  HealthLadder ladder(&metrics);
  ModelRegistry registry(&metrics, &ladder);
  Counter* errors = metrics.GetCounter("model.reload.errors_total");
  Counter* open_total = metrics.GetCounter("serve.breaker.model-reload.open_total");
  const uint64_t errors_before = errors->Value();
  const std::string missing = TempPath("ad_lifecycle_missing.model");

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ladder.state(), HealthState::kHealthy) << "after " << i << " failures";
    EXPECT_FALSE(registry.Reload(missing).ok());
  }
  EXPECT_EQ(ladder.state(), HealthState::kDegraded);
  EXPECT_NE(ladder.ToJson().find("breaker:model-reload"), std::string::npos);
  if (kMetricsEnabled) {
    EXPECT_EQ(errors->Value(), errors_before + 3);
    EXPECT_EQ(open_total->Value(), 1u);
  }

  // A fourth Reload still reads the disk: another IO failure, not a refusal.
  Status fourth = registry.Reload(missing);
  EXPECT_FALSE(fourth.ok());
  EXPECT_FALSE(fourth.IsResourceExhausted());
  if (kMetricsEnabled) {
    EXPECT_EQ(errors->Value(), errors_before + 4);
    EXPECT_EQ(open_total->Value(), 1u);
  }
}

TEST(ModelReloadPolicyTest, WatchedCorruptArtifactDegradesUntilGoodModelLands) {
  namespace fs = std::filesystem;
  const std::string path = TempPath("ad_lifecycle_watch.model");
  const std::string staged = TempPath("ad_lifecycle_corrupt.model");
  ASSERT_TRUE(TinyModel().Save(path).ok());

  MetricsRegistry metrics;
  HealthLadder ladder(&metrics);
  ModelRegistry registry(&metrics, &ladder);
  Gauge* backoff = metrics.GetGauge("model.reload.backoff_ms");
  ASSERT_TRUE(registry.StartWatch(path, std::chrono::milliseconds(10)).ok());
  const uint64_t generation = registry.Generation();
  const std::shared_ptr<const Model> served = registry.Snapshot();
  ASSERT_NE(served, nullptr);

  // A corrupt artifact lands by rename, as a save would: the watcher's
  // retries keep failing and the ladder turns degraded.
  {
    std::ofstream out(staged, std::ios::binary);
    out << "ADMODEL2 this is not a model";
  }
  fs::rename(staged, path);
  ASSERT_TRUE(WaitFor([&] { return ladder.state() == HealthState::kDegraded; }))
      << "three failed watcher reloads never degraded the ladder";
  EXPECT_EQ(registry.Generation(), generation);
  EXPECT_EQ(registry.Snapshot(), served);
  if (kMetricsEnabled) {
    EXPECT_GT(backoff->Value(), 0.0);
  }

  // A good model lands: the next retry swaps it in and clears the policy.
  ASSERT_TRUE(TinyModel().Save(path).ok());
  ASSERT_TRUE(WaitFor([&] {
    return registry.Generation() > generation &&
           ladder.state() == HealthState::kHealthy;
  })) << "the good model never cleared the degraded condition";
  EXPECT_EQ(ladder.ToJson().find("breaker:model-reload"), std::string::npos);
  if (kMetricsEnabled) {
    EXPECT_EQ(backoff->Value(), 0.0);
  }
  registry.StopWatch();
  fs::remove(path);
}

}  // namespace
}  // namespace autodetect
