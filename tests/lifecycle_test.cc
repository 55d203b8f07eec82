/// \file lifecycle_test.cc
/// Unit tests for the server lifecycle & overload-defense layer
/// (serve/lifecycle.h): MemoryBudget two-phase charging, HealthLadder
/// severity/stickiness, Watchdog wedge and stall detection, and the
/// CircuitBreaker state machine with its deterministic jittered windows.
/// Everything here is synchronous — time-dependent behaviour is driven
/// through CheckNow() and small real windows, never through sleeps-and-hope
/// assertions on background threads.

#include "serve/lifecycle.h"

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "serve/model_registry.h"

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

// ----------------------------------------------------------- CircuitBreaker

CircuitBreakerOptions FastBreaker(std::string name, HealthLadder* health,
                                  MetricsRegistry* metrics) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.open_base_ms = 20;
  options.open_max_ms = 200;
  options.name = std::move(name);
  options.health = health;
  options.metrics = metrics;
  return options;
}

TEST(CircuitBreakerTest, TripsAfterThresholdAndRefusesWhileOpen) {
  MetricsRegistry metrics;
  HealthLadder ladder;
  CircuitBreaker breaker(FastBreaker("reload", &ladder, &metrics));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);

  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
    EXPECT_EQ(breaker.state(), BreakerState::kClosed);  // under threshold
  }
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();  // third consecutive failure trips it
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.open_total(), 1u);
  EXPECT_EQ(ladder.state(), HealthState::kDegraded);
  EXPECT_FALSE(breaker.Allow());  // refused inside the window
  if (kMetricsEnabled) {
    EXPECT_GE(metrics.GetCounter("serve.breaker.reload.rejected_total")->Value(),
              1u);
  }
  // The jittered window lands in [base/2, base].
  EXPECT_GE(breaker.open_window_ms(), 10u);
  EXPECT_LE(breaker.open_window_ms(), 20u);
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOnSuccess) {
  HealthLadder ladder;
  CircuitBreaker breaker(FastBreaker("probe-ok", &ladder, nullptr));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(breaker.open_window_ms() + 5));
  // First Allow after the window is the probe; it transitions to half-open.
  ASSERT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.Allow());  // only one probe in flight
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(ladder.state(), HealthState::kHealthy);
  // A closed breaker starts counting failures from zero again.
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, FailedProbeReopensWithDoubledWindow) {
  CircuitBreaker breaker(FastBreaker("probe-bad", nullptr, nullptr));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  const uint64_t first_window = breaker.open_window_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(first_window + 5));
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();  // probe fails: re-trip, window doubles
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.open_total(), 2u);
  EXPECT_GE(breaker.open_window_ms(), 20u);  // [40/2, 40] after doubling
  EXPECT_LE(breaker.open_window_ms(), 40u);
}

TEST(CircuitBreakerTest, JitterIsDeterministicPerName) {
  // Same name => same PCG stream => identical window sequence, run to run.
  auto windows = [](const std::string& name) {
    CircuitBreaker breaker(FastBreaker(name, nullptr, nullptr));
    std::vector<uint64_t> out;
    for (int trip = 0; trip < 3; ++trip) {
      for (int i = 0; i < 3; ++i) {
        if (breaker.Allow()) breaker.RecordFailure();
      }
      out.push_back(breaker.open_window_ms());
      std::this_thread::sleep_for(
          std::chrono::milliseconds(breaker.open_window_ms() + 5));
      if (breaker.Allow()) breaker.RecordFailure();  // re-trip via probe
      out.push_back(breaker.open_window_ms());
      if (breaker.state() == BreakerState::kOpen) break;  // enough samples
    }
    return out;
  };
  EXPECT_EQ(windows("alpha"), windows("alpha"));
}

TEST(CircuitBreakerTest, RegistryReloadRefusedWhileOpen) {
  MetricsRegistry metrics;
  CircuitBreaker breaker(FastBreaker("model-reload", nullptr, &metrics));
  ModelRegistry registry(&metrics);
  registry.AttachBreaker(&breaker);
  const uint64_t errors_before =
      metrics.GetCounter("model.reload.errors_total")->Value();
  // Three loads of a nonexistent artifact trip the breaker...
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(registry.Reload("/nonexistent/model.bin").ok());
  }
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  if (kMetricsEnabled) {
    EXPECT_EQ(metrics.GetCounter("model.reload.errors_total")->Value(),
              errors_before + 3);
  }
  // ...after which Reload is refused without touching the disk: typed
  // kResourceExhausted, and errors_total does NOT advance.
  Status refused = registry.Reload("/nonexistent/model.bin");
  EXPECT_TRUE(refused.IsResourceExhausted());
  if (kMetricsEnabled) {
    EXPECT_EQ(metrics.GetCounter("model.reload.errors_total")->Value(),
              errors_before + 3);
  }
}

}  // namespace
}  // namespace autodetect
