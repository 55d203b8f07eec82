#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"

/// \file lifecycle.h
/// Server lifecycle & overload defense: the layer that turns a fast server
/// into an operable one. Three cooperating pieces (see DESIGN.md §16):
///
///   MemoryBudget    per-request and global byte budgets charged at wire
///                   decode and column materialization. Over budget is a
///                   typed kResourceExhausted rejection — never an OOM.
///   HealthLadder    healthy → degraded → draining → unhealthy, driven by
///                   named conditions and surfaced via /healthz and the
///                   serve.health.state gauge.
///   Watchdog        a sampling thread that watches dispatch tasks and
///                   acceptor-loop heartbeats; a task stuck past the wedge
///                   timeout flips the ladder to degraded, a silent
///                   acceptor loop flips it to unhealthy. Both recover
///                   automatically when the stall clears.
///
/// Model hot-reload failures feed the ladder too, from the ModelRegistry
/// (serve/model_registry.h), which owns the one reload retry policy.
///
/// All components are thread-safe and metric-instrumented; all accept a
/// null MetricsRegistry meaning the process default.

namespace autodetect {

// ---------------------------------------------------------------------------
// MemoryBudget

struct MemoryBudgetOptions {
  /// Total bytes chargeable across all in-flight requests. 0 = unlimited.
  size_t global_bytes = 0;
  /// Bytes one request may charge (wire frame + materialized columns).
  /// 0 = unlimited.
  size_t per_request_bytes = 0;
  /// Metrics destination; null means the process default registry.
  MetricsRegistry* metrics = nullptr;
};

/// Byte-budget accounting for the serving path. Charging is two-phase:
/// `Admit` at wire-decode time (the frame's claimed payload size), then
/// `Charge::Extend` as columns materialize. Both fail softly — the caller
/// turns a refusal into a typed error frame / HTTP 503, the process never
/// allocates past the budget on the request path.
///
/// Metrics: serve.mem.inflight_bytes (gauge), serve.mem.peak_bytes (gauge),
/// serve.mem.rejected_total (counter).
class MemoryBudget {
 public:
  /// RAII handle for one request's charged bytes; releases on destruction.
  /// Movable, not copyable. A default-constructed Charge is empty (budget
  /// disabled) — Extend on it always succeeds.
  class Charge {
   public:
    Charge() = default;
    ~Charge() { Release(); }
    Charge(const Charge&) = delete;
    Charge& operator=(const Charge&) = delete;
    Charge(Charge&& other) noexcept
        : budget_(other.budget_), bytes_(other.bytes_) {
      other.budget_ = nullptr;
      other.bytes_ = 0;
    }
    Charge& operator=(Charge&& other) noexcept {
      if (this != &other) {
        Release();
        budget_ = other.budget_;
        bytes_ = other.bytes_;
        other.budget_ = nullptr;
        other.bytes_ = 0;
      }
      return *this;
    }

    /// \brief Charges `more_bytes` on top of the admitted amount. Returns
    /// false (charge unchanged, rejection counted) when the extension would
    /// exceed the per-request or global budget.
    bool Extend(size_t more_bytes);

    /// \brief Returns this charge's bytes to the budget. Idempotent.
    void Release();

    size_t bytes() const { return bytes_; }

   private:
    friend class MemoryBudget;
    Charge(MemoryBudget* budget, size_t bytes)
        : budget_(budget), bytes_(bytes) {}
    MemoryBudget* budget_ = nullptr;
    size_t bytes_ = 0;
  };

  explicit MemoryBudget(MemoryBudgetOptions options = {});

  /// \brief Admits a request claiming `bytes`. kResourceExhausted when the
  /// claim exceeds the per-request budget or does not fit in the global
  /// budget right now (the latter is retryable — the error message says so).
  Result<Charge> Admit(size_t bytes);

  /// \brief True when a claim of `bytes` can never be admitted (exceeds the
  /// per-request cap). Lets the wire loop reject a hostile length prefix
  /// from the 5-byte frame header alone, before buffering the payload.
  bool WouldExceedPerRequest(size_t bytes) const {
    return options_.per_request_bytes != 0 &&
           bytes > options_.per_request_bytes;
  }

  size_t inflight_bytes() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  size_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  uint64_t rejected_total() const {
    return rejected_count_.load(std::memory_order_relaxed);
  }
  bool enabled() const {
    return options_.global_bytes != 0 || options_.per_request_bytes != 0;
  }
  const MemoryBudgetOptions& options() const { return options_; }

 private:
  /// Reserves `bytes` against the global budget; false when it doesn't fit.
  bool TryReserve(size_t bytes);
  void Unreserve(size_t bytes);
  void CountRejection();

  MemoryBudgetOptions options_;
  std::atomic<size_t> inflight_{0};
  std::atomic<size_t> peak_{0};
  std::atomic<uint64_t> rejected_count_{0};
  Counter* rejected_metric_ = nullptr;
  Gauge* inflight_metric_ = nullptr;
  Gauge* peak_metric_ = nullptr;
};

// ---------------------------------------------------------------------------
// HealthLadder

enum class HealthState : uint8_t {
  kHealthy = 0,
  kDegraded = 1,   ///< serving, but a condition is active (wedge, reload)
  kDraining = 2,   ///< shutting down; finishing in-flight, refusing new work
  kUnhealthy = 3,  ///< not serving (acceptor loop stalled)
};

std::string_view HealthStateName(HealthState state);

/// Aggregates named conditions into one server health state. Severity is
/// ordered unhealthy > draining > degraded > healthy; draining is sticky
/// (a drain never un-drains), conditions set and clear freely. /healthz
/// returns 200 while Serving() and 503 otherwise; the numeric state is
/// exported as the serve.health.state gauge on every transition.
class HealthLadder {
 public:
  explicit HealthLadder(MetricsRegistry* metrics = nullptr);

  /// \brief Activates/clears a degraded-severity condition (e.g.
  /// "worker-wedged", "breaker:model-reload").
  void SetCondition(std::string_view name, bool active);
  /// \brief Activates/clears an unhealthy-severity condition (e.g.
  /// "acceptor-stalled").
  void SetUnhealthyCondition(std::string_view name, bool active);
  /// \brief Enters draining; irreversible for this ladder's lifetime.
  void SetDraining();

  HealthState state() const;
  bool draining() const { return draining_.load(std::memory_order_acquire); }
  /// \brief True when /healthz should answer 200 (healthy or degraded).
  bool Serving() const {
    HealthState s = state();
    return s == HealthState::kHealthy || s == HealthState::kDegraded;
  }
  /// \brief {"state": "...", "draining": bool, "conditions": [...]} with
  /// conditions sorted for deterministic output.
  std::string ToJson() const;

 private:
  void PublishLocked();

  MetricsRegistry* metrics_;
  Gauge* state_metric_ = nullptr;
  mutable std::mutex mu_;
  std::set<std::string> degraded_;
  std::set<std::string> unhealthy_;
  std::atomic<bool> draining_{false};
};

// ---------------------------------------------------------------------------
// Watchdog

struct WatchdogOptions {
  /// Sampling period of the watchdog thread.
  uint64_t interval_ms = 100;
  /// A dispatch task running longer than this is wedged (degraded). Size as
  /// N × the request deadline — a wedged worker is one that outlived any
  /// deadline that should have bounded it.
  uint64_t wedge_timeout_ms = 5000;
  /// An acceptor loop whose heartbeat is older than this is stalled
  /// (unhealthy — the server cannot accept work).
  uint64_t stall_timeout_ms = 5000;
  /// Ladder to drive; null = detection only (Stats still reflect wedges).
  HealthLadder* health = nullptr;
  /// Metrics destination; null means the process default registry.
  MetricsRegistry* metrics = nullptr;
};

/// Watchdog over the serving threads. Dispatch work brackets itself in a
/// TaskScope; event loops call Beat() once per iteration. A sampling thread
/// (or CheckNow() in tests) compares both against the timeouts and drives
/// the health ladder: wedged task ⇒ "worker-wedged" degraded condition,
/// stalled loop ⇒ "acceptor-stalled" unhealthy condition. Conditions clear
/// on the first check after the stall resolves — health recovers without a
/// restart.
///
/// Metrics: serve.watchdog.checks_total, serve.watchdog.wedged_tasks
/// (gauge), serve.watchdog.stalled_loops (gauge).
class Watchdog {
 public:
  /// Null-safe RAII bracket around one unit of dispatch work.
  class TaskScope {
   public:
    TaskScope(Watchdog* dog, const char* kind);
    ~TaskScope();
    TaskScope(const TaskScope&) = delete;
    TaskScope& operator=(const TaskScope&) = delete;

   private:
    Watchdog* dog_ = nullptr;
    uint64_t id_ = 0;
  };

  explicit Watchdog(WatchdogOptions options = {});
  ~Watchdog();

  void Start();
  void Stop();

  /// \brief Registers a heartbeat slot for a loop thread; the returned id is
  /// stable for the watchdog's lifetime. The slot starts "fresh" so a loop
  /// is only stalled relative to its own last Beat.
  size_t RegisterHeartbeat(std::string name);
  void Beat(size_t id);

  /// \brief Runs one sampling pass synchronously (deterministic for tests;
  /// also what the background thread calls each interval).
  void CheckNow();

  size_t wedged_tasks() const {
    return wedged_now_.load(std::memory_order_relaxed);
  }
  size_t stalled_loops() const {
    return stalled_now_.load(std::memory_order_relaxed);
  }
  const WatchdogOptions& options() const { return options_; }

 private:
  uint64_t BeginTask(const char* kind);
  void EndTask(uint64_t id);
  static int64_t NowMs();

  WatchdogOptions options_;
  Counter* checks_metric_ = nullptr;
  Gauge* wedged_metric_ = nullptr;
  Gauge* stalled_metric_ = nullptr;

  struct Task {
    const char* kind;
    int64_t started_ms;
  };
  struct Heartbeat {
    std::string name;
    std::atomic<int64_t> last_ms{0};
  };

  mutable std::mutex mu_;
  std::map<uint64_t, Task> tasks_;
  uint64_t next_task_id_ = 1;
  std::vector<std::unique_ptr<Heartbeat>> heartbeats_;

  std::atomic<size_t> wedged_now_{0};
  std::atomic<size_t> stalled_now_{0};

  std::mutex run_mu_;
  std::condition_variable run_cv_;
  bool stopping_ = false;
  std::thread thread_;
  bool started_ = false;
};

}  // namespace autodetect
