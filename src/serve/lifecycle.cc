#include "serve/lifecycle.h"

#include <chrono>

#include "common/string_util.h"

namespace autodetect {

// ---------------------------------------------------------------------------
// MemoryBudget

MemoryBudget::MemoryBudget(MemoryBudgetOptions options)
    : options_(std::move(options)) {
  MetricsRegistry* registry = OrDefaultRegistry(options_.metrics);
  rejected_metric_ = registry->GetCounter("serve.mem.rejected_total");
  inflight_metric_ = registry->GetGauge("serve.mem.inflight_bytes");
  peak_metric_ = registry->GetGauge("serve.mem.peak_bytes");
}

bool MemoryBudget::TryReserve(size_t bytes) {
  if (bytes == 0) return true;
  size_t cur = inflight_.load(std::memory_order_relaxed);
  for (;;) {
    if (options_.global_bytes != 0 &&
        (bytes > options_.global_bytes ||
         cur > options_.global_bytes - bytes)) {
      return false;
    }
    if (inflight_.compare_exchange_weak(cur, cur + bytes,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
  size_t now = cur + bytes;
  inflight_metric_->Set(static_cast<double>(inflight_.load(std::memory_order_relaxed)));
  size_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  peak_metric_->Set(static_cast<double>(peak_.load(std::memory_order_relaxed)));
  return true;
}

void MemoryBudget::Unreserve(size_t bytes) {
  if (bytes == 0) return;
  inflight_.fetch_sub(bytes, std::memory_order_relaxed);
  inflight_metric_->Set(static_cast<double>(inflight_.load(std::memory_order_relaxed)));
}

void MemoryBudget::CountRejection() {
  rejected_count_.fetch_add(1, std::memory_order_relaxed);
  rejected_metric_->Add(1);
}

Result<MemoryBudget::Charge> MemoryBudget::Admit(size_t bytes) {
  if (!enabled()) return Charge(this, 0);
  if (WouldExceedPerRequest(bytes)) {
    CountRejection();
    return Status::ResourceExhausted(StrFormat(
        "request claims %zu bytes, over the per-request budget of %zu",
        bytes, options_.per_request_bytes));
  }
  if (!TryReserve(bytes)) {
    CountRejection();
    return Status::ResourceExhausted(StrFormat(
        "request of %zu bytes does not fit the global memory budget "
        "(%zu in flight of %zu); retry later",
        bytes, inflight_.load(std::memory_order_relaxed),
        options_.global_bytes));
  }
  return Charge(this, bytes);
}

bool MemoryBudget::Charge::Extend(size_t more_bytes) {
  if (budget_ == nullptr || more_bytes == 0) return true;
  if (budget_->options_.per_request_bytes != 0 &&
      bytes_ + more_bytes > budget_->options_.per_request_bytes) {
    budget_->CountRejection();
    return false;
  }
  if (!budget_->TryReserve(more_bytes)) {
    budget_->CountRejection();
    return false;
  }
  bytes_ += more_bytes;
  return true;
}

void MemoryBudget::Charge::Release() {
  if (budget_ != nullptr) {
    budget_->Unreserve(bytes_);
    budget_ = nullptr;
    bytes_ = 0;
  }
}

// ---------------------------------------------------------------------------
// HealthLadder

std::string_view HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kDraining:
      return "draining";
    case HealthState::kUnhealthy:
      return "unhealthy";
  }
  return "unknown";
}

HealthLadder::HealthLadder(MetricsRegistry* metrics)
    : metrics_(OrDefaultRegistry(metrics)) {
  state_metric_ = metrics_->GetGauge("serve.health.state");
  state_metric_->Set(0.0);
}

void HealthLadder::SetCondition(std::string_view name, bool active) {
  std::lock_guard<std::mutex> lock(mu_);
  if (active) {
    degraded_.insert(std::string(name));
  } else {
    degraded_.erase(std::string(name));
  }
  PublishLocked();
}

void HealthLadder::SetUnhealthyCondition(std::string_view name, bool active) {
  std::lock_guard<std::mutex> lock(mu_);
  if (active) {
    unhealthy_.insert(std::string(name));
  } else {
    unhealthy_.erase(std::string(name));
  }
  PublishLocked();
}

void HealthLadder::SetDraining() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_.store(true, std::memory_order_release);
  PublishLocked();
}

HealthState HealthLadder::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!unhealthy_.empty()) return HealthState::kUnhealthy;
  if (draining_.load(std::memory_order_acquire)) return HealthState::kDraining;
  if (!degraded_.empty()) return HealthState::kDegraded;
  return HealthState::kHealthy;
}

void HealthLadder::PublishLocked() {
  HealthState s = HealthState::kHealthy;
  if (!unhealthy_.empty()) {
    s = HealthState::kUnhealthy;
  } else if (draining_.load(std::memory_order_acquire)) {
    s = HealthState::kDraining;
  } else if (!degraded_.empty()) {
    s = HealthState::kDegraded;
  }
  state_metric_->Set(static_cast<double>(static_cast<uint8_t>(s)));
}

std::string HealthLadder::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  HealthState s = HealthState::kHealthy;
  if (!unhealthy_.empty()) {
    s = HealthState::kUnhealthy;
  } else if (draining_.load(std::memory_order_acquire)) {
    s = HealthState::kDraining;
  } else if (!degraded_.empty()) {
    s = HealthState::kDegraded;
  }
  std::string out = "{\"state\":\"";
  out += HealthStateName(s);
  out += "\",\"draining\":";
  out += draining_.load(std::memory_order_acquire) ? "true" : "false";
  out += ",\"conditions\":[";
  bool first = true;
  for (const auto& set : {&unhealthy_, &degraded_}) {
    for (const std::string& name : *set) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += name;  // condition names are code-chosen identifiers, JSON-safe
      out += '"';
    }
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Watchdog

Watchdog::Watchdog(WatchdogOptions options) : options_(std::move(options)) {
  MetricsRegistry* registry = OrDefaultRegistry(options_.metrics);
  checks_metric_ = registry->GetCounter("serve.watchdog.checks_total");
  wedged_metric_ = registry->GetGauge("serve.watchdog.wedged_tasks");
  stalled_metric_ = registry->GetGauge("serve.watchdog.stalled_loops");
}

Watchdog::~Watchdog() { Stop(); }

int64_t Watchdog::NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Watchdog::Start() {
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    if (started_) return;
    started_ = true;
    stopping_ = false;
  }
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(run_mu_);
    while (!stopping_) {
      run_cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms));
      if (stopping_) break;
      lock.unlock();
      CheckNow();
      lock.lock();
    }
  });
}

void Watchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    if (!started_) return;
    stopping_ = true;
  }
  run_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    started_ = false;
  }
}

uint64_t Watchdog::BeginTask(const char* kind) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_task_id_++;
  tasks_.emplace(id, Task{kind, NowMs()});
  return id;
}

void Watchdog::EndTask(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  tasks_.erase(id);
}

Watchdog::TaskScope::TaskScope(Watchdog* dog, const char* kind) : dog_(dog) {
  if (dog_ != nullptr) id_ = dog_->BeginTask(kind);
}

Watchdog::TaskScope::~TaskScope() {
  if (dog_ != nullptr) dog_->EndTask(id_);
}

size_t Watchdog::RegisterHeartbeat(std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto beat = std::make_unique<Heartbeat>();
  beat->name = std::move(name);
  beat->last_ms.store(NowMs(), std::memory_order_relaxed);
  heartbeats_.push_back(std::move(beat));
  return heartbeats_.size() - 1;
}

void Watchdog::Beat(size_t id) {
  // Registration happens before the loop threads start, so the vector is
  // stable by the time Beat races with CheckNow.
  std::lock_guard<std::mutex> lock(mu_);
  if (id < heartbeats_.size()) {
    heartbeats_[id]->last_ms.store(NowMs(), std::memory_order_relaxed);
  }
}

void Watchdog::CheckNow() {
  const int64_t now = NowMs();
  size_t wedged = 0;
  size_t stalled = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, task] : tasks_) {
      if (now - task.started_ms >
          static_cast<int64_t>(options_.wedge_timeout_ms)) {
        ++wedged;
      }
    }
    for (const auto& beat : heartbeats_) {
      if (now - beat->last_ms.load(std::memory_order_relaxed) >
          static_cast<int64_t>(options_.stall_timeout_ms)) {
        ++stalled;
      }
    }
  }
  wedged_now_.store(wedged, std::memory_order_relaxed);
  stalled_now_.store(stalled, std::memory_order_relaxed);
  checks_metric_->Add(1);
  wedged_metric_->Set(static_cast<double>(wedged));
  stalled_metric_->Set(static_cast<double>(stalled));
  if (options_.health != nullptr) {
    options_.health->SetCondition("worker-wedged", wedged > 0);
    options_.health->SetUnhealthyCondition("acceptor-stalled", stalled > 0);
  }
}

}  // namespace autodetect
