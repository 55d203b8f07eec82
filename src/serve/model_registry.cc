#include "serve/model_registry.h"

#include <sys/stat.h>

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/random.h"
#include "obs/trace.h"

namespace autodetect {

namespace {

/// Watcher retry backoff: first retry after ~kBackoffBaseMs, doubling to
/// kBackoffMaxMs, each jittered into [base/2, base] so a fleet of watchers
/// pointed at one shared artifact does not retry in lockstep.
constexpr int64_t kBackoffBaseMs = 50;
constexpr int64_t kBackoffMaxMs = 10'000;

/// Consecutive failed reloads that mark the health ladder degraded.
constexpr uint32_t kDegradedAfterFailures = 3;
constexpr const char* kReloadCondition = "breaker:model-reload";

}  // namespace

ModelRegistry::ModelRegistry(MetricsRegistry* metrics, HealthLadder* health)
    : health_(health) {
  MetricsRegistry* registry = OrDefaultRegistry(metrics);
  reload_total_ = registry->GetCounter("model.reload.total");
  reload_errors_ = registry->GetCounter("model.reload.errors_total");
  reload_latency_us_ = registry->GetHistogram("model.reload.latency_us");
  reload_backoff_ms_ = registry->GetGauge("model.reload.backoff_ms");
  degraded_total_ = registry->GetCounter("serve.breaker.model-reload.open_total");
  model_bytes_ = registry->GetGauge("model.bytes");
  model_generation_ = registry->GetGauge("model.generation");
  sketch_bytes_ = registry->GetGauge("model.sketch.bytes");
  sketch_languages_ = registry->GetGauge("model.sketch.languages");
  sketch_width_ = registry->GetGauge("model.sketch.width");
  sketch_depth_ = registry->GetGauge("model.sketch.depth");
}

ModelRegistry::~ModelRegistry() { StopWatch(); }

void ModelRegistry::PublishModelMetrics(const std::shared_ptr<const Model>& model,
                                        uint64_t generation) {
  // FileBytes is the artifact size for mapped v2 models; v1/installed models
  // have no backing file, so fall back to the estimated resident size.
  size_t bytes = model->FileBytes();
  if (bytes == 0) bytes = model->MemoryBytes();
  model_bytes_->Set(static_cast<double>(bytes));
  model_generation_->Set(static_cast<double>(generation));
  // Sketch footprint of the served model: all zeros for exact-only models,
  // refreshed on every swap so a hot reload from exact to sketched (or
  // back) is visible in dumps immediately.
  const ModelSketchInfo sketch = model->SketchInfo();
  sketch_bytes_->Set(static_cast<double>(sketch.bytes));
  sketch_languages_->Set(static_cast<double>(sketch.languages));
  sketch_width_->Set(static_cast<double>(sketch.width));
  sketch_depth_->Set(static_cast<double>(sketch.depth));
}

Status ModelRegistry::Reload(const std::string& path) {
  Status attempt = ReloadAttempt(path);
  RecordOutcome(attempt.ok());
  return attempt;
}

void ModelRegistry::RecordOutcome(bool ok) {
  // Under mu_ so a success racing a failure cannot leave the condition set
  // with a zero streak. The condition clears last: a reader that sees the
  // ladder healthy also sees the backoff reset.
  std::lock_guard<std::mutex> lock(mu_);
  if (ok) {
    const bool degraded = failure_streak_ >= kDegradedAfterFailures;
    failure_streak_ = 0;
    reload_backoff_ms_->Set(0);
    if (degraded && health_ != nullptr) {
      health_->SetCondition(kReloadCondition, false);
    }
    return;
  }
  if (++failure_streak_ == kDegradedAfterFailures) {
    degraded_total_->Add(1);
    if (health_ != nullptr) health_->SetCondition(kReloadCondition, true);
  }
}

uint32_t ModelRegistry::failure_streak() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failure_streak_;
}

Status ModelRegistry::ReloadAttempt(const std::string& path) {
  StageTimer timer(reload_latency_us_);
  if (AD_FAILPOINT("registry.reload.fail")) {
    reload_errors_->Add(1);
    return Status::IOError("failpoint registry.reload.fail: artifact unreadable")
        .WithContext("reloading model from " + path);
  }
  Result<Model> loaded = Model::Load(path);
  if (!loaded.ok()) {
    reload_errors_->Add(1);
    return loaded.status().WithContext("reloading model from " + path);
  }
  auto model = std::make_shared<const Model>(std::move(loaded).ValueOrDie());
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    model_ = model;
    path_ = path;
    // Release-publish after the snapshot is in place: an executor that sees
    // the new generation is guaranteed to read the new model.
    generation = generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  reload_total_->Add(1);
  PublishModelMetrics(model, generation);
  return Status::OK();
}

void ModelRegistry::Install(std::shared_ptr<const Model> model) {
  AD_CHECK(model != nullptr);
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    model_ = model;
    generation = generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  reload_total_->Add(1);
  PublishModelMetrics(model, generation);
}

std::shared_ptr<const Model> ModelRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return model_;
}

std::string ModelRegistry::path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

Status ModelRegistry::StartWatch(const std::string& path,
                                 std::chrono::milliseconds poll) {
  if (watcher_.joinable()) return Status::Invalid("already watching");
  watch_path_ = path;
  watch_poll_ = poll;
  watch_version_ = FileVersion{};
  ReadVersion(path, &watch_version_);  // zero when absent; retried below
  Status initial = Reload(path);
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watch_stop_ = false;
  }
  watcher_ = std::thread([this] { WatchLoop(); });
  return initial;
}

bool ModelRegistry::ReadVersion(const std::string& path, FileVersion* out) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return false;
  out->mtime_ns =
      static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 + st.st_mtim.tv_nsec;
  out->inode = static_cast<uint64_t>(st.st_ino);
  return true;
}

void ModelRegistry::StopWatch() {
  if (!watcher_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watch_stop_ = true;
  }
  watch_cv_.notify_all();
  watcher_.join();
}

void ModelRegistry::WatchLoop() {
  // The retry schedule follows the registry's failure streak, so a direct
  // Reload that succeeds also ends the watcher's backoff. `backoff` is the
  // jittered wait in effect while the streak is nonzero. Seeded from `this`
  // so concurrent registries in one process jitter independently;
  // reproducibility does not matter for retry spacing.
  Pcg32 jitter(reinterpret_cast<uintptr_t>(this) | 1u);
  std::chrono::milliseconds backoff{0};
  while (true) {
    const std::chrono::milliseconds wait =
        backoff.count() > 0 ? backoff : watch_poll_;
    {
      std::unique_lock<std::mutex> lock(watch_mu_);
      if (watch_cv_.wait_for(lock, wait, [this] { return watch_stop_; })) {
        return;
      }
    }
    if (failure_streak() == 0) backoff = std::chrono::milliseconds{0};
    FileVersion version;
    if (!ReadVersion(watch_path_, &version)) continue;  // absent mid-swap; next poll
    // A pending backoff retries even without a new version — the common
    // failure is a half-written artifact that becomes whole under the same
    // timestamp granule, and waiting for the next push would serve stale.
    if (version == watch_version_ && backoff.count() == 0) continue;
    watch_version_ = version;
    Reload(watch_path_);  // the outcome feeds the streak
    const uint32_t failures = failure_streak();
    if (failures == 0) {
      backoff = std::chrono::milliseconds{0};
      continue;
    }
    // Reload counted the error and kept the old snapshot; schedule a retry.
    const int64_t base = std::min(
        kBackoffMaxMs, kBackoffBaseMs << std::min<uint32_t>(failures - 1, 20));
    const int64_t jittered = jitter.Uniform(base / 2, base);
    backoff = std::chrono::milliseconds{jittered};
    reload_backoff_ms_->Set(static_cast<double>(jittered));
  }
}

}  // namespace autodetect
