#include "serve/detection_engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/trace.h"

namespace autodetect {

namespace {

/// Pair-cache shards per snapshot.
constexpr size_t kCacheShards = 16;

/// The engine owns the wiring: a null detector.metrics inherits the
/// engine's registry so one `metrics` field redirects the whole stack.
EngineOptions NormalizeOptions(EngineOptions options) {
  if (options.detector.metrics == nullptr) {
    options.detector.metrics = options.metrics;
  }
  return options;
}

/// An empty report for a column admission refused: name/tag echoed, status
/// accurate, nothing scanned.
DetectReport MakeShedReport(const DetectRequest& request) {
  DetectReport report;
  report.name = request.name;
  report.tag = request.context.tag;
  report.status = ColumnStatus::kShed;
  return report;
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
}

}  // namespace

DetectionEngine::Snapshot::Snapshot(std::shared_ptr<const Model> model_in,
                                    uint64_t generation_in,
                                    const EngineOptions& options)
    : model(std::move(model_in)),
      generation(generation_in),
      detector(model.get(), options.detector) {
  if (options.cache_bytes > 0) {
    PairCacheOptions cache_opts;
    cache_opts.capacity_bytes = options.cache_bytes;
    cache_opts.num_shards = kCacheShards;
    cache = std::make_unique<ShardedPairCache>(cache_opts);
  }
}

DetectionEngine::DetectionEngine(ModelProvider* provider, EngineOptions options)
    : provider_(provider),
      options_(NormalizeOptions(std::move(options))),
      pool_(options_.num_threads),
      registry_(OrDefaultRegistry(options_.metrics)) {
  InitCommon();
}

DetectionEngine::DetectionEngine(const Model* model, EngineOptions options)
    : owned_provider_(std::make_unique<FixedModel>(model)),
      provider_(owned_provider_.get()),
      options_(NormalizeOptions(std::move(options))),
      pool_(options_.num_threads),
      registry_(OrDefaultRegistry(options_.metrics)) {
  InitCommon();
}

void DetectionEngine::InitCommon() {
  metrics_.batches = registry_->GetCounter("serve.batches_total");
  metrics_.columns = registry_->GetCounter("serve.columns_total");
  metrics_.worker_busy_us = registry_->GetCounter("serve.worker_busy_us_total");
  metrics_.batch_latency_us = registry_->GetHistogram("serve.batch_latency_us");
  metrics_.dispatch_us = registry_->GetHistogram("serve.stage.dispatch_us");
  metrics_.queue_depth = registry_->GetGauge("serve.queue_depth");
  metrics_.workers = registry_->GetGauge("serve.workers");
  metrics_.workers->Set(static_cast<double>(pool_.num_threads()));
  if (options_.cache_bytes > 0) {
    // The cache's counters live behind its shard mutexes; publish them as
    // gauges lazily, at snapshot time, instead of taxing the hot path.
    cache_collector_id_ = registry_->AddCollector(
        [this](MetricsRegistry* registry) { PublishCacheMetrics(registry); });
    cache_collector_registered_ = true;
  }
  // Seed the scratch pool so steady-state batches never allocate one.
  for (size_t i = 0; i < pool_.num_threads(); ++i) {
    scratch_pool_.push_back(std::make_unique<ColumnScratch>());
  }
  // Build the first snapshot eagerly when a model is already available, so
  // the first batch pays no detector-construction latency.
  if (provider_->Snapshot() != nullptr) CurrentSnapshot();
}

DetectionEngine::~DetectionEngine() {
  // RemoveCollector blocks until in-flight snapshots have finished running
  // collectors, so the lambda can never observe a dead `this`.
  if (cache_collector_registered_) registry_->RemoveCollector(cache_collector_id_);
}

std::shared_ptr<DetectionEngine::Snapshot> DetectionEngine::CurrentSnapshot() {
  const uint64_t generation = provider_->Generation();
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (snapshot_ == nullptr || snapshot_->generation != generation) {
    std::shared_ptr<const Model> model = provider_->Snapshot();
    AD_CHECK(model != nullptr);  // provider must be loaded before detection
    snapshot_ = std::make_shared<Snapshot>(std::move(model), generation, options_);
  }
  return snapshot_;
}

const ShardedPairCache* DetectionEngine::cache() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_ == nullptr ? nullptr : snapshot_->cache.get();
}

void DetectionEngine::PublishCacheMetrics(MetricsRegistry* registry) const {
  std::shared_ptr<Snapshot> snapshot;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot = snapshot_;
  }
  if (snapshot == nullptr || snapshot->cache == nullptr) return;
  PairCacheStats total = snapshot->cache->Stats();
  registry->GetGauge("serve.cache.hits")->Set(static_cast<double>(total.hits));
  registry->GetGauge("serve.cache.misses")->Set(static_cast<double>(total.misses));
  registry->GetGauge("serve.cache.insertions")
      ->Set(static_cast<double>(total.insertions));
  registry->GetGauge("serve.cache.evictions")
      ->Set(static_cast<double>(total.evictions));
  registry->GetGauge("serve.cache.entries")->Set(static_cast<double>(total.entries));
  registry->GetGauge("serve.cache.hit_rate")->Set(total.HitRate());
  const std::vector<PairCacheStats> shards = snapshot->cache->PerShardStats();
  for (size_t i = 0; i < shards.size(); ++i) {
    const std::string prefix = StrFormat("serve.cache.shard%zu.", i);
    registry->GetGauge(prefix + "hits")->Set(static_cast<double>(shards[i].hits));
    registry->GetGauge(prefix + "misses")->Set(static_cast<double>(shards[i].misses));
    registry->GetGauge(prefix + "entries")->Set(static_cast<double>(shards[i].entries));
  }
}

std::unique_ptr<ColumnScratch> DetectionEngine::AcquireScratch() {
  {
    std::lock_guard<std::mutex> lock(scratch_mu_);
    if (!scratch_pool_.empty()) {
      auto scratch = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return scratch;
    }
  }
  // Concurrent batches can outnumber the seeded scratches; grow on demand.
  return std::make_unique<ColumnScratch>();
}

void DetectionEngine::ReleaseScratch(std::unique_ptr<ColumnScratch> scratch) {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  scratch_pool_.push_back(std::move(scratch));
}

void DetectionEngine::Detect(const std::vector<DetectRequest>& batch,
                             ReportSink& sink) {
  if (batch.empty()) return;

  // Admission first, charged to the tenant of the batch's first request: a
  // rejected batch (kReject over quota, kBlock timeout) needs no snapshot
  // and no workers — every column comes back kShed, visibly, and the
  // rejection shows up in serve.admission.tenant.<name>.*.
  AdmissionController* const admission =
      options_.tenants == nullptr
          ? nullptr
          : options_.tenants->ControllerFor(batch.front().context.tenant);
  std::shared_ptr<AdmissionController::Ticket> ticket;
  if (admission != nullptr) {
    ticket = admission->Admit(batch.size());
    if (ticket == nullptr) {
      for (size_t i = 0; i < batch.size(); ++i) {
        sink.OnReport(i, MakeShedReport(batch[i]));
      }
      admission->CountShedColumns(batch.size());
      return;
    }
  }

  // Batch-wide default deadline: one token shared by every column that has
  // no request-level token of its own (Detector prefers the request token).
  // The token owns the deadline state, so nothing here must outlive the
  // workers beyond what the completion latch already guarantees.
  CancelToken batch_cancel;
  if (options_.default_deadline_ms > 0) {
    batch_cancel = CancelSource::WithDeadline(
                       std::chrono::milliseconds(options_.default_deadline_ms))
                       .token();
  }

  // Pin one snapshot for the whole batch: a concurrent reload must not
  // split the batch across models. The shared_ptr keeps the snapshot (and
  // its mapped model file) alive even if the engine swaps mid-batch.
  const std::shared_ptr<Snapshot> snapshot = CurrentSnapshot();

  StageTimer batch_timer(metrics_.batch_latency_us);
  if (kMetricsEnabled) {
    metrics_.queue_depth->Set(static_cast<double>(
        inflight_columns_.fetch_add(static_cast<int64_t>(batch.size()),
                                    std::memory_order_relaxed) +
        static_cast<int64_t>(batch.size())));
  }

  const size_t workers = std::min(pool_.num_threads(), batch.size());

  // Per-batch completion latch: WaitIdle() would also wait on concurrent
  // batches' tasks, so each batch counts its own workers down instead.
  struct BatchState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> shed{0};  ///< columns returned kShed mid-batch
    std::mutex mu;
    std::condition_variable done;
    size_t remaining;
  } state;
  state.remaining = workers;

  Snapshot* const snap = snapshot.get();
  // Raw pointer into the shared_ptr held on this frame; the completion
  // latch below keeps it valid for every worker.
  AdmissionController::Ticket* const tick = ticket.get();
  {
    StageTimer dispatch_timer(metrics_.dispatch_us);
    for (size_t w = 0; w < workers; ++w) {
      pool_.Submit([this, &batch, &sink, &state, snap, tick, &batch_cancel] {
        const auto worker_start = std::chrono::steady_clock::now();
        std::unique_ptr<ColumnScratch> scratch = AcquireScratch();
        uint64_t claimed = 0;
        while (true) {
          size_t i = state.next.fetch_add(1, std::memory_order_relaxed);
          if (i >= batch.size()) break;
          if (tick != nullptr && tick->shed()) {
            // Shed mid-flight (a shed-oldest victim): unstarted columns
            // return immediately; columns already scanning finish normally.
            sink.OnReport(i, MakeShedReport(batch[i]));
            state.shed.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (AD_FAILPOINT("serve.worker.slow")) {
            // Chaos hook: stretch one column's scan so deadline/shedding
            // races become reachable in tests.
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
          }
          // Stream the report out the moment the column completes — this is
          // what lets the network layer frame per-column responses before
          // the batch finishes.
          sink.OnReport(i, snap->detector.Detect(batch[i], scratch.get(),
                                                 snap->cache.get(), batch_cancel));
          ++claimed;
        }
        ReleaseScratch(std::move(scratch));
        if (kMetricsEnabled && claimed > 0) {
          metrics_.worker_busy_us->Add(ElapsedUs(worker_start));
        }
        // Notify under the mutex: once the waiter observes remaining == 0 it
        // destroys `state`, so the signal must complete before the lock is
        // released — an unlocked notify could touch a dead condition variable.
        std::lock_guard<std::mutex> lock(state.mu);
        --state.remaining;
        state.done.notify_one();
      });
    }
  }
  {
    std::unique_lock<std::mutex> lock(state.mu);
    state.done.wait(lock, [&state] { return state.remaining == 0; });
  }

  if (admission != nullptr) {
    admission->CountShedColumns(state.shed.load(std::memory_order_relaxed));
    admission->Release(ticket);
  }

  batches_.fetch_add(1, std::memory_order_relaxed);
  columns_.fetch_add(batch.size(), std::memory_order_relaxed);
  metrics_.batches->Add(1);
  metrics_.columns->Add(batch.size());
  if (kMetricsEnabled) {
    metrics_.queue_depth->Set(static_cast<double>(
        inflight_columns_.fetch_sub(static_cast<int64_t>(batch.size()),
                                    std::memory_order_relaxed) -
        static_cast<int64_t>(batch.size())));
  }
}

EngineStats DetectionEngine::Stats() const {
  EngineStats stats;
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.columns = columns_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (snapshot_ != nullptr && snapshot_->cache != nullptr) {
    stats.cache = snapshot_->cache->Stats();
  }
  return stats;
}

}  // namespace autodetect
