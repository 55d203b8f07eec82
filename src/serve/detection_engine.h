#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "detect/api.h"
#include "detect/detector.h"
#include "detect/model.h"
#include "detect/model_provider.h"
#include "obs/metrics.h"
#include "serve/pair_cache.h"
#include "serve/resilience.h"

/// \file detection_engine.h
/// The serving layer: a batch detection engine that fans column requests out
/// over a worker pool. This is the deployment shape of the paper's
/// "spell-checker for data" at service scale — a request is a table's worth
/// of columns, and the engine must return exactly what the sequential
/// Detector would, only faster. It is the parallel executor of the unified
/// detection API (detect/api.h).
///
/// Model lifecycle: the engine acquires models through a ModelProvider
/// (detect/model_provider.h). Each batch pins one immutable snapshot —
/// {model, detector, pair cache} — for its whole duration; when the
/// provider swaps models (ModelRegistry hot reload), in-flight batches
/// finish on the old snapshot and the next batch builds a fresh one. The
/// pair cache lives inside the snapshot on purpose: cached verdicts are a
/// function of the model's statistics, so carrying them across a reload
/// would silently serve the old model's judgments.
///
/// Guarantees:
///  * Determinism — every report's ColumnReport is bit-identical to
///    Detector::Detect on the same values against the same snapshot,
///    regardless of worker count, scheduling, or cache state. The streaming
///    Detect delivers each report under its request index (delivery ORDER is
///    scheduling-dependent; the index→report mapping is not), and the vector
///    adapter returns reports in request order. (DetectReport::latency_us is
///    execution metadata and outside the determinism contract.)
///  * Snapshot consistency — every report of a batch is produced by exactly
///    one model snapshot, even when a reload races the batch.
///  * No allocation churn — each worker leases a ColumnScratch from a pool.
///
/// Thread safety: Detect may be called concurrently from multiple threads;
/// batches share the pool and scratch pool, and may share or not share a
/// snapshot depending on reload timing.
///
/// Admission: the engine is the one admission gate. With
/// EngineOptions::tenants set, each batch passes its tenant's
/// AdmissionController (serve/resilience.h) before it touches a snapshot; a
/// refused batch comes back all kShed, and a shed-oldest victim returns its
/// unstarted columns kShed while columns already scanning finish.
///
/// Observability: the engine records serve.* metrics (batch counts/latency,
/// dispatch overhead, queue depth, worker busy time) and registers a
/// collector that publishes serve.cache.* gauges from the current
/// snapshot's pair cache on every registry snapshot; the collector is
/// deregistered in the destructor.

namespace autodetect {

struct EngineOptions {
  size_t num_threads = 0;  ///< worker count; 0 = hardware concurrency
  /// Per-snapshot pair-cache budget; 0 disables caching entirely.
  size_t cache_bytes = 32ull << 20;
  DetectorOptions detector;
  /// Deadline applied to every batch whose requests carry no token of their
  /// own (one CancelSource per batch, its token copied into each column).
  /// 0 = none. Requests with an active token keep it — per-request budgets
  /// override the engine default.
  uint64_t default_deadline_ms = 0;
  /// Per-tenant admission quotas; not owned, null means no quotas. Must
  /// outlive the engine. A batch is charged to the tenant of its first
  /// request (server batches are single-tenant by construction).
  TenantTable* tenants = nullptr;
  /// Metrics destination; null means the process default registry. Also
  /// fills detector.metrics when that is null, so one field wires the whole
  /// engine to a private registry (as the benches do).
  MetricsRegistry* metrics = nullptr;
};

/// Point-in-time engine counters.
struct EngineStats {
  uint64_t batches = 0;
  uint64_t columns = 0;
  PairCacheStats cache;  ///< current snapshot's cache; zeros when disabled
};

class DetectionEngine : public DetectionExecutor {
 public:
  /// \param provider not owned; must outlive the engine and have a loaded
  /// model by the first Detect call (a ModelRegistry after Reload, or any
  /// FixedModel).
  explicit DetectionEngine(ModelProvider* provider, EngineOptions options = {});

  /// Fixed-model convenience: wraps `model` (not owned, must outlive the
  /// engine) in an internal FixedModel provider.
  explicit DetectionEngine(const Model* model, EngineOptions options = {});

  ~DetectionEngine() override;

  /// \brief Executes every request on the worker pool, streaming each report
  /// to `sink` as its column completes (the unified-API entry point). Sink
  /// calls come from the worker threads concurrently — implementations must
  /// be thread-safe (each index is delivered exactly once; the vector
  /// adapter's disjoint-slot writes need no lock). Returns after the last
  /// delivery.
  using DetectionExecutor::Detect;
  void Detect(const std::vector<DetectRequest>& batch, ReportSink& sink) override;

  EngineStats Stats() const;

  size_t num_threads() const { return pool_.num_threads(); }
  bool cache_enabled() const { return options_.cache_bytes > 0; }
  /// \brief The current snapshot's pair cache, null when disabled or before
  /// the first snapshot. The pointer is invalidated by the next reload —
  /// hold the engine's Detect results, not this, across batches.
  const ShardedPairCache* cache() const;
  /// \brief The current model snapshot (null before a registry's first
  /// load). The returned shared_ptr keeps the snapshot alive.
  std::shared_ptr<const Model> model() const { return provider_->Snapshot(); }
  const EngineOptions& options() const { return options_; }

 private:
  /// Engine-level metric handles, resolved once at construction.
  struct Metrics {
    Counter* batches = nullptr;
    Counter* columns = nullptr;
    Counter* worker_busy_us = nullptr;  ///< summed worker wall-time in batches
    Histogram* batch_latency_us = nullptr;
    Histogram* dispatch_us = nullptr;  ///< submit-to-first-claim overhead
    Gauge* queue_depth = nullptr;      ///< columns admitted but not finished
    Gauge* workers = nullptr;
  };

  /// One immutable serving snapshot. Batches hold it via shared_ptr, so a
  /// snapshot (and the mapped model file behind it) stays alive until the
  /// last in-flight batch drops it.
  struct Snapshot {
    Snapshot(std::shared_ptr<const Model> model_in, uint64_t generation_in,
             const EngineOptions& options);
    std::shared_ptr<const Model> model;
    uint64_t generation = 0;
    Detector detector;
    std::unique_ptr<ShardedPairCache> cache;  ///< null when caching disabled
  };

  /// Shared constructor body (metric handles, scratch pool, collector).
  void InitCommon();

  /// Returns the snapshot for the provider's current generation, building
  /// one if the provider swapped models since the last batch.
  std::shared_ptr<Snapshot> CurrentSnapshot();

  std::unique_ptr<ColumnScratch> AcquireScratch();
  void ReleaseScratch(std::unique_ptr<ColumnScratch> scratch);
  void PublishCacheMetrics(MetricsRegistry* registry) const;

  std::unique_ptr<FixedModel> owned_provider_;  ///< raw-model ctor only
  ModelProvider* provider_;
  EngineOptions options_;
  ThreadPool pool_;

  MetricsRegistry* registry_;
  Metrics metrics_;
  size_t cache_collector_id_ = 0;
  bool cache_collector_registered_ = false;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<Snapshot> snapshot_;

  std::mutex scratch_mu_;
  std::vector<std::unique_ptr<ColumnScratch>> scratch_pool_;

  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> columns_{0};
  std::atomic<int64_t> inflight_columns_{0};
};

}  // namespace autodetect
