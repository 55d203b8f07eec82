#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "detect/model_provider.h"
#include "obs/metrics.h"
#include "serve/lifecycle.h"

/// \file model_registry.h
/// Hot-reloadable model lifecycle for serving. A ModelRegistry owns the
/// current `shared_ptr<const Model>` snapshot and swaps it atomically on
/// Reload: executors holding the old snapshot finish their in-flight
/// columns against it (RCU — no reader ever blocks on a reload, no column
/// ever sees a half-swapped model), while the next batch picks up the new
/// one via the bumped generation counter.
///
/// Reload fails closed: if loading the new file errors (truncated copy,
/// checksum mismatch, …) the registry keeps serving the old model and bumps
/// `model.reload.errors_total` — a bad artifact push degrades to a no-op
/// instead of an outage.
///
/// An optional watcher polls the file's mtime and inode and reloads on
/// change, which
/// is the `--model-watch` CLI mode: retrain offline, `mv` the new artifact
/// over the old path, and every serving process picks it up within one poll
/// interval.
///
/// Failed reloads follow one policy, kept here. Every Reload outcome —
/// from the watcher or from a direct caller — feeds one consecutive-failure
/// streak. The watcher retries a failed reload on its own schedule,
/// independent of any new mtime change: exponential backoff with jitter
/// (50ms doubling to a 10s cap, each wait jittered into [base/2, base]).
/// Without this, a transiently bad artifact (half-copied file, checksum
/// race with the trainer's rename) would leave the registry stale until the
/// *next* artifact push; with it, the watcher converges as soon as the file
/// is whole. The jitter decorrelates fleets watching a shared path. The
/// current wait is exported as the model.reload.backoff_ms gauge (0 =
/// healthy, polling normally). When the streak reaches 3, the registry
/// marks the "breaker:model-reload" condition on the health ladder passed
/// at construction (the server shows degraded) and counts one
/// serve.breaker.model-reload.open_total; the first successful reload
/// clears the condition and the backoff. Every Reload reads the file:
/// the backoff alone spaces the watcher's retries.
///
/// Metrics (into the registry passed at construction):
///   model.reload.total        successful reloads (includes the first load)
///   model.reload.errors_total failed reload attempts (old model kept)
///   model.reload.backoff_ms   current watcher retry backoff (0 = healthy)
///   model.reload.latency_us   load+swap latency histogram
///   model.bytes               backing artifact bytes of the live model
///   model.generation          current snapshot generation
///   serve.breaker.model-reload.open_total
///                             failure streaks that reached 3
///
/// Failpoint (chaos builds only): registry.reload.fail makes Reload fail
/// as if the artifact were unreadable — the standard way to exercise the
/// fail-closed path, the watcher's backoff and the degraded condition in
/// tests. A hit-count or probability spec makes it intermittent.

namespace autodetect {

class ModelRegistry : public ModelProvider {
 public:
  /// \param metrics null means the process default registry.
  /// \param health ladder that shows a failing reload streak as degraded
  /// (not owned; must outlive the registry); null means none.
  explicit ModelRegistry(MetricsRegistry* metrics = nullptr,
                         HealthLadder* health = nullptr);
  ~ModelRegistry() override;

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// \brief Loads `path` and atomically swaps it in as the current snapshot.
  /// On failure the previous snapshot (if any) keeps serving and the error
  /// is returned. Thread-safe; concurrent Snapshot() calls see either the
  /// old or the new model, never a mix.
  Status Reload(const std::string& path);

  /// \brief Installs an already-loaded model (tests, trained-in-process
  /// serving). Same swap semantics as Reload.
  void Install(std::shared_ptr<const Model> model);

  std::shared_ptr<const Model> Snapshot() const override;
  uint64_t Generation() const override {
    return generation_.load(std::memory_order_acquire);
  }

  /// Path of the last successful Reload ("" before the first).
  std::string path() const;

  /// \brief Starts a background thread that polls `path`'s mtime and inode every
  /// `poll` and Reloads on change. Performs one synchronous initial load —
  /// its Status is returned, and the watcher runs regardless (the file may
  /// appear or be fixed later). No-op error if already watching.
  Status StartWatch(const std::string& path,
                    std::chrono::milliseconds poll = std::chrono::milliseconds(1000));

  /// \brief Stops the watcher thread (joins it). Safe to call when not
  /// watching. Also called by the destructor.
  void StopWatch();

  bool watching() const { return watcher_.joinable(); }

 private:
  void WatchLoop();
  Status ReloadAttempt(const std::string& path);
  /// Feeds one Reload outcome into the failure streak and the ladder.
  void RecordOutcome(bool ok);
  uint32_t failure_streak() const;
  void PublishModelMetrics(const std::shared_ptr<const Model>& model,
                           uint64_t generation);

  HealthLadder* health_;
  mutable std::mutex mu_;  ///< guards model_, path_ and failure_streak_
  std::shared_ptr<const Model> model_;
  std::string path_;
  std::atomic<uint64_t> generation_{0};
  /// Consecutive failed Reloads; 0 after any success.
  uint32_t failure_streak_ = 0;

  std::mutex watch_mu_;  ///< guards stop + cv for the watcher thread
  std::condition_variable watch_cv_;
  bool watch_stop_ = false;
  std::thread watcher_;
  std::string watch_path_;
  std::chrono::milliseconds watch_poll_{1000};
  /// What the watcher compares between polls. Model::Save lands every
  /// model on a new inode by rename, and the new file's tick-granular mtime
  /// can equal the old one's, so the mtime alone can miss a save.
  struct FileVersion {
    int64_t mtime_ns = 0;
    uint64_t inode = 0;
    bool operator==(const FileVersion&) const = default;
  };
  /// `path`'s version into `out`; false (and `out` untouched) when it
  /// cannot be stat'ed, e.g. briefly absent mid-swap.
  static bool ReadVersion(const std::string& path, FileVersion* out);
  FileVersion watch_version_{};

  Counter* reload_total_;
  Counter* reload_errors_;
  Histogram* reload_latency_us_;
  Gauge* reload_backoff_ms_;
  Counter* degraded_total_;  ///< serve.breaker.model-reload.open_total
  Gauge* model_bytes_;
  Gauge* model_generation_;
  Gauge* sketch_bytes_;      ///< model.sketch.bytes — live sketch counters
  Gauge* sketch_languages_;  ///< model.sketch.languages
  Gauge* sketch_width_;      ///< model.sketch.width (widest language)
  Gauge* sketch_depth_;      ///< model.sketch.depth (deepest language)
};

}  // namespace autodetect
