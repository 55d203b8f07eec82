#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"

/// \file resilience.h
/// Admission control for the serving layer: the component inside the
/// DetectionEngine that decides, per batch, whether the engine should take
/// on more work. Without it, overload has exactly one behaviour — every
/// caller blocks while the worker pool grinds through an unbounded backlog;
/// with it, overload degrades by policy:
///
///   kBlock      callers wait for capacity up to a timeout, then the batch
///               is rejected (backpressure with a bound).
///   kShedOldest the newest batch is admitted immediately and the oldest
///               in-flight batches are marked shed; their remaining columns
///               return ColumnStatus::kShed without being scanned, freeing
///               capacity within one column's latency (freshness wins).
///   kReject     over capacity, new batches are refused outright and every
///               column reports kShed (fail-fast for callers with their own
///               retry budget).
///
/// Capacity is counted in columns (the engine's unit of work), admitted at
/// batch granularity. A batch larger than the cap is admitted alone when
/// nothing else is in flight — a cap should bound the backlog, not make big
/// tables unscannable.
///
/// Shedding is cooperative, mirroring cancellation: a ticket carries an
/// atomic shed flag the engine polls before scanning each column. Columns
/// already being scanned finish (their scratch stays valid); unstarted ones
/// return immediately with an accurate status. Nothing is ever dropped
/// silently — a shed column is visible in its report AND in the
/// serve.admission.tenant.<name>.* counters.
///
/// Quotas are per tenant (RequestContext::tenant; empty = the anonymous
/// tenant): a TenantTable maps each tenant to its own AdmissionController,
/// so one tenant flooding the engine sheds *its own* batches while everyone
/// else's capacity is untouched.
///
/// Metrics (per controller, under its metric_prefix):
///   admitted_total       batches admitted
///   rejected_total       batches refused (reject/timeout)
///   shed_columns_total   columns returned kShed
///   block_timeouts_total kBlock waits that hit the timeout
///   queue_wait_us        histogram of admission wait time
///   inflight_columns     gauge of admitted, unreleased work

namespace autodetect {

enum class AdmissionPolicy : uint8_t {
  kBlock = 0,   ///< wait for capacity up to block_timeout_ms, then reject
  kShedOldest,  ///< admit now; shed oldest in-flight batches to make room
  kReject,      ///< refuse immediately when over capacity
};

std::string_view AdmissionPolicyName(AdmissionPolicy policy);
/// Parses "block" | "shed-oldest" | "reject" (the CLI spellings).
Result<AdmissionPolicy> ParseAdmissionPolicy(std::string_view name);

struct AdmissionOptions {
  /// Column capacity across all in-flight batches. 0 disables admission
  /// control entirely (every batch is admitted, nothing is tracked).
  size_t queue_cap_columns = 0;
  AdmissionPolicy policy = AdmissionPolicy::kBlock;
  /// kBlock only: longest a caller waits for capacity before the batch is
  /// rejected.
  uint64_t block_timeout_ms = 1000;
  /// Metrics destination; null means the process default registry.
  MetricsRegistry* metrics = nullptr;
  /// Metric-name prefix, must end with '.'. TenantTable sets
  /// "serve.admission.tenant.<name>." so shed/reject counts are
  /// attributable per tenant.
  std::string metric_prefix = "serve.admission.";
};

/// Point-in-time admission counters.
struct AdmissionStats {
  uint64_t admitted = 0;        ///< batches
  uint64_t rejected = 0;        ///< batches
  uint64_t shed_columns = 0;    ///< columns marked shed (victims + rejects)
  uint64_t block_timeouts = 0;  ///< kBlock waits that expired
  size_t inflight_columns = 0;  ///< live admitted work
};

class AdmissionController {
 public:
  /// One admitted batch's handle. The engine polls shed() before each
  /// column; the controller's shed-oldest policy flips it. Thread-safe.
  class Ticket {
   public:
    bool shed() const { return shed_.load(std::memory_order_relaxed); }
    size_t columns() const { return columns_; }

   private:
    friend class AdmissionController;
    explicit Ticket(size_t columns) : columns_(columns) {}
    std::atomic<bool> shed_{false};
    size_t columns_;
    uint64_t seq_ = 0;  ///< admission order, for oldest-first shedding
  };

  explicit AdmissionController(AdmissionOptions options = {});

  /// \brief Asks to admit a batch of `columns`. Returns a live ticket, or
  /// null when the batch was rejected (kReject over capacity, or kBlock
  /// timeout) — the caller then reports every column kShed. Never returns
  /// null under kShedOldest. Thread-safe.
  std::shared_ptr<Ticket> Admit(size_t columns);

  /// \brief Returns a ticket's capacity. Must be called exactly once per
  /// successful Admit, after the batch finishes (shed or not).
  void Release(const std::shared_ptr<Ticket>& ticket);

  /// \brief Counts `n` columns that came back kShed (ticket shed flag or a
  /// rejected batch) — keeps the shed accounting in one place.
  void CountShedColumns(size_t n);

  AdmissionStats Stats() const;
  const AdmissionOptions& options() const { return options_; }
  bool enabled() const { return options_.queue_cap_columns > 0; }

 private:
  /// Live (admitted, unreleased) column count, excluding shed tickets.
  size_t LiveColumnsLocked() const;
  /// Marks oldest live tickets shed until `needed` columns fit. Lock held.
  void ShedOldestLocked(size_t needed);

  AdmissionOptions options_;

  mutable std::mutex mu_;
  std::condition_variable capacity_cv_;
  std::deque<std::shared_ptr<Ticket>> live_;  ///< admission order
  uint64_t next_seq_ = 0;

  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shed_columns_{0};
  std::atomic<uint64_t> block_timeouts_{0};

  struct Metrics {
    Counter* admitted = nullptr;
    Counter* rejected = nullptr;
    Counter* shed_columns = nullptr;
    Counter* block_timeouts = nullptr;
    Histogram* queue_wait_us = nullptr;
    Gauge* inflight_columns = nullptr;
  };
  Metrics metrics_;
};

/// One tenant's admission quota.
struct TenantSpec {
  /// Concurrent in-flight column cap; 0 = unlimited.
  size_t queue_cap_columns = 0;
  AdmissionPolicy policy = AdmissionPolicy::kReject;
};

/// Per-tenant quotas: each tenant with a cap gets its own
/// AdmissionController, publishing under "serve.admission.tenant.<name>."
/// beside the per-tenant scan counters (detect.tenant.<name>.*). A tenant
/// absent from the table gets the default spec; a cap of 0 means unlimited
/// (no controller, no tracking cost). Under kBlock an over-quota batch
/// waits at most 250 ms for capacity.
class TenantTable {
 public:
  /// \param metrics destination for per-tenant controllers; null = process
  /// default registry.
  explicit TenantTable(MetricsRegistry* metrics = nullptr)
      : metrics_(metrics) {}

  /// Parses the CLI quota spec into this table: comma-separated
  /// `name=cap[:policy]` entries, policy one of block | shed-oldest |
  /// reject (default reject). `*` names the default spec applied to
  /// unlisted tenants, e.g.
  ///   "acme=512:block,free=64,*=4096:shed-oldest"
  /// Empty spec = everything unlimited. On error, entries before the bad
  /// one are already installed; callers treat the table as dead.
  Status Parse(std::string_view spec);

  /// Installs/overrides one tenant's quota ("*" sets the default).
  void SetSpec(const std::string& tenant, TenantSpec spec);

  /// The admission controller enforcing `tenant`'s quota, created lazily on
  /// first use; null when the tenant is unlimited. The pointer stays valid
  /// for the table's lifetime. Thread-safe. The anonymous tenant ("") is a
  /// tenant like any other and falls under the default spec.
  AdmissionController* ControllerFor(const std::string& tenant);

  /// The spec `tenant` resolves to (explicit entry or default).
  TenantSpec SpecFor(const std::string& tenant) const;

  /// Tenants with explicit entries (for startup logging).
  std::vector<std::string> ConfiguredTenants() const;

 private:
  /// Metric-safe tenant label: dots would splice into the metric-name
  /// hierarchy, so they are mapped to '_'.
  static std::string MetricLabel(const std::string& tenant);

  MetricsRegistry* metrics_;
  mutable std::mutex mu_;
  TenantSpec default_spec_;  ///< unlimited unless the spec listed "*"
  std::unordered_map<std::string, TenantSpec> specs_;
  std::unordered_map<std::string, std::unique_ptr<AdmissionController>>
      controllers_;
};

}  // namespace autodetect
