#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cancel.h"

/// \file api.h
/// The unified detection API: every way of asking Auto-Detect to scan a
/// column — the sequential Detector, the batching DetectionEngine, the CLI,
/// the network server (net/server.h), the eval harness and the benches —
/// speaks DetectRequest/DetectReport. The sequential and parallel paths are
/// two executors of the same request type (SequentialExecutor in detector.h,
/// DetectionEngine in serve/), and both are required to produce bit-identical
/// ColumnReports for the same values and model.
///
/// The executor contract is streaming-first: `Detect(batch, ReportSink&)`
/// delivers each column's report as its scan completes (the network server
/// frames these straight onto the wire), and the vector-returning `Detect`
/// is a thin adapter that collects the stream into request order. Requests
/// carry a structured RequestContext {tenant, tag, deadline_ms}; executors
/// route per-tag and per-tenant counters/latency histograms through the
/// metrics registry (obs/metrics.h) so multi-tenant callers can attribute
/// cost and findings per workload.
///
/// The pre-redesign entry points — Detector::AnalyzeColumn and
/// DetectionEngine::DetectBatch — have been removed; this is the only
/// detection surface.

namespace autodetect {

/// Who is asking and under what budget, as a structured triple:
///  * `tenant` — the isolation unit. The serving layers key per-tenant
///    admission control and `detect.tenant.<tenant>.*` metrics on it.
///  * `tag` — free-form workload label within a tenant (dataset, eval
///    domain, file); executors maintain `detect.tag.<tag>.*` metrics for
///    non-empty tags.
///  * `deadline_ms` — per-request deadline, mapped by executors onto the
///    CancelSource machinery (common/cancel.h) when the request carries no
///    explicit token of its own. 0 = none.
struct RequestContext {
  std::string tenant;
  std::string tag;
  uint64_t deadline_ms = 0;

  RequestContext() = default;
  RequestContext(std::string tenant_in, std::string tag_in,
                 uint64_t deadline_ms_in = 0)
      : tenant(std::move(tenant_in)),
        tag(std::move(tag_in)),
        deadline_ms(deadline_ms_in) {}
};

/// One column to scan.
struct DetectRequest {
  DetectRequest() = default;
  DetectRequest(std::string name_in, std::vector<std::string> values_in,
                RequestContext context_in = {})
      : name(std::move(name_in)),
        values(std::move(values_in)),
        context(std::move(context_in)) {}

  /// Echoed back on the report; does not influence detection.
  std::string name;
  std::vector<std::string> values;
  /// Caller identity and budgets; see RequestContext.
  RequestContext context = {};
  /// Optional cancellation/deadline scope. The default token is inert (no
  /// clock reads, no cancellation); an active token makes executors poll it
  /// at safe points and return a partial report with the matching
  /// ColumnStatus when it fires. Precedence: an active request token wins
  /// over context.deadline_ms, which wins over any executor-level default
  /// (the engine's default_deadline_ms).
  CancelToken cancel = {};
};

/// How one column's scan ended — the per-column resilience verdict. Ordered
/// as a degradation ladder: everything above kOk means the report may be
/// missing findings and says why. Execution metadata (like latency_us), NOT
/// part of the determinism contract: with no deadline, no cancellation and
/// no admission pressure, every report is kOk.
enum class ColumnStatus : uint8_t {
  kOk = 0,
  /// Scored under the degraded single-language fallback (the crude G of
  /// paper Sec. 3.1) after the per-column score budget ran out; findings are
  /// present but came from a weaker ensemble past the switch point.
  kDegraded,
  /// The request's deadline fired mid-scan; the report holds the findings
  /// accumulated up to that point (possibly none).
  kDeadlineExceeded,
  /// The request's token was cancelled explicitly; partial like deadline.
  kCancelled,
  /// Admission control refused or evicted the column; it was never scanned
  /// and the report is empty.
  kShed,
};

std::string_view ColumnStatusName(ColumnStatus status);

/// A cell-level finding within one column.
struct CellFinding {
  uint32_t row = 0;            ///< first row holding the value
  std::string value;
  double confidence = 0.0;     ///< max confidence over its flagged pairs
  uint32_t incompatible_with = 0;  ///< distinct partners it clashes with
};

/// A pair-level finding (the unit the paper's Table 4 reports).
struct PairFinding {
  std::string u;
  std::string v;
  double confidence = 0.0;
};

/// The detection result for one column. Deterministic for a given model and
/// values — identical across executors, worker counts and cache states.
struct ColumnReport {
  std::vector<CellFinding> cells;  ///< sorted by confidence descending
  std::vector<PairFinding> pairs;  ///< sorted by confidence descending
  /// Distinct values actually examined.
  size_t distinct_values = 0;

  bool HasFindings() const { return !cells.empty(); }
  /// Convenience: the top cell finding, if any.
  std::optional<CellFinding> Top() const {
    if (cells.empty()) return std::nullopt;
    return cells.front();
  }
};

/// One request's result: the deterministic ColumnReport plus per-request
/// execution metadata (which may vary run to run and is excluded from the
/// determinism contract).
struct DetectReport {
  std::string name;  ///< echoed from the request
  std::string tag;   ///< echoed from the request (its effective tag)
  ColumnReport column;
  /// Wall-clock scan latency of this column, microseconds. Report payload,
  /// not gated instrumentation: populated even under AUTODETECT_NO_METRICS.
  uint64_t latency_us = 0;
  /// How the scan ended (see ColumnStatus). kOk whenever no deadline,
  /// cancellation or admission pressure applied — the resilience guarantee
  /// is that statuses are always accurate, never silently kOk on a partial
  /// report.
  ColumnStatus status = ColumnStatus::kOk;
};

/// Where a streaming Detect delivers reports. OnReport is invoked exactly
/// once per request, as that column's scan completes — possibly out of
/// request order, and (for concurrent executors like DetectionEngine) from
/// multiple worker threads concurrently, so implementations must be
/// thread-safe unless they only ever run under SequentialExecutor. `index`
/// is the request's position in the batch; no two calls share an index, so
/// writing disjoint slots of a pre-sized vector needs no lock (the
/// executor's completion barrier publishes the writes).
class ReportSink {
 public:
  virtual ~ReportSink() = default;
  virtual void OnReport(size_t index, DetectReport&& report) = 0;
};

/// Anything that can execute detection requests. Implementations:
///  * SequentialExecutor (detector.h) — one column at a time on the calling
///    thread, reusing one scratch; not thread-safe.
///  * DetectionEngine (serve/detection_engine.h) — batches fanned out over a
///    worker pool with a shared verdict cache; thread-safe.
///
/// The streaming overload is THE entry point: implementations define it, and
/// the vector/single conveniences below are adapters over it. Derived
/// classes should `using DetectionExecutor::Detect;` so both overloads stay
/// visible on the concrete type.
class DetectionExecutor {
 public:
  virtual ~DetectionExecutor() = default;

  /// \brief Executes every request, delivering each report to `sink` as its
  /// column completes (not at batch end). Returns once every request has
  /// been delivered; sink calls never outlive this call.
  virtual void Detect(const std::vector<DetectRequest>& batch,
                      ReportSink& sink) = 0;

  /// \brief Batch convenience: collects the stream into one report per
  /// request, in request order.
  std::vector<DetectReport> Detect(const std::vector<DetectRequest>& batch);

  /// \brief Single-request convenience. Always echoes the request's name and
  /// effective tag; if an executor fails to deliver a report (a broken
  /// custom implementation), the result is an empty kShed report rather
  /// than a silently-default one.
  virtual DetectReport DetectOne(const DetectRequest& request);
};

}  // namespace autodetect
