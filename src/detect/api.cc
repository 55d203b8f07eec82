#include "detect/api.h"

#include <utility>

#include "obs/metrics.h"

namespace autodetect {

namespace {

/// The vector adapter's sink: one pre-sized slot per request. Index
/// uniqueness makes the disjoint writes race-free; the executor's completion
/// barrier publishes them to the caller.
class VectorSink : public ReportSink {
 public:
  explicit VectorSink(std::vector<DetectReport>* out) : out_(out) {}
  void OnReport(size_t index, DetectReport&& report) override {
    (*out_)[index] = std::move(report);
  }

 private:
  std::vector<DetectReport>* out_;
};

}  // namespace

std::vector<DetectReport> DetectionExecutor::Detect(
    const std::vector<DetectRequest>& batch) {
  std::vector<DetectReport> reports(batch.size());
  VectorSink sink(&reports);
  Detect(batch, sink);
  return reports;
}

DetectReport DetectionExecutor::DetectOne(const DetectRequest& request) {
  std::vector<DetectRequest> batch;
  batch.push_back(request);
  std::vector<DetectReport> reports = Detect(batch);
  if (reports.empty()) {
    // A conforming executor always delivers one report per request; if one
    // does not, fail visibly — echo the request identity and mark the column
    // shed instead of fabricating a default kOk report. Like every other
    // kShed source, the fabricated report charges exactly one
    // serve.admission.* counter (no executor was involved, so nothing else
    // will count it).
    MetricsRegistry::Default()
        ->GetCounter("serve.admission.fallback_shed_total")
        ->Add(1);
    DetectReport report;
    report.name = request.name;
    report.tag = request.context.tag;
    report.status = ColumnStatus::kShed;
    return report;
  }
  return std::move(reports.front());
}

}  // namespace autodetect
