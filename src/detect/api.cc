#include "detect/api.h"

#include <utility>

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

}  // namespace autodetect
