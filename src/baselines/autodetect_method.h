#pragma once

#include <string>

#include "baselines/baseline.h"
#include "detect/detector.h"

/// \file autodetect_method.h
/// Adapter exposing the trained Auto-Detect detector through the common
/// ErrorDetectorMethod interface so the evaluation harness and benches can
/// compare it head-to-head with the baselines.

namespace autodetect {

class AutoDetectMethod final : public ErrorDetectorMethod {
 public:
  /// \param detector not owned; must outlive this adapter.
  explicit AutoDetectMethod(const Detector* detector,
                            std::string_view display_name = "Auto-Detect")
      : detector_(detector), name_(display_name) {}

  std::string_view name() const override { return name_; }

  std::vector<Suspicion> RankColumn(
      const std::vector<std::string>& values) const override {
    DetectRequest request;
    request.values = values;
    request.context.tag = "baseline";
    ColumnReport report = detector_->Detect(request).column;
    std::vector<Suspicion> out;
    out.reserve(report.cells.size());
    for (const auto& cell : report.cells) {
      // Primary signal is the estimated precision; a small bonus for the
      // number of clashing partners breaks ties among equal-confidence
      // predictions (a value incompatible with 20 others outranks one
      // incompatible with a single other value).
      double degree_bonus =
          0.0005 * (static_cast<double>(cell.incompatible_with) /
                    (static_cast<double>(cell.incompatible_with) + 8.0));
      out.push_back(Suspicion{cell.row, cell.value, cell.confidence + degree_bonus});
    }
    return out;
  }

 private:
  const Detector* detector_;
  std::string name_;
};

}  // namespace autodetect
