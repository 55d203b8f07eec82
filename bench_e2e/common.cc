#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_e2e.h"
#include "common/string_util.h"

namespace autodetect::bench {

const std::vector<Workload>& AllWorkloads() {
  // train_web's "pool" is its corpus size. Why each workload exists, and
  // why these sizes: README.md.
  static const std::vector<Workload> kWorkloads = {
      {"tables_wire", Load::kWireClosed, 16, 5, 40, 4096},
      {"tall_wire", Load::kWireClosed, 4, 200, 400, 1024},
      {"cells_http_open", Load::kHttpCells, 2, 4, 8, 4096},
      {"train_web", Load::kTrain, 16, 5, 40, 4000},
  };
  return kWorkloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

namespace {
double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}
}  // namespace

double ThreadCpuSeconds() { return CpuSeconds(RUSAGE_THREAD); }
double ProcessCpuSeconds() { return CpuSeconds(RUSAGE_SELF); }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string Fingerprint(const DetectReport& report) {
  std::string out = StrFormat("d=%zu\n", report.column.distinct_values);
  for (const auto& c : report.column.cells) {
    out += StrFormat("c %u \"%s\" %a %u\n", c.row, c.value.c_str(), c.confidence,
                     c.incompatible_with);
  }
  for (const auto& p : report.column.pairs) {
    out += StrFormat("p \"%s\"|\"%s\" %a\n", p.u.c_str(), p.v.c_str(), p.confidence);
  }
  return out;
}

void RunResult::Add(const std::string& name, const std::string& unit, double value) {
  if (!std::isfinite(value)) {
    CheckFailed("metric " + name + " is not a finite number");
    value = 0;
  }
  metrics_.push_back({name, unit, value});
}

void RunResult::CheckFailed(const std::string& what) {
  correct_ = false;
  std::fprintf(stderr, "bench_e2e: output check failed: %s\n", what.c_str());
}

void RunResult::Count(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void RunResult::Print() const {
  for (const Entry& m : metrics_) {
    std::printf("%-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %llu, failed %llu, outputs %s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              correct() ? "correct" : "INCORRECT");
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      correct() ? "true" : "false", static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                      metrics_[i].name.c_str(), metrics_[i].value,
                      metrics_[i].unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace autodetect::bench
