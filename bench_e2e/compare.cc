#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench_e2e.h"
#include "common/string_util.h"
#include "net/json.h"

namespace autodetect::bench {

namespace {

struct Bound {
  std::string name;
  bool higher_is_better = false;
  double bound = 0;
};

/// workload -> metric -> every recorded value, pooled across sets.
using Values = std::map<std::string, std::map<std::string, std::vector<double>>>;

Result<JsonValue> ReadJson(const std::string& path) {
  const std::string text = ReadFile(path);
  if (text.empty()) return Status::IOError("cannot read " + path);
  auto parsed = ParseJson(text);
  if (!parsed.ok()) return parsed.status().WithContext(path);
  return parsed;
}

Result<std::vector<Bound>> ReadBounds(const std::string& path) {
  AD_ASSIGN_OR_RETURN(JsonValue bench, ReadJson(path));
  const JsonValue* metrics = bench.Find("end_to_end");
  if (metrics == nullptr || !metrics->IsArray()) {
    return Status::Invalid(path + " has no end_to_end list");
  }
  std::vector<Bound> bounds;
  for (const JsonValue& m : metrics->array) {
    const JsonValue* name = m.Find("name");
    const JsonValue* better = m.Find("better");
    const JsonValue* bound = m.Find("bound");
    if (name == nullptr || better == nullptr || bound == nullptr || !bound->IsNumber()) {
      return Status::Invalid(path + ": an end_to_end entry lacks name/better/bound");
    }
    bounds.push_back({name->str, better->str == "higher", bound->number});
  }
  return bounds;
}

/// Reads a results file as record.py writes it: sets[].workloads.<w>.<m>.values.
Result<Values> ReadValues(const std::string& path) {
  AD_ASSIGN_OR_RETURN(JsonValue results, ReadJson(path));
  const JsonValue* sets = results.Find("sets");
  if (sets == nullptr || !sets->IsArray()) return Status::Invalid(path + " has no sets");
  Values values;
  for (const JsonValue& set : sets->array) {
    const JsonValue* workloads = set.Find("workloads");
    if (workloads == nullptr || !workloads->IsObject()) continue;
    for (const auto& [workload, metrics] : workloads->object) {
      for (const auto& [metric, entry] : metrics.object) {
        const JsonValue* list = entry.Find("values");
        if (list == nullptr || !list->IsArray()) continue;
        for (const JsonValue& v : list->array) {
          if (v.IsNumber()) values[workload][metric].push_back(v.number);
        }
      }
    }
  }
  return values;
}

/// Quartiles as Python's statistics.quantiles(values, n=4) (the default
/// "exclusive" method) computes them, so record.py and --compare agree.
std::array<double, 3> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld < 2) return {v.empty() ? 0.0 : v[0], v.empty() ? 0.0 : v[0], v.empty() ? 0.0 : v[0]};
  std::array<double, 3> q{};
  const long m = ld + 1;
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[static_cast<size_t>(i - 1)] =
        (v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

double PythonMedian(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace

int Compare(const std::string& bench_json, const std::string& base_path,
            const std::string& new_path) {
  auto bounds = ReadBounds(bench_json);
  auto base = ReadValues(base_path);
  auto next = ReadValues(new_path);
  for (const Status& s : {bounds.status(), base.status(), next.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "bench_e2e --compare: %s\n", s.ToString().c_str());
      return 2;
    }
  }

  // A verdict per workload and metric. The change is signed so that
  // positive is worse. Runs spread wider than the bound make the metric
  // unresolved unless every run of one side beats every run of the other.
  int worse = 0, compared = 0;
  std::printf("%-16s %-20s %6s %12s %12s %12s %12s %8s  %s\n", "workload", "metric", "bound",
              "base_median", "base_iqr", "new_median", "new_iqr", "worse_by", "verdict");
  for (const auto& [workload, metrics] : *base) {
    auto other = next->find(workload);
    if (other == next->end()) continue;
    for (const Bound& b : *bounds) {
      auto bv = metrics.find(b.name);
      auto nv = other->second.find(b.name);
      if (bv == metrics.end() || nv == other->second.end() || bv->second.empty() ||
          nv->second.empty()) {
        continue;
      }
      ++compared;
      const std::vector<double>& x = bv->second;
      const std::vector<double>& y = nv->second;
      const double bm = PythonMedian(x), nm = PythonMedian(y);
      const auto bq = Quartiles(x), nq = Quartiles(y);
      const double sign = b.higher_is_better ? -1.0 : 1.0;
      const double change = sign * (nm - bm) / bm;
      const double spread = std::max((bq[2] - bq[0]) / bm, (nq[2] - nq[0]) / nm);
      const auto [xmin, xmax] = std::minmax_element(x.begin(), x.end());
      const auto [ymin, ymax] = std::minmax_element(y.begin(), y.end());
      const bool all_better = b.higher_is_better ? *ymin > *xmax : *ymax < *xmin;
      const bool all_worse = b.higher_is_better ? *ymax < *xmin : *ymin > *xmax;
      std::string verdict;
      if (spread > b.bound) {
        verdict = all_better ? "better" : all_worse && change > b.bound ? "worse" : "unresolved";
      } else if (change > b.bound) {
        verdict = "worse";
      } else if (-change > b.bound) {
        verdict = "better";
      } else {
        verdict = "within-bound";
      }
      if (verdict == "worse") ++worse;
      std::printf("%-16s %-20s %6.3f %12.6g %12.6g %12.6g %12.6g %+7.2f%%  %s\n",
                  workload.c_str(), b.name.c_str(), b.bound, bm, bq[2] - bq[0], nm,
                  nq[2] - nq[0], 100 * change, verdict.c_str());
    }
  }
  if (compared == 0) {
    std::fprintf(stderr, "bench_e2e --compare: no workload/metric in common\n");
    return 2;
  }
  std::printf("%d of %d comparisons worse\n", worse, compared);
  return worse > 0 ? 1 : 0;
}

}  // namespace autodetect::bench
