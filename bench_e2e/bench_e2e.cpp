/// \file bench_e2e.cpp
/// The repository's end-to-end benchmark. One run measures one workload:
///
///   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             --cli <path/to/autodetect_cli> --work-dir <dir> [--smoke]
///   bench_e2e --compare BASE.json NEW.json [--bench BENCHMARK.json]
///   bench_e2e --machine        {"cpu", "cores", "simd_tier"} of this host
///
/// A run prints every metric by name with its unit and, as its last line,
/// one JSON object {"correct", "attempted", "failed", "metrics"}; it exits
/// non-zero when an output check failed. bench_e2e/run.py builds this binary
/// and the server from source and is the entry point BENCHMARK.json names.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench_e2e.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "net/json.h"
#include "text/run_tokenizer.h"

using namespace autodetect;
using namespace autodetect::bench;

namespace {

/// The header a results file records: CPU model, cores, tokenizer tier.
std::string MachineJson() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line, cpu = "unknown";
  while (std::getline(cpuinfo, line)) {
    if (StartsWith(line, "model name")) {
      cpu = std::string(Trim(line.substr(line.find(':') + 1)));
      break;
    }
  }
  std::string json = "{\"cpu\": ";
  AppendJsonString(&json, cpu);
  json += StrFormat(", \"cores\": %u, \"simd_tier\": \"%s\"}",
                    std::thread::hardware_concurrency(),
                    std::string(SimdTierName(ActiveSimdTier())).c_str());
  return json;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload NAME --seed N --seconds S --trace 0|1\n"
               "                 --cli PATH --work-dir DIR [--smoke]\n"
               "       bench_e2e --compare BASE.json NEW.json [--bench BENCHMARK.json]\n"
               "workloads:",
               why);
  for (const Workload& w : AllWorkloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  Config config;
  std::string compare_base, compare_new, bench_json = "BENCHMARK.json";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (flag == "--machine") {
      std::printf("%s\n", MachineJson().c_str());
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = FindWorkload(value);
      if (config.workload == nullptr) return Usage(("unknown workload " + value).c_str());
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--cli") {
      config.cli = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--compare") {
      if (i + 1 >= argc) return Usage("--compare takes BASE.json NEW.json");
      compare_base = value;
      compare_new = argv[++i];
    } else if (flag == "--bench") {
      bench_json = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!compare_base.empty()) return Compare(bench_json, compare_base, compare_new);

  if (config.workload == nullptr) return Usage("--workload is required");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");
  if (config.work_dir.empty()) return Usage("--work-dir is required");
  // train_web serves its retrained model only in a trace run.
  const bool serves = config.workload->load != Load::kTrain || config.trace;
  if (serves && !std::filesystem::exists(config.cli)) {
    return Usage("--cli must name the autodetect_cli binary");
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return Usage(("cannot create --work-dir: " + ec.message()).c_str());

  Result<RunResult> run =
      config.workload->load == Load::kTrain ? RunTrain(config) : RunServing(config);
  if (!run.ok()) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", config.workload->name,
                 run.status().ToString().c_str());
    return 1;
  }
  run->Print();
  return run->correct() ? 0 : 1;
}
