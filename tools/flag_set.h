#pragma once

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "detect/model_provider.h"
#include "obs/dump.h"
#include "serve/detection_engine.h"
#include "serve/model_registry.h"

/// \file flag_set.h
/// Shared typed flag parsing for the CLI tools. Each tool registers the
/// flags it understands (or whole reusable groups like the engine and
/// metrics flags, which used to be copy-pasted per command) and gets strict
/// parsing in return: unknown flags, malformed numbers and missing values
/// are Status errors instead of silently-ignored strings, so a typo'd
/// `--jobz 8` fails the run rather than quietly single-threading it.

namespace autodetect {

/// Typed --key value / --switch parser over argv. Values bind to caller-owned
/// storage (which also carries the default), so a parsed flag set IS the
/// tool's config struct. Registration snapshots each target's current value
/// as the default shown by Usage(), so the auto-generated --help is always
/// in sync with the config struct — no hand-maintained usage strings.
class FlagSet {
 public:
  /// Registration. `help` is shown by Usage(); the flag name is spelled
  /// without the leading "--".
  void String(std::string name, std::string* target, std::string help) {
    std::string def = target->empty() ? "" : "\"" + *target + "\"";
    Register(std::move(name),
             Flag{Flag::kString, target, std::move(help), std::move(def)});
  }
  void Double(std::string name, double* target, std::string help) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", *target);
    Register(std::move(name),
             Flag{Flag::kDouble, target, std::move(help), buf});
  }
  void Int(std::string name, int64_t* target, std::string help) {
    Register(std::move(name), Flag{Flag::kInt, target, std::move(help),
                                   std::to_string(*target)});
  }
  /// A presence switch: `--flag` sets the bool, no value is consumed.
  void Bool(std::string name, bool* target, std::string help) {
    Register(std::move(name), Flag{Flag::kBool, target, std::move(help), ""});
  }
  /// A repeatable value flag: every occurrence appends to `target`
  /// (`retrain --add-shard a.ads --add-shard b.ads`).
  void StringList(std::string name, std::vector<std::string>* target,
                  std::string help) {
    Register(std::move(name),
             Flag{Flag::kStringList, target, std::move(help), ""});
  }

  /// \brief Parses argv[start..argc). Flags may appear in any position;
  /// non-flag tokens accumulate as positionals (readable via positional()).
  /// `--help` / `-h` are built in: they short-circuit parsing (nothing after
  /// them is validated) and set help_requested() — callers print Usage() and
  /// exit 0 instead of running the command.
  Status Parse(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        help_requested_ = true;
        return Status::OK();
      }
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      std::string name = arg.substr(2);
      auto it = flags_.find(name);
      if (it == flags_.end()) {
        return Status::Invalid("unknown flag --" + name);
      }
      Flag& flag = it->second;
      if (flag.type == Flag::kBool) {
        *static_cast<bool*>(flag.target) = true;
        continue;
      }
      if (i + 1 >= argc) {
        return Status::Invalid("flag --" + name + " requires a value");
      }
      AD_RETURN_NOT_OK(flag.Assign(name, argv[++i]));
    }
    return Status::OK();
  }

  const std::vector<std::string>& positional() const { return positional_; }

  /// True once Parse saw `--help` or `-h`.
  bool help_requested() const { return help_requested_; }

  /// \brief One line per registered flag, sorted by name: the spelling with
  /// a type hint (<str>/<int>/<float>), the help text, and the default that
  /// was in the bound storage at registration time. Generated, so it cannot
  /// drift from the flags a command actually accepts.
  std::string Usage() const {
    // First pass: column width so the help text lines up.
    size_t width = 0;
    for (const auto& [name, flag] : flags_) {
      width = std::max(width, name.size() + flag.TypeHint().size());
    }
    std::string out;
    for (const auto& [name, flag] : flags_) {
      std::string left = "--" + name + std::string(flag.TypeHint());
      out += "  " + left;
      out.append(width + 4 - (name.size() + flag.TypeHint().size()), ' ');
      out += flag.help;
      if (!flag.default_text.empty()) {
        out += " (default: " + flag.default_text + ")";
      }
      out += "\n";
    }
    out += "  --help";
    out.append(width >= 4 ? width - 4 + 4 : 4, ' ');
    out += "show this help\n";
    return out;
  }

 private:
  struct Flag {
    enum Type { kString, kDouble, kInt, kBool, kStringList };
    Type type;
    void* target;
    std::string help;
    std::string default_text;  ///< snapshot of *target at registration

    std::string_view TypeHint() const {
      switch (type) {
        case kString: return " <str>";
        case kDouble: return " <float>";
        case kInt: return " <int>";
        case kBool: return "";
        case kStringList: return " <str>...";
      }
      return "";
    }

    Status Assign(const std::string& name, const char* value) {
      errno = 0;
      char* end = nullptr;
      switch (type) {
        case kString:
          *static_cast<std::string*>(target) = value;
          return Status::OK();
        case kStringList:
          static_cast<std::vector<std::string>*>(target)->push_back(value);
          return Status::OK();
        case kDouble: {
          double v = std::strtod(value, &end);
          if (end == value || *end != '\0' || errno == ERANGE) {
            return Status::Invalid("flag --" + name + ": '" + value +
                                   "' is not a number");
          }
          *static_cast<double*>(target) = v;
          return Status::OK();
        }
        case kInt: {
          long long v = std::strtoll(value, &end, 10);
          if (end == value || *end != '\0' || errno == ERANGE) {
            return Status::Invalid("flag --" + name + ": '" + value +
                                   "' is not an integer");
          }
          *static_cast<int64_t*>(target) = v;
          return Status::OK();
        }
        case kBool:
          return Status::Internal("bool flag --" + name + " consumed a value");
      }
      return Status::Internal("unreachable");
    }
  };

  void Register(std::string name, Flag flag) { flags_.emplace(std::move(name), flag); }

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
};

/// The model-acquisition knobs shared by every model-consuming command:
/// `--model PATH` names the artifact, `--model-watch` turns on hot reload
/// (mtime-polled via ModelRegistry).
struct ModelFlags {
  std::string model = "autodetect.model";
  bool model_watch = false;
  int64_t model_poll_ms = 1000;

  void Register(FlagSet* flags) {
    flags->String("model", &model, "trained model file (ADMODEL2)");
    flags->Bool("model-watch", &model_watch,
                "hot-reload the model when the file changes");
    flags->Int("model-poll-ms", &model_poll_ms,
               "mtime poll interval for --model-watch");
  }

  /// \brief Loads the model once, with a hint appended to load failures.
  Result<Model> Load() const {
    auto loaded = Model::Load(model);
    if (!loaded.ok()) {
      return loaded.status().WithContext(
          "cannot load model '" + model +
          "' (train one first: autodetect_cli train --out " + model + ")");
    }
    return loaded;
  }

  /// \brief Builds the provider the flags describe: a FixedModel around one
  /// load, or a watching ModelRegistry when --model-watch is set. The
  /// returned provider owns the model/registry; keep it alive as long as
  /// any executor built on it.
  Result<std::unique_ptr<ModelProvider>> MakeProvider(
      MetricsRegistry* metrics) const {
    if (model_watch) {
      auto registry = std::make_unique<ModelRegistry>(metrics);
      AD_RETURN_NOT_OK(registry->StartWatch(
          model, std::chrono::milliseconds(model_poll_ms)));
      return std::unique_ptr<ModelProvider>(std::move(registry));
    }
    AD_ASSIGN_OR_RETURN(Model loaded, Load());
    return std::unique_ptr<ModelProvider>(std::make_unique<FixedModel>(
        std::make_shared<const Model>(std::move(loaded))));
  }
};

/// The engine knobs shared by every scanning command, including the
/// resilience surface: deadlines (partial reports instead of slow scans),
/// per-column degradation budgets, and admission control in front of the
/// worker pool.
struct EngineFlags {
  int64_t jobs = 0;       ///< worker threads; 0 = all cores
  int64_t cache_mb = 32;  ///< pair-verdict cache budget; 0 disables
  int64_t deadline_ms = 0;        ///< per-batch deadline; 0 = none
  int64_t column_budget_us = 0;   ///< degrade past this per-column; 0 = off
  int64_t queue_cap = 0;          ///< admission cap in columns; 0 = unbounded
  std::string admission_policy = "block";
  int64_t admission_timeout_ms = 1000;

  void Register(FlagSet* flags) {
    flags->Int("jobs", &jobs, "worker threads (0 = all cores)");
    flags->Int("cache-mb", &cache_mb, "pair-verdict cache MB (0 = off)");
    flags->Int("deadline-ms", &deadline_ms,
               "per-batch deadline; past-deadline columns return partial "
               "reports (0 = none)");
    flags->Int("column-budget-us", &column_budget_us,
               "per-column score budget before the degraded single-language "
               "fallback kicks in (0 = unlimited)");
    flags->Int("queue-cap", &queue_cap,
               "admission cap in columns across in-flight batches (0 = "
               "unbounded)");
    flags->String("admission-policy", &admission_policy,
                  "over-capacity behaviour: block, shed-oldest or reject");
    flags->Int("admission-timeout-ms", &admission_timeout_ms,
               "longest a batch waits for capacity under --admission-policy "
               "block");
  }

  Status Apply(EngineOptions* options) const {
    options->num_threads = static_cast<size_t>(jobs);
    options->cache_bytes = static_cast<size_t>(cache_mb) << 20;
    options->default_deadline_ms = static_cast<uint64_t>(deadline_ms);
    options->detector.column_budget_us = static_cast<uint64_t>(column_budget_us);
    options->admission.queue_cap_columns = static_cast<size_t>(queue_cap);
    Result<AdmissionPolicy> policy = ParseAdmissionPolicy(admission_policy);
    if (!policy.ok()) {
      return policy.status().WithContext("parsing --admission-policy");
    }
    options->admission.policy = *policy;
    options->admission.block_timeout_ms =
        static_cast<uint64_t>(admission_timeout_ms);
    return Status::OK();
  }
};

/// The metrics export knobs shared by every long-running command.
struct MetricsFlags {
  std::string metrics_out;       ///< empty = no export
  int64_t metrics_interval_ms = 0;  ///< 0 = one final dump only

  void Register(FlagSet* flags) {
    flags->String("metrics-out", &metrics_out,
                  "write metrics snapshot here (.json, or .prom/.txt for "
                  "Prometheus text)");
    flags->Int("metrics-interval-ms", &metrics_interval_ms,
               "also rewrite the snapshot every N ms while running");
  }

  bool enabled() const { return !metrics_out.empty(); }

  /// \brief Starts the periodic dumper when an interval was requested.
  /// Returns null when disabled or in one-shot mode; call Finish() at exit
  /// either way.
  std::unique_ptr<MetricsDumper> StartDumper(MetricsRegistry* registry) const {
    if (!enabled() || metrics_interval_ms <= 0) return nullptr;
    return std::make_unique<MetricsDumper>(registry, metrics_out,
                                           static_cast<uint64_t>(metrics_interval_ms));
  }

  /// \brief Writes the final snapshot (stopping `dumper` first if running).
  Status Finish(MetricsRegistry* registry,
                std::unique_ptr<MetricsDumper> dumper) const {
    if (!enabled()) return Status::OK();
    if (dumper != nullptr) return dumper->Stop();
    return WriteMetricsFile(registry, metrics_out);
  }
};

}  // namespace autodetect
