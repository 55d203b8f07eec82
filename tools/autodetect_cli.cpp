/// \file autodetect_cli.cpp
/// Command-line front end for the library — the "spell-checker for data"
/// deployment shape the paper targets:
///
///   autodetect_cli train --columns 30000 --profile WEB --budget-mb 64
///                        --precision 0.95 --out model.bin
///   autodetect_cli train-shard --columns 30000 --shard 2 --num-shards 4
///                        --out shard2.ads
///   autodetect_cli merge-stats --out merged.ads shard*.ads
///   autodetect_cli train --from-stats merged.ads --budget-mb 64 --out model.bin
///   autodetect_cli retrain --model model.bin --stats merged.ads
///                        --add-shard new.ads
///   autodetect_cli scan  --model model.bin data/*.csv
///   autodetect_cli scan  --model model.bin --metrics-out scan_metrics.json data/*.csv
///   autodetect_cli pair  --model model.bin "2011-01-01" "2011/01/02"
///   autodetect_cli info  --model model.bin
///
/// `train`, `train-shard` and `retrain` use the synthetic corpus substrate
/// (an ADSHARD1 artifact records which profile/seed/range it was built
/// over, so merge and retrain can reconstruct the stream); plug a real
/// corpus in by implementing ColumnSource and linking against the library.
///
/// Error handling: any unreadable input (bad flag, missing model, corrupt
/// CSV) aborts the run with a structured message on stderr and a non-zero
/// exit — a scan never half-completes silently.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "corpus/corpus_generator.h"
#include "detect/detector.h"
#include "detect/trainer.h"
#include "flag_set.h"
#include "io/csv.h"
#include "net/server.h"
#include "net/tenant.h"
#include "obs/dump.h"
#include "serve/detection_engine.h"
#include "train/shard.h"

using namespace autodetect;

namespace {

Result<CorpusProfile> ProfileByName(const std::string& name) {
  if (name == "WEB") return CorpusProfile::Web();
  if (name == "WIKI") return CorpusProfile::Wiki();
  if (name == "PUB-XLS") return CorpusProfile::PubXls();
  if (name == "ENT-XLS") return CorpusProfile::EntXls();
  return Status::Invalid("unknown profile '" + name +
                         "' (expected WEB, WIKI, PUB-XLS or ENT-XLS)");
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Parses a command's flags. Returns true when the command should proceed;
/// otherwise *exit_code holds the process exit (0 for --help, which prints
/// the auto-generated flag table to stdout; 2 for a parse error, which
/// prints it to stderr alongside the error).
bool ParseFlags(FlagSet& flags, int argc, char** argv, const char* synopsis,
                int* exit_code) {
  Status parsed = flags.Parse(argc, argv, 2);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\nusage: %s\nflags:\n%s",
                 parsed.ToString().c_str(), synopsis, flags.Usage().c_str());
    *exit_code = 2;
    return false;
  }
  if (flags.help_requested()) {
    std::printf("usage: %s\nflags:\n%s", synopsis, flags.Usage().c_str());
    *exit_code = 0;
    return false;
  }
  return true;
}

/// Rebuilds the synthetic column stream a stats artifact was built over
/// (the generator's column i depends only on (seed, index), so a grown
/// corpus's prefix matches the original stream exactly).
Result<GeneratorOptions> GeneratorFromProvenance(const ShardProvenance& prov) {
  if (prov.profile.empty()) {
    return Status::Invalid(
        "stats artifact lacks synthetic-corpus provenance (built over an "
        "external corpus?); supervision needs the original column stream");
  }
  AD_ASSIGN_OR_RETURN(CorpusProfile profile, ProfileByName(prov.profile));
  GeneratorOptions gen;
  gen.profile = std::move(profile);
  gen.seed = prov.seed;
  gen.num_columns = static_cast<size_t>(prov.total_columns);
  gen.inject_errors = false;
  return gen;
}

Status RequireFullCoverage(const ShardProvenance& prov) {
  if (prov.column_begin != 0 || prov.column_end != prov.total_columns) {
    return Status::Invalid(StrFormat(
        "statistics cover columns [%llu, %llu) of %llu; finalization needs "
        "the whole corpus — merge the missing shards first",
        static_cast<unsigned long long>(prov.column_begin),
        static_cast<unsigned long long>(prov.column_end),
        static_cast<unsigned long long>(prov.total_columns)));
  }
  return Status::OK();
}

/// Supervision + selection + save, shared by `train`, `train --from-stats`
/// and `retrain`. With `atomic` the model lands via temp-file + rename, so
/// a serving process watching the path (--model-watch / ModelRegistry)
/// only ever sees a complete artifact and hot-swaps cleanly.
Status FinalizeAndSave(TrainSession* session, ColumnSource* source,
                       const std::string& out, bool atomic) {
  AD_RETURN_NOT_OK(session->Supervise(source));
  AD_ASSIGN_OR_RETURN(Model model, session->Finalize());
  if (atomic) {
    const std::string tmp = out + ".tmp";
    AD_RETURN_NOT_OK(model.Save(tmp).WithContext("save failed"));
    std::error_code ec;
    std::filesystem::rename(tmp, out, ec);
    if (ec) {
      return Status::IOError("cannot rename " + tmp + " to " + out + ": " +
                             ec.message());
    }
  } else {
    AD_RETURN_NOT_OK(model.Save(out).WithContext("save failed"));
  }
  std::printf("%s", model.Summary().c_str());
  std::printf("saved to %s (ADMODEL2)\n", out.c_str());
  return Status::OK();
}

int CmdTrain(int argc, char** argv) {
  std::string profile_name = "WEB", out = "autodetect.model";
  std::string from_stats;
  int64_t columns = 30000, seed = 20180610, budget_mb = 64;
  int64_t sketch_budget_mb = 0;
  double precision = 0.95, sketch = 1.0, smoothing = 0.1;
  int64_t jobs = 0;
  MetricsFlags metrics;

  FlagSet flags;
  flags.String("profile", &profile_name, "training corpus profile");
  flags.Int("columns", &columns, "training columns to synthesize");
  flags.Int("seed", &seed, "corpus seed");
  flags.String("from-stats", &from_stats,
               "finalize from a merged ADSHARD1 statistics artifact instead "
               "of scanning a corpus (--profile/--columns/--seed then come "
               "from the artifact's provenance)");
  flags.Int("budget-mb", &budget_mb, "model memory budget");
  flags.Double("precision", &precision, "precision target");
  flags.Double("sketch", &sketch, "co-occurrence sketch ratio (0,1]");
  flags.Int("sketch-budget-mb", &sketch_budget_mb,
            "cap each language's co-occurrence sketch at this many MB "
            "(0 = off; mutually exclusive with --sketch)");
  flags.Double("smoothing", &smoothing, "NPMI smoothing factor");
  flags.Int("jobs", &jobs, "worker threads (0 = all cores)");
  flags.String("out", &out, "model output path");
  metrics.Register(&flags);
  int rc = 0;
  if (!ParseFlags(flags, argc, argv, "autodetect_cli train [flags]", &rc)) {
    return rc;
  }

  if (sketch_budget_mb < 0) {
    return Fail(Status::Invalid("--sketch-budget-mb must be >= 0"));
  }
  if (sketch_budget_mb > 0 && sketch < 1.0) {
    return Fail(Status::Invalid(
        "--sketch and --sketch-budget-mb are mutually exclusive (pick the "
        "relative ratio or the absolute per-language cap)"));
  }

  TrainOptions train;
  train.precision_target = precision;
  train.memory_budget_bytes = static_cast<size_t>(budget_mb) << 20;
  train.sketch_ratio = sketch;
  train.sketch_budget_bytes = static_cast<size_t>(sketch_budget_mb) << 20;
  train.smoothing_factor = smoothing;
  train.num_threads = static_cast<size_t>(jobs);

  MetricsRegistry* registry = MetricsRegistry::Default();
  std::unique_ptr<MetricsDumper> dumper = metrics.StartDumper(registry);
  Status trained;

  if (!from_stats.empty()) {
    // Reduce output in, statistics pass skipped: adopt the merged shard,
    // then supervision + selection against the reconstructed stream.
    auto shard = ReadShard(from_stats);
    if (!shard.ok()) return Fail(shard.status());
    Status covered = RequireFullCoverage(shard->provenance);
    if (!covered.ok()) return Fail(covered);
    auto gen = GeneratorFromProvenance(shard->provenance);
    if (!gen.ok()) return Fail(gen.status());
    train.corpus_name = shard->provenance.corpus_name;
    GeneratedColumnSource source(*gen);
    TrainSession session(train);
    Status used = session.UseStats(std::move(*shard));
    if (!used.ok()) return Fail(used.WithContext("adopting " + from_stats));
    std::printf("finalizing from %s (%llu %s columns, P>=%.2f, budget %s)...\n",
                from_stats.c_str(),
                static_cast<unsigned long long>(session.corpus_columns()),
                gen->profile.name.c_str(), train.precision_target,
                HumanBytes(train.memory_budget_bytes).c_str());
    trained = FinalizeAndSave(&session, &source, out, /*atomic=*/false);
  } else {
    auto profile = ProfileByName(profile_name);
    if (!profile.ok()) return Fail(profile.status());
    GeneratorOptions gen;
    gen.profile = *profile;
    gen.num_columns = static_cast<size_t>(columns);
    gen.inject_errors = false;
    gen.seed = static_cast<uint64_t>(seed);
    GeneratedColumnSource source(gen);
    train.corpus_name = gen.profile.name + "-synthetic";
    std::printf("training on %zu %s columns (P>=%.2f, budget %s)...\n",
                gen.num_columns, gen.profile.name.c_str(),
                train.precision_target,
                HumanBytes(train.memory_budget_bytes).c_str());
    TrainSession session(train);
    trained = session.BuildStats(&source);
    if (trained.ok()) {
      trained = FinalizeAndSave(&session, &source, out, /*atomic=*/false);
    }
  }
  if (!trained.ok()) return Fail(trained.WithContext("training failed"));

  Status dumped = metrics.Finish(registry, std::move(dumper));
  if (!dumped.ok()) return Fail(dumped.WithContext("metrics export failed"));
  if (metrics.enabled()) std::printf("metrics written to %s\n", metrics.metrics_out.c_str());
  return 0;
}

int CmdTrainShard(int argc, char** argv) {
  std::string profile_name = "WEB", out = "shard.ads";
  int64_t columns = 30000, seed = 20180610;
  int64_t shard_index = 0, num_shards = 1;
  int64_t jobs = 0;

  FlagSet flags;
  flags.String("profile", &profile_name, "training corpus profile");
  flags.Int("columns", &columns, "columns in the FULL corpus being partitioned");
  flags.Int("seed", &seed, "corpus seed");
  flags.Int("shard", &shard_index, "which partition to build (0-based)");
  flags.Int("num-shards", &num_shards, "total number of partitions");
  flags.Int("jobs", &jobs, "worker threads (0 = all cores)");
  flags.String("out", &out, "shard output path (ADSHARD1)");
  int rc = 0;
  if (!ParseFlags(flags, argc, argv, "autodetect_cli train-shard [flags]", &rc)) {
    return rc;
  }
  if (columns <= 0) return Fail(Status::Invalid("--columns must be positive"));
  if (num_shards <= 0 || shard_index < 0 || shard_index >= num_shards) {
    return Fail(Status::Invalid(
        "--shard must be in [0, --num-shards) and --num-shards positive"));
  }

  auto profile = ProfileByName(profile_name);
  if (!profile.ok()) return Fail(profile.status());

  GeneratorOptions gen;
  gen.profile = *profile;
  gen.num_columns = static_cast<size_t>(columns);
  gen.inject_errors = false;
  gen.seed = static_cast<uint64_t>(seed);
  GeneratedColumnSource full(gen);

  const uint64_t total = static_cast<uint64_t>(columns);
  const uint64_t begin =
      total * static_cast<uint64_t>(shard_index) / static_cast<uint64_t>(num_shards);
  const uint64_t end = total * static_cast<uint64_t>(shard_index + 1) /
                       static_cast<uint64_t>(num_shards);
  SlicedColumnSource partition(&full, static_cast<size_t>(begin),
                               static_cast<size_t>(end));

  TrainOptions train;
  train.num_threads = static_cast<size_t>(jobs);
  ShardProvenance prov;
  prov.corpus_name = gen.profile.name + "-synthetic";
  prov.profile = gen.profile.name;
  prov.seed = gen.seed;
  prov.total_columns = total;
  prov.column_begin = begin;
  prov.column_end = end;

  std::printf("building stats shard %lld/%lld: %s columns [%llu, %llu) of %llu...\n",
              static_cast<long long>(shard_index),
              static_cast<long long>(num_shards), gen.profile.name.c_str(),
              static_cast<unsigned long long>(begin),
              static_cast<unsigned long long>(end),
              static_cast<unsigned long long>(total));
  auto shard = TrainSession::BuildShard(&partition, train, std::move(prov));
  if (!shard.ok()) return Fail(shard.status().WithContext("building shard"));
  Status written = WriteShard(out, *shard);
  if (!written.ok()) return Fail(written);
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(out, ec);
  std::printf("wrote %s (%s, %zu languages, %llu columns)\n", out.c_str(),
              HumanBytes(ec ? 0 : bytes).c_str(),
              shard->stats.LanguageIds().size(),
              static_cast<unsigned long long>(shard->provenance.num_columns()));
  return 0;
}

int CmdMergeStats(int argc, char** argv) {
  std::string out = "merged.ads";
  FlagSet flags;
  flags.String("out", &out, "merged shard output path (ADSHARD1)");
  int rc = 0;
  if (!ParseFlags(flags, argc, argv,
                  "autodetect_cli merge-stats --out merged.ads shard.ads...",
                  &rc)) {
    return rc;
  }
  if (flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: autodetect_cli merge-stats --out merged.ads "
                 "shard.ads...\n%s",
                 flags.Usage().c_str());
    return 2;
  }
  auto merged = MergeShardFiles(flags.positional());
  if (!merged.ok()) return Fail(merged.status());
  Status written = WriteShard(out, *merged);
  if (!written.ok()) return Fail(written);
  std::printf("merged %zu shard(s) -> %s: columns [%llu, %llu) of %llu\n",
              flags.positional().size(), out.c_str(),
              static_cast<unsigned long long>(merged->provenance.column_begin),
              static_cast<unsigned long long>(merged->provenance.column_end),
              static_cast<unsigned long long>(merged->provenance.total_columns));
  return 0;
}

int CmdRetrain(int argc, char** argv) {
  std::string model_path, stats_path, out;
  std::vector<std::string> add_shards;
  int64_t budget_mb = 64;
  int64_t sketch_budget_mb = 0;
  double sketch = 1.0;
  int64_t jobs = 0;

  FlagSet flags;
  flags.String("model", &model_path,
               "existing model whose training knobs (precision target, "
               "smoothing, corpus) to reuse");
  flags.String("stats", &stats_path,
               "merged ADSHARD1 statistics the model was trained from");
  flags.StringList("add-shard", &add_shards,
                   "new-data shard to fold in (repeatable); ranges must "
                   "extend the base statistics contiguously");
  flags.Int("budget-mb", &budget_mb, "model memory budget");
  flags.Double("sketch", &sketch, "co-occurrence sketch ratio (0,1]");
  flags.Int("sketch-budget-mb", &sketch_budget_mb,
            "cap each language's co-occurrence sketch at this many MB (0 = off)");
  flags.Int("jobs", &jobs, "worker threads (0 = all cores)");
  flags.String("out", &out,
               "output model path (default: overwrite --model in place, "
               "atomically — a --model-watch server hot-swaps it)");
  int rc = 0;
  if (!ParseFlags(flags, argc, argv,
                  "autodetect_cli retrain --model m.bin --stats base.ads "
                  "--add-shard new.ads",
                  &rc)) {
    return rc;
  }
  if (model_path.empty() || stats_path.empty()) {
    return Fail(Status::Invalid("retrain needs --model and --stats"));
  }
  if (out.empty()) out = model_path;

  auto model = Model::Load(model_path);
  if (!model.ok()) return Fail(model.status());

  std::vector<std::string> shard_paths;
  shard_paths.push_back(stats_path);
  shard_paths.insert(shard_paths.end(), add_shards.begin(), add_shards.end());
  auto merged = MergeShardFiles(shard_paths);
  if (!merged.ok()) return Fail(merged.status());
  Status covered = RequireFullCoverage(merged->provenance);
  if (!covered.ok()) return Fail(covered);
  auto gen = GeneratorFromProvenance(merged->provenance);
  if (!gen.ok()) return Fail(gen.status());

  // The refreshed model keeps the original's quality knobs; the memory
  // budget is not recorded in a model artifact, so it stays a flag.
  TrainOptions train;
  train.precision_target = model->precision_target;
  train.smoothing_factor = model->smoothing_factor;
  train.corpus_name = model->corpus_name;
  train.memory_budget_bytes = static_cast<size_t>(budget_mb) << 20;
  train.sketch_ratio = sketch;
  train.sketch_budget_bytes = static_cast<size_t>(sketch_budget_mb) << 20;
  train.num_threads = static_cast<size_t>(jobs);

  GeneratedColumnSource source(*gen);
  TrainSession session(train);
  Status used = session.UseStats(std::move(*merged));
  if (!used.ok()) return Fail(used.WithContext("adopting merged statistics"));

  std::printf("retraining %s: %llu columns (%llu previously trained), "
              "%zu new shard(s)...\n",
              model_path.c_str(),
              static_cast<unsigned long long>(session.corpus_columns()),
              static_cast<unsigned long long>(model->trained_columns),
              add_shards.size());
  Status trained =
      FinalizeAndSave(&session, &source, out, /*atomic=*/true);
  if (!trained.ok()) return Fail(trained.WithContext("retrain failed"));
  if (out == model_path) {
    std::printf("swapped in place; serving processes watching it "
                "(--model-watch) hot-reload on the next poll\n");
  }
  return 0;
}

int CmdScan(int argc, char** argv) {
  double min_confidence = 0.0;
  ModelFlags model_flags;
  EngineFlags engine_flags;
  MetricsFlags metrics;

  FlagSet flags;
  model_flags.Register(&flags);
  flags.Double("min-confidence", &min_confidence, "suppress findings below this");
  engine_flags.Register(&flags);
  metrics.Register(&flags);
  int rc = 0;
  if (!ParseFlags(flags, argc, argv,
                  "autodetect_cli scan --model m.bin [flags] file.csv...",
                  &rc)) {
    return rc;
  }

  if (flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: autodetect_cli scan --model m.bin [options] file.csv...\n%s",
                 flags.Usage().c_str());
    return 2;
  }

  MetricsRegistry* registry = MetricsRegistry::Default();
  std::unique_ptr<MetricsDumper> dumper = metrics.StartDumper(registry);

  // FixedModel for a one-shot scan, or a watching ModelRegistry under
  // --model-watch; the engine refreshes its snapshot per batch either way.
  auto provider = model_flags.MakeProvider(registry);
  if (!provider.ok()) return Fail(provider.status());

  EngineOptions engine_opts;
  Status applied = engine_flags.Apply(&engine_opts);
  if (!applied.ok()) return Fail(applied);
  engine_opts.metrics = registry;
  DetectionEngine engine(provider->get(), engine_opts);

  Stopwatch timer;
  size_t total_findings = 0;
  size_t degraded = 0, partial = 0, shed = 0;
  for (const auto& path : flags.positional()) {
    auto table = ReadCsvFile(path);
    // Fail fast: a bad input file aborts the scan with a non-zero exit
    // instead of being skipped into a silently partial report.
    if (!table.ok()) return Fail(table.status());
    std::vector<DetectRequest> batch;
    batch.reserve(table->num_cols());
    for (size_t c = 0; c < table->num_cols(); ++c) {
      batch.push_back(
          DetectRequest{table->header[c], table->Column(c), RequestContext{"", path}});
    }
    std::vector<DetectReport> reports = engine.Detect(batch);
    for (const DetectReport& report : reports) {
      switch (report.status) {
        case ColumnStatus::kOk: break;
        case ColumnStatus::kDegraded: ++degraded; break;
        case ColumnStatus::kDeadlineExceeded:
        case ColumnStatus::kCancelled: ++partial; break;
        case ColumnStatus::kShed: ++shed; break;
      }
      for (const auto& cell : report.column.cells) {
        if (cell.confidence < min_confidence) continue;
        ++total_findings;
        std::printf("%s:%s:row %u: suspicious value \"%s\" (confidence %.3f, "
                    "clashes with %u values)\n",
                    path.c_str(), report.name.c_str(), cell.row + 2,
                    cell.value.c_str(), cell.confidence, cell.incompatible_with);
      }
    }
  }
  double elapsed = timer.ElapsedSeconds();
  EngineStats stats = engine.Stats();
  std::printf("%zu finding(s)\n", total_findings);
  // Resilience accounting: anything other than a clean full-fidelity scan
  // is called out, never silent.
  if (degraded + partial + shed > 0) {
    std::printf("resilience: %zu column(s) degraded, %zu partial "
                "(deadline/cancel), %zu shed\n",
                degraded, partial, shed);
  }
  std::printf("scanned %llu column(s) with %zu thread(s) in %.3fs "
              "(%.0f columns/s, cache hit rate %.1f%%)\n",
              static_cast<unsigned long long>(stats.columns),
              engine.num_threads(), elapsed,
              elapsed > 0 ? static_cast<double>(stats.columns) / elapsed : 0.0,
              stats.cache.HitRate() * 100.0);

  Status dumped = metrics.Finish(registry, std::move(dumper));
  if (!dumped.ok()) return Fail(dumped.WithContext("metrics export failed"));
  if (metrics.enabled()) std::printf("metrics written to %s\n", metrics.metrics_out.c_str());
  return 0;
}

int CmdPair(int argc, char** argv) {
  ModelFlags model_flags;
  FlagSet flags;
  model_flags.Register(&flags);
  int rc = 0;
  if (!ParseFlags(flags, argc, argv,
                  "autodetect_cli pair --model m.bin VALUE1 VALUE2", &rc)) {
    return rc;
  }
  if (flags.positional().size() != 2) {
    std::fprintf(stderr, "usage: autodetect_cli pair --model m.bin VALUE1 VALUE2\n");
    return 2;
  }
  auto model = model_flags.Load();
  if (!model.ok()) return Fail(model.status());
  Detector detector(&*model);
  PairExplanation explanation =
      detector.ExplainPair(flags.positional()[0], flags.positional()[1]);
  std::printf("\"%s\" vs \"%s\"\n%s", flags.positional()[0].c_str(),
              flags.positional()[1].c_str(), explanation.ToString().c_str());
  return explanation.verdict.incompatible ? 3 : 0;
}

int CmdInfo(int argc, char** argv) {
  ModelFlags model_flags;
  FlagSet flags;
  model_flags.Register(&flags);
  int rc = 0;
  if (!ParseFlags(flags, argc, argv, "autodetect_cli info --model m.bin",
                  &rc)) {
    return rc;
  }
  auto model = model_flags.Load();
  if (!model.ok()) return Fail(model.status());
  std::printf("%s", model->Summary().c_str());
  std::printf("format: ADMODEL2%s, file %s\n",
              model->mapped() ? " (memory-mapped)" : "",
              HumanBytes(model->FileBytes()).c_str());
  const ModelSketchInfo sketch = model->SketchInfo();
  if (sketch.languages > 0) {
    std::printf("sketch: %zu/%zu language(s) served from count-min sketches, "
                "%s of counters (width %zu, depth %zu)\n",
                sketch.languages, model->languages.size(),
                HumanBytes(sketch.bytes).c_str(), sketch.width, sketch.depth);
  } else {
    std::printf("sketch: none (all languages exact)\n");
  }
  std::printf("tokenizer: %s (max supported: %s)\n",
              std::string(SimdTierName(ActiveSimdTier())).c_str(),
              std::string(SimdTierName(MaxSupportedSimdTier())).c_str());
  return 0;
}

/// SIGINT/SIGTERM land here; the serve loop polls it. sig_atomic_t because
/// a signal handler may not touch anything wider.
volatile std::sig_atomic_t g_serve_stop = 0;

void ServeSignalHandler(int) { g_serve_stop = 1; }

int CmdServe(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int64_t port = 0;
  int64_t acceptors = 2;
  int64_t dispatch_threads = 0;
  int64_t max_frame_mb = 64;
  int64_t idle_timeout_ms = 120000;
  int64_t partial_timeout_ms = 5000;
  int64_t mem_budget_mb = 0;
  int64_t request_budget_mb = 0;
  int64_t drain_timeout_ms = 10000;
  int64_t wedge_timeout_ms = 5000;
  std::string tenants_spec;
  std::string port_file;
  ModelFlags model_flags;
  EngineFlags engine_flags;
  MetricsFlags metrics;

  FlagSet flags;
  model_flags.Register(&flags);
  engine_flags.Register(&flags);
  metrics.Register(&flags);
  flags.String("host", &host, "listen address");
  flags.Int("port", &port, "listen port (0 = ephemeral; see --port-file)");
  flags.Int("acceptors", &acceptors,
            "event-loop threads, each with its own SO_REUSEPORT listener");
  flags.Int("dispatch-threads", &dispatch_threads,
            "blocking-detect dispatch pool size (0 = all cores)");
  flags.Int("max-frame-mb", &max_frame_mb,
            "largest accepted wire frame / HTTP body");
  flags.Int("idle-timeout-ms", &idle_timeout_ms,
            "close idle keep-alive connections after this");
  flags.Int("partial-timeout-ms", &partial_timeout_ms,
            "close connections parked on a partial request after this "
            "(slow-loris defense)");
  flags.Int("mem-budget-mb", &mem_budget_mb,
            "global request-memory budget; over-budget requests get a typed "
            "ResourceExhausted error instead of an OOM (0 = unlimited)");
  flags.Int("request-budget-mb", &request_budget_mb,
            "per-request memory budget, checked from the wire frame's "
            "length prefix before the payload is buffered (0 = unlimited)");
  flags.Int("drain-timeout-ms", &drain_timeout_ms,
            "on SIGTERM or POST /drain, wait this long for in-flight "
            "batches before cancelling stragglers");
  flags.Int("wedge-timeout-ms", &wedge_timeout_ms,
            "watchdog flags a dispatch worker stuck past this as wedged "
            "(health degraded until it recovers)");
  flags.String("tenants", &tenants_spec,
               "per-tenant admission quotas, comma-separated "
               "name=cap[:block|shed-oldest|reject]; '*' names the default");
  flags.String("port-file", &port_file,
               "write the bound port here once listening (for scripts "
               "using --port 0)");
  int rc = 0;
  if (!ParseFlags(flags, argc, argv, "autodetect_cli serve [flags]", &rc)) {
    return rc;
  }
  if (port < 0 || port > 65535) {
    return Fail(Status::Invalid("--port must be in [0, 65535]"));
  }
  if (acceptors <= 0) {
    return Fail(Status::Invalid("--acceptors must be positive"));
  }
  if (max_frame_mb <= 0) {
    return Fail(Status::Invalid("--max-frame-mb must be positive"));
  }

  MetricsRegistry* registry = MetricsRegistry::Default();
  std::unique_ptr<MetricsDumper> dumper = metrics.StartDumper(registry);

  // Lifecycle subsystem: health ladder behind /healthz, watchdog over the
  // dispatch workers and acceptor loops, memory budget on the request path,
  // and a circuit breaker around model hot-reload.
  HealthLadder health(registry);
  WatchdogOptions dog_opts;
  dog_opts.wedge_timeout_ms = static_cast<uint64_t>(wedge_timeout_ms);
  dog_opts.stall_timeout_ms = static_cast<uint64_t>(wedge_timeout_ms);
  dog_opts.health = &health;
  dog_opts.metrics = registry;
  Watchdog watchdog(dog_opts);
  MemoryBudgetOptions budget_opts;
  budget_opts.global_bytes = static_cast<size_t>(mem_budget_mb) << 20;
  budget_opts.per_request_bytes = static_cast<size_t>(request_budget_mb) << 20;
  budget_opts.metrics = registry;
  MemoryBudget memory(budget_opts);
  CircuitBreakerOptions breaker_opts;
  breaker_opts.name = "model-reload";
  breaker_opts.health = &health;
  breaker_opts.metrics = registry;
  CircuitBreaker reload_breaker(breaker_opts);

  auto provider = model_flags.MakeProvider(registry);
  if (!provider.ok()) return Fail(provider.status());
  if (auto* model_registry = dynamic_cast<ModelRegistry*>(provider->get())) {
    // --model-watch: repeated reload failures trip the breaker, stop the
    // disk hammering, and mark the server degraded until a probe succeeds.
    model_registry->AttachBreaker(&reload_breaker);
  }

  EngineOptions engine_opts;
  Status applied = engine_flags.Apply(&engine_opts);
  if (!applied.ok()) return Fail(applied);
  engine_opts.metrics = registry;
  DetectionEngine engine(provider->get(), engine_opts);

  TenantTable tenants(registry);
  if (!tenants_spec.empty()) {
    Status parsed_tenants = tenants.Parse(tenants_spec);
    if (!parsed_tenants.ok()) {
      return Fail(parsed_tenants.WithContext("parsing --tenants"));
    }
  }

  ServerOptions server_opts;
  server_opts.host = host;
  server_opts.port = static_cast<uint16_t>(port);
  server_opts.num_acceptors = static_cast<size_t>(acceptors);
  server_opts.dispatch_threads = static_cast<size_t>(dispatch_threads);
  server_opts.wire_limits.max_frame_bytes =
      static_cast<size_t>(max_frame_mb) << 20;
  server_opts.http_limits.max_body_bytes =
      static_cast<size_t>(max_frame_mb) << 20;
  server_opts.partial_timeout_ms = static_cast<uint64_t>(partial_timeout_ms);
  server_opts.idle_timeout_ms = static_cast<uint64_t>(idle_timeout_ms);
  server_opts.tenants = &tenants;
  server_opts.metrics = registry;
  server_opts.memory = memory.enabled() ? &memory : nullptr;
  server_opts.health = &health;
  server_opts.watchdog = &watchdog;
  server_opts.drain_timeout_ms = static_cast<uint64_t>(drain_timeout_ms);

  Server server(&engine, server_opts);
  Status started = server.Start();
  if (!started.ok()) return Fail(started.WithContext("starting server"));
  watchdog.Start();

  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      server.Stop();
      return Fail(Status::IOError("cannot write --port-file " + port_file));
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }

  for (const std::string& tenant : tenants.ConfiguredTenants()) {
    TenantSpec spec = tenants.SpecFor(tenant);
    std::printf("tenant %s: cap %zu columns\n", tenant.c_str(),
                spec.queue_cap_columns);
  }
  std::printf("serving on %s:%u (%zu acceptors, ADWIRE1 + HTTP/1.1)\n",
              host.c_str(), server.port(), server_opts.num_acceptors);
  std::fflush(stdout);

  g_serve_stop = 0;
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  // POST /drain flips server.draining() without a signal; both paths exit
  // the wait and take the same graceful sequence below.
  while (g_serve_stop == 0 && !server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("draining (up to %lld ms)...\n",
              static_cast<long long>(drain_timeout_ms));
  std::fflush(stdout);
  server.BeginDrain();
  const bool clean = server.AwaitDrain();
  if (!clean) {
    std::printf("drain timeout; cancelling remaining batches\n");
  }
  server.Stop();
  watchdog.Stop();

  ServerStats stats = server.Stats();
  std::printf("served %llu request(s) over %llu connection(s) "
              "(%llu HTTP, %llu protocol error(s), %llu disconnect "
              "cancel(s), %llu timeout close(s))\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.http_requests),
              static_cast<unsigned long long>(stats.protocol_errors),
              static_cast<unsigned long long>(stats.disconnect_cancels),
              static_cast<unsigned long long>(stats.timeout_closes));

  Status dumped = metrics.Finish(registry, std::move(dumper));
  if (!dumped.ok()) return Fail(dumped.WithContext("metrics export failed"));
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "autodetect_cli — corpus-statistics error detection "
               "(Auto-Detect, SIGMOD'18)\n\n"
               "commands:\n"
               "  train --columns N --profile WEB|WIKI|PUB-XLS|ENT-XLS\n"
               "        --precision P --budget-mb M [--sketch R |\n"
               "        --sketch-budget-mb M] [--seed S]\n"
               "        [--out FILE]                     train + save a model\n"
               "        (a zero-copy mmap ADMODEL2 artifact; --sketch-budget-mb\n"
               "         caps each language's co-occurrence sketch, writing\n"
               "         a v3 artifact with a page-aligned SKCH section that\n"
               "         scan auto-detects; --from-stats FILE skips the\n"
               "         statistics pass and finalizes from a merged\n"
               "         ADSHARD1 artifact)\n"
               "  train-shard --columns N --shard I --num-shards K\n"
               "        [--profile P] [--seed S] --out FILE\n"
               "        build corpus statistics for one contiguous column\n"
               "        partition as a checksummed ADSHARD1 artifact\n"
               "  merge-stats --out merged.ads shard.ads...\n"
               "        deterministically merge shards (any order -> same\n"
               "        bytes); the ranges must tile one contiguous range\n"
               "  retrain --model FILE --stats base.ads --add-shard new.ads\n"
               "        [--out FILE] fold new-data shards into existing\n"
               "        statistics, recalibrate, and atomically swap the\n"
               "        model (a --model-watch server hot-reloads it);\n"
               "        skips the statistics pass over the old columns\n"
               "  scan  --model FILE [--min-confidence C] [--jobs N]\n"
               "        [--cache-mb M] [--model-watch [--model-poll-ms N]]\n"
               "        [--deadline-ms N] [--column-budget-us N]\n"
               "        [--queue-cap N [--admission-policy block|shed-oldest|\n"
               "         reject] [--admission-timeout-ms N]]\n"
               "        file.csv...                       flag suspicious cells\n"
               "        (--jobs 0 = all cores; --cache-mb 0 disables the\n"
               "         cross-column pair-verdict cache; --model-watch\n"
               "         hot-reloads the model when the file changes;\n"
               "         --deadline-ms bounds batch latency with partial\n"
               "         reports; --column-budget-us degrades slow columns to\n"
               "         the single-language fallback; --queue-cap bounds\n"
               "         in-flight work by admission policy)\n"
               "  serve --model FILE [--port N] [--tenants SPEC]\n"
               "        [--acceptors N] [--port-file FILE]  network server:\n"
               "        ADWIRE1 binary + HTTP/1.1 JSON on one port\n"
               "        (POST /detect, GET /metrics, GET /healthz);\n"
               "        per-tenant admission via --tenants\n"
               "        \"acme=512:block,free=64,*=4096\"\n"
               "  pair  --model FILE VALUE1 VALUE2       explain one pair\n"
               "  info  --model FILE                     describe a model\n\n"
               "every command accepts --help for its full generated flag\n"
               "table. train, scan and serve also accept --metrics-out FILE\n"
               "(JSON, or Prometheus text for .prom/.txt) and\n"
               "--metrics-interval-ms N for live-updating snapshots.\n");
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  if (argc < 2) {
    Usage();
    return 2;
  }
  std::string command = argv[1];
  if (command == "train") return CmdTrain(argc, argv);
  if (command == "train-shard") return CmdTrainShard(argc, argv);
  if (command == "merge-stats") return CmdMergeStats(argc, argv);
  if (command == "retrain") return CmdRetrain(argc, argv);
  if (command == "scan") return CmdScan(argc, argv);
  if (command == "serve") return CmdServe(argc, argv);
  if (command == "pair") return CmdPair(argc, argv);
  if (command == "info") return CmdInfo(argc, argv);
  Usage();
  return 2;
}
