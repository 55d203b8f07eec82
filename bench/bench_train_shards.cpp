/// \file bench_train_shards.cpp
/// Incremental-retraining benchmark: a model refresh after a 10% corpus
/// growth, done the old way (full retrain — statistics over every column)
/// vs the sharded way (fold one new-data ADSHARD1 into yesterday's saved
/// statistics, re-run supervision + calibration + selection only).
/// Handwritten main so the run can gate its two invariants and emit them
/// next to the timings:
///
///   * models_identical — the delta-retrained model artifact is
///     byte-identical to the full retrain on the grown corpus (the
///     determinism contract of train/shard.h, at production scale);
///   * speedup >= 3x — the refresh skips the multi-language statistics
///     pass over the old 90% of the corpus, which dominates training.
///
/// Writes BENCH_train_shards.json (path overridable via argv[1]).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "corpus/corpus_generator.h"
#include "detect/trainer.h"
#include "train/shard.h"

using namespace autodetect;

namespace {

constexpr size_t kOldColumns = 6000;
constexpr size_t kNewColumns = 6600;  // the corpus grew 10%
constexpr uint64_t kSeed = 20180610;
constexpr double kMinSpeedup = 3.0;

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TrainOptions BenchTrainOptions() {
  // Production shape: the full 144-language candidate space. The statistics
  // pass scales with that breadth, distant supervision runs one crude
  // language — exactly the asymmetry the delta path exploits.
  TrainOptions train;
  train.memory_budget_bytes = 64ull << 20;
  train.supervision.target_positives = 3000;
  train.supervision.target_negatives = 3000;
  train.corpus_name = "WEB-synthetic";
  return train;
}

GeneratorOptions Grown(size_t num_columns) {
  GeneratorOptions gen;
  gen.num_columns = num_columns;
  gen.inject_errors = false;
  gen.seed = kSeed;
  return gen;
}

ShardProvenance Provenance(const GeneratorOptions& gen, uint64_t begin,
                           uint64_t end) {
  ShardProvenance prov;
  prov.corpus_name = gen.profile.name + "-synthetic";
  prov.profile = gen.profile.name;
  prov.seed = gen.seed;
  prov.total_columns = gen.num_columns;
  prov.column_begin = begin;
  prov.column_end = end;
  return prov;
}

std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  AD_CHECK(f != nullptr) << "cannot read " << path;
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const std::string out_path =
      argc > 1 ? argv[1] : std::string("BENCH_train_shards.json");
  const TrainOptions train = BenchTrainOptions();

  // Yesterday's training run left its statistics behind as a shard — this
  // build is NOT part of the refresh cost (it already happened).
  const std::string base_path = TempPath("bench_train_shards_base.ads");
  {
    const GeneratorOptions old_gen = Grown(kOldColumns);
    GeneratedColumnSource old_source(old_gen);
    auto base = TrainSession::BuildShard(&old_source, train,
                                         Provenance(old_gen, 0, kOldColumns));
    AD_CHECK_OK(base.status());
    AD_CHECK_OK(WriteShard(base_path, *base));
  }

  const GeneratorOptions gen = Grown(kNewColumns);
  const std::string full_path = TempPath("bench_train_shards_full.model");
  const std::string delta_path = TempPath("bench_train_shards_delta.model");

  // Full retrain: statistics over all grown columns, then supervision.
  double full_ms;
  {
    GeneratedColumnSource source(gen);
    Stopwatch watch;
    TrainSession session(train);
    AD_CHECK_OK(session.BuildStats(&source));
    AD_CHECK_OK(session.Supervise(&source));
    auto model = session.Finalize();
    AD_CHECK_OK(model.status());
    full_ms = watch.ElapsedSeconds() * 1e3;
    AD_CHECK_OK(model->Save(full_path));
  }

  // Delta retrain: statistics over ONLY the new 10%, merged into the saved
  // base, then the same supervision + calibration + selection. The timed
  // region is everything a refresh actually has to do.
  double delta_ms;
  {
    Stopwatch watch;
    GeneratedColumnSource grown(gen);
    SlicedColumnSource fresh(&grown, kOldColumns, kNewColumns);
    auto delta = TrainSession::BuildShard(
        &fresh, train, Provenance(gen, kOldColumns, kNewColumns));
    AD_CHECK_OK(delta.status());
    auto base = ReadShard(base_path);
    AD_CHECK_OK(base.status());
    TrainSession session(train);
    AD_CHECK_OK(session.UseStats(std::move(*base)));
    std::vector<StatsShard> additions;
    additions.push_back(std::move(*delta));
    AD_CHECK_OK(session.AddShards(std::move(additions)));

    GeneratedColumnSource source(gen);
    AD_CHECK_OK(session.Supervise(&source));
    auto model = session.Finalize();
    AD_CHECK_OK(model.status());
    delta_ms = watch.ElapsedSeconds() * 1e3;
    AD_CHECK_OK(model->Save(delta_path));
  }

  const double speedup = full_ms / delta_ms;
  const bool models_identical =
      ReadFileBytes(full_path) == ReadFileBytes(delta_path);

  std::printf("full retrain:  %9.1f ms (%zu columns)\n", full_ms, kNewColumns);
  std::printf("delta retrain: %9.1f ms (%zu new columns folded in)\n",
              delta_ms, kNewColumns - kOldColumns);
  std::printf("speedup: %7.2fx\n", speedup);
  std::printf("models_identical: %s\n", models_identical ? "true" : "false");

  FILE* f = std::fopen(out_path.c_str(), "w");
  AD_CHECK(f != nullptr) << "cannot write " << out_path;
  std::fprintf(f,
               "{\n"
               "  \"old_columns\": %zu,\n"
               "  \"new_columns\": %zu,\n"
               "  \"full_retrain_ms\": %.1f,\n"
               "  \"delta_retrain_ms\": %.1f,\n"
               "  \"speedup\": %.2f,\n"
               "  \"min_speedup\": %.1f,\n"
               "  \"models_identical\": %s\n"
               "}\n",
               kOldColumns, kNewColumns, full_ms, delta_ms, speedup,
               kMinSpeedup, models_identical ? "true" : "false");
  std::fclose(f);

  std::filesystem::remove(base_path);
  std::filesystem::remove(full_path);
  std::filesystem::remove(delta_path);

  if (!models_identical || speedup < kMinSpeedup) {
    std::fprintf(stderr, "FAIL: invariants not met (see %s)\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("ok; wrote %s\n", out_path.c_str());
  return 0;
}
