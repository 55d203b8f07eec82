#include "detect/trainer.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace autodetect {

namespace {

/// Counter bytes the co-occurrence store will actually occupy under the
/// sketch ratio: the exact dictionary when compression is off, otherwise
/// the power-of-two-width sketch CountMinSketch::FromMemoryBudget will
/// allocate — unless that sketch would not shrink the table, in which case
/// the language stays exact (sketching a tiny dictionary only loses
/// accuracy). A sketch must beat the exact dictionary on BOTH resident
/// counters and frozen-blob bytes (header + plane padding included) or the
/// language stays exact.
size_t PlannedCoBytes(size_t co_bytes, double ratio) {
  if (ratio >= 1.0) return co_bytes;
  const size_t target = std::max<size_t>(
      64, static_cast<size_t>(static_cast<double>(co_bytes) * ratio));
  size_t width = CountMinSketch::WidthForBudget(target, SketchSpec::kDepth);
  size_t planned = width * SketchSpec::kDepth * sizeof(uint32_t);
  if (planned >= co_bytes ||
      CountMinSketch::FrozenBytes(width, SketchSpec::kDepth) >= co_bytes) {
    return co_bytes;
  }
  return planned;
}

/// True when the ratio calls for compressing this language (the planned
/// sketch is strictly smaller than the exact dictionary).
bool ShouldSketch(const LanguageStats& stats, double ratio) {
  size_t co_bytes = stats.CoMemoryBytes();
  return PlannedCoBytes(co_bytes, ratio) < co_bytes;
}

}  // namespace

TrainSession::TrainSession(TrainOptions options) : options_(std::move(options)) {
  options_.calibration.precision_target = options_.precision_target;
  options_.calibration.smoothing_factor = options_.smoothing_factor;
  // options_.supervision.smoothing_factor is intentionally NOT tied to the
  // detection smoothing factor — distant supervision prunes with unsmoothed
  // crude-G NPMI (see DistantSupervisionOptions::smoothing_factor).
}

Result<StatsShard> TrainSession::BuildShard(ColumnSource* partition,
                                            const TrainOptions& options,
                                            ShardProvenance provenance) {
  MetricsRegistry* registry = OrDefaultRegistry(options.stats.metrics);
  StatsShard shard;
  {
    TraceSpan span(registry, "train.stage.stats_build_us");
    partition->Reset();
    shard.stats = BuildCorpusStats(partition, options.stats);
  }
  shard.options_digest = StatsOptionsDigest(options.stats);
  shard.provenance = std::move(provenance);

  const std::vector<int> ids = shard.stats.LanguageIds();
  AD_CHECK(!ids.empty());
  const uint64_t ingested = shard.stats.ForLanguage(ids[0]).num_columns();
  if (ingested == 0) return Status::Invalid("shard partition is empty");
  if (shard.provenance.column_end == shard.provenance.column_begin) {
    shard.provenance.column_end = shard.provenance.column_begin + ingested;
  }
  if (shard.provenance.num_columns() != ingested) {
    return Status::Invalid(StrFormat(
        "shard provenance declares %llu columns but the partition yielded %llu",
        static_cast<unsigned long long>(shard.provenance.num_columns()),
        static_cast<unsigned long long>(ingested)));
  }
  if (shard.provenance.total_columns < shard.provenance.column_end) {
    shard.provenance.total_columns = shard.provenance.column_end;
  }
  return shard;
}

Status TrainSession::AdoptStats() {
  std::vector<int> candidate_ids = shard_.stats.LanguageIds();
  AD_CHECK(!candidate_ids.empty());
  corpus_columns_ = shard_.stats.ForLanguage(candidate_ids[0]).num_columns();
  if (corpus_columns_ == 0) {
    return Status::Invalid("training corpus is empty");
  }
  has_stats_ = true;
  // Any prior supervision calibrated against the old counts.
  supervised_ = false;
  training_set_ = TrainingSet{};
  lang_ids_.clear();
  calibrations_.clear();
  return Status::OK();
}

Status TrainSession::BuildStats(ColumnSource* source) {
  MetricsRegistry* registry = OrDefaultRegistry(options_.stats.metrics);
  {
    TraceSpan span(registry, "train.stage.stats_build_us");
    source->Reset();
    shard_.stats = BuildCorpusStats(source, options_.stats);
  }
  shard_.options_digest = StatsOptionsDigest(options_.stats);
  AD_RETURN_NOT_OK(AdoptStats());
  shard_.provenance = ShardProvenance{};
  shard_.provenance.corpus_name = options_.corpus_name;
  shard_.provenance.total_columns = corpus_columns_;
  shard_.provenance.column_end = corpus_columns_;
  return Status::OK();
}

Status TrainSession::UseStats(StatsShard shard) {
  const uint64_t expected = StatsOptionsDigest(options_.stats);
  if (shard.options_digest != 0 && shard.options_digest != expected) {
    return Status::Invalid(StrFormat(
        "statistics were built under different options than this session's "
        "(digest %016llx, session %016llx)",
        static_cast<unsigned long long>(shard.options_digest),
        static_cast<unsigned long long>(expected)));
  }
  shard_ = std::move(shard);
  shard_.options_digest = expected;
  return AdoptStats();
}

Status TrainSession::AddShards(std::vector<StatsShard> shards) {
  if (!has_stats_) {
    return Status::Invalid("AddShards needs adopted statistics (UseStats/BuildStats)");
  }
  std::vector<const StatsShard*> all = {&shard_};
  for (const StatsShard& s : shards) all.push_back(&s);
  AD_ASSIGN_OR_RETURN(ShardProvenance provenance, CheckMergeable(std::move(all)));

  // Validated before any count moves. Fold each delta into the session's
  // sorted entry arrays with a sorted merge: counts are additive and the
  // result is the same sorted form, so the fold order cannot reach the
  // model bytes.
  const std::vector<int> ids = shard_.stats.LanguageIds();
  ThreadPool::ParallelFor(ids.size(), options_.num_threads, [&](size_t li) {
    LanguageStats& dst = shard_.stats.MutableForLanguage(ids[li]);
    for (const StatsShard& s : shards) dst.Merge(s.stats.ForLanguage(ids[li]));
  });
  shard_.provenance = std::move(provenance);
  return AdoptStats();
}

Status TrainSession::Supervise(ColumnSource* source) {
  if (!has_stats_) {
    return Status::Invalid("Supervise needs adopted statistics (UseStats/BuildStats)");
  }
  MetricsRegistry* registry = OrDefaultRegistry(options_.stats.metrics);

  // Distant supervision probes crude-G statistics pair by pair, so it gets
  // that one language frozen. If crude G was not among the candidates,
  // build it on a dedicated pass.
  int crude_id = LanguageSpace::IdOf(LanguageSpace::CrudeG());
  {
    TraceSpan span(registry, "train.stage.supervision_us");
    FrozenStats crude_stats;
    if (shard_.stats.Has(crude_id)) {
      crude_stats = Freeze(shard_.stats.ForLanguage(crude_id));
    } else {
      StatsBuilderOptions crude_opts = options_.stats;
      crude_opts.language_ids = {crude_id};
      source->Reset();
      crude_stats = Freeze(BuildCorpusStats(source, crude_opts).ForLanguage(crude_id));
    }
    source->Reset();
    AD_ASSIGN_OR_RETURN(
        training_set_,
        GenerateTrainingSet(source, crude_stats, options_.supervision));
  }

  // Calibrate every candidate (parallel). The training set is pre-keyed
  // once under every candidate language via the shared-tokenization kernel;
  // per-language workers then score from keys alone instead of
  // re-generalizing every pair 144 times, reading counts by merge-join
  // against the sorted statistics (no probe arrays are built).
  lang_ids_ = shard_.stats.LanguageIds();
  calibrations_.assign(lang_ids_.size(), CalibrationResult{});
  {
    TraceSpan span(registry, "train.stage.calibration_us");
    PreKeyedTrainingSet prekeyed(training_set_, lang_ids_,
                                 options_.stats.generalize_options);
    ThreadPool::ParallelFor(lang_ids_.size(), options_.num_threads, [&](size_t i) {
      calibrations_[i] = CalibrateLanguage(i, shard_.stats.ForLanguage(lang_ids_[i]),
                                           prekeyed, options_.calibration);
    });
  }
  supervised_ = true;
  return Status::OK();
}

Result<Model> TrainSession::Finalize(size_t memory_budget_bytes,
                                     double sketch_ratio) const {
  if (!supervised_) {
    return Status::Invalid("Finalize needs supervision (run Supervise first)");
  }
  if (sketch_ratio <= 0.0 || sketch_ratio > 1.0) {
    return Status::Invalid("sketch_ratio must be in (0, 1]");
  }

  // Assemble selection candidates from usable calibrations. Candidates are
  // priced at their EXACT frozen bytes (LanguageStats::MemoryBytes, a
  // function of the entry count: what Freeze will lay out) even
  // when sketch knobs are on: sketching is an artifact-compression step
  // applied to the chosen ensemble, not a discount that lets the knapsack
  // trade estimator accuracy for extra languages. Pricing at sketched bytes
  // would make the selected language set a function of the compression
  // knob, so an exact model and its sketched sibling would no longer be
  // comparable (and the extra languages' sketch blobs routinely cost more
  // than the compression saves). Fixed ensemble, shrinking bytes — the
  // shape of the paper's Fig. 8(a) experiment.
  std::vector<LanguageCandidate> candidates;
  std::vector<size_t> candidate_to_session;
  for (size_t i = 0; i < lang_ids_.size(); ++i) {
    const CalibrationResult& cal = calibrations_[i];
    if (!cal.has_threshold || cal.covered_count == 0) continue;
    LanguageCandidate c;
    c.lang_id = lang_ids_[i];
    c.size_bytes = shard_.stats.ForLanguage(lang_ids_[i]).MemoryBytes();
    c.covered = cal.covered_negatives;
    candidates.push_back(std::move(c));
    candidate_to_session.push_back(i);
  }
  if (candidates.empty()) {
    return Status::Invalid(
        "no language meets the precision target on the training set");
  }

  SelectionResult selection = SelectLanguagesGreedy(candidates, memory_budget_bytes);
  if (selection.selected.empty()) {
    return Status::CapacityExceeded(
        "memory budget too small for any calibrated language");
  }

  Model model;
  model.smoothing_factor = options_.smoothing_factor;
  model.precision_target = options_.precision_target;
  model.corpus_name = options_.corpus_name;
  model.trained_columns = corpus_columns_;

  for (size_t pick : selection.selected) {
    size_t pi = candidate_to_session[pick];
    const CalibrationResult& cal = calibrations_[pi];
    ModelLanguage ml;
    ml.lang_id = lang_ids_[pi];
    ml.threshold = cal.threshold;
    ml.train_coverage = cal.covered_count;
    ml.curve = cal.curve;
    // The freeze point: Freeze writes the canonical probe tables straight
    // from the session's sorted entry arrays, so the frozen bytes — and the
    // order conservative-update sketching reads the counts in — are a pure
    // function of the counts.
    const LanguageStats& stats = shard_.stats.ForLanguage(ml.lang_id);
    if (ShouldSketch(stats, sketch_ratio)) {
      const uint64_t seed = 0xadde7ec7 + static_cast<uint64_t>(ml.lang_id);
      AD_ASSIGN_OR_RETURN(ml.stats, Freeze(stats, SketchSpec{sketch_ratio, seed}));
    } else {
      ml.stats = Freeze(stats);
    }
    model.languages.push_back(std::move(ml));
  }

  // Highest training coverage first: languages[0] is the BestOne baseline.
  std::sort(model.languages.begin(), model.languages.end(),
            [](const ModelLanguage& a, const ModelLanguage& b) {
              return a.train_coverage > b.train_coverage;
            });

  AD_LOG(Info) << "built model:\n" << model.Summary();
  return model;
}

Result<Model> TrainSession::Finalize() const {
  return Finalize(options_.memory_budget_bytes, options_.sketch_ratio);
}

void TrainSession::RecalibrateInPlace(double smoothing_factor) {
  options_.smoothing_factor = smoothing_factor;
  options_.calibration.smoothing_factor = smoothing_factor;
  PreKeyedTrainingSet prekeyed(training_set_, lang_ids_,
                               options_.stats.generalize_options);
  ThreadPool::ParallelFor(lang_ids_.size(), options_.num_threads, [&](size_t i) {
    calibrations_[i] = CalibrateLanguage(i, shard_.stats.ForLanguage(lang_ids_[i]),
                                         prekeyed, options_.calibration);
  });
}

Result<Model> TrainModel(ColumnSource* source, const TrainOptions& options) {
  TrainSession session(options);
  AD_RETURN_NOT_OK(session.BuildStats(source));
  AD_RETURN_NOT_OK(session.Supervise(source));
  return session.Finalize();
}

}  // namespace autodetect
