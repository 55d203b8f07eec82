#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "corpus/column_source.h"
#include "detect/model.h"
#include "stats/stats_builder.h"
#include "train/calibration.h"
#include "train/distant_supervision.h"
#include "train/selection.h"
#include "train/shard.h"

/// \file trainer.h
/// Offline training as a staged session. Statistics building is the only
/// stage that must see every corpus column with every candidate language,
/// so it is split out as a map/reduce surface over ADSHARD1 artifacts
/// (train/shard.h); supervision + calibration and budget-dependent
/// selection are separate stages that can re-run against adopted
/// statistics. The stages:
///
///   map      TrainSession::BuildShard(partition)      one worker per slice
///   reduce   MergeShards / MergeShardFiles            any order, same bits
///   adopt    session.UseStats(shard)                  or BuildStats(source)
///            session.AddShards(new_shards)            delta refresh
///   finalize session.Supervise(source)                supervision+calibration
///            session.Finalize(budget, sketch...)      selection -> Model
///
/// `TrainModel` remains as the thin one-shot adapter over the same stages.
/// Determinism contract: a model finalized from N merged shards is
/// byte-identical to the one-shot model, for any shard order. The session
/// keeps exact counts as sorted LanguageStats from build to freeze;
/// calibration reads them by merge-join, selection by entry counts, and
/// Finalize freezes (Freeze, stats/frozen_stats.h) only each selected
/// language into the FrozenStats a model serves, writing the canonical
/// probe tables — or the sketch — straight from the sorted entries. Every
/// stage is therefore a pure function of the counts and the column stream.
/// Re-selection under new budgets or sketch ratios re-runs only Finalize on
/// the same session, so ablation benches never re-scan the corpus (paper
/// Figs. 7 and 8a).

namespace autodetect {

struct TrainOptions {
  /// Precision requirement P of Definition 5.
  double precision_target = 0.95;
  /// Memory budget M for the selected languages' statistics.
  size_t memory_budget_bytes = 200ull << 20;
  /// Jelinek-Mercer smoothing factor f (Eq. 10).
  double smoothing_factor = 0.1;
  /// Co-occurrence compression: 1.0 keeps exact dictionaries; r < 1
  /// replaces each selected language's dictionary with a count-min sketch
  /// of r times the size (Sec. 3.4).
  double sketch_ratio = 1.0;
  /// Human-readable provenance stored in the model.
  std::string corpus_name = "corpus";

  StatsBuilderOptions stats;
  DistantSupervisionOptions supervision;
  CalibrationOptions calibration;  ///< precision_target/smoothing overridden
  size_t num_threads = 0;
};

/// \brief A staged training run. Construct with options, feed it statistics
/// (built in-process or adopted from shards), run supervision, finalize
/// into as many models as needed.
class TrainSession {
 public:
  TrainSession() = default;
  explicit TrainSession(TrainOptions options);

  /// \brief The map stage: streams `partition` once and returns a
  /// statistics shard for it. Stateless — workers call this independently
  /// and persist the result via WriteShard. `provenance`
  /// records which column slice of which corpus this is; MergeShards
  /// enforces compatibility from it.
  static Result<StatsShard> BuildShard(ColumnSource* partition,
                                       const TrainOptions& options,
                                       ShardProvenance provenance);

  /// \brief One-shot statistics: streams `source` (after Reset) through
  /// BuildCorpusStats and adopts the result. Equivalent to BuildShard over
  /// the whole corpus + UseStats.
  Status BuildStats(ColumnSource* source);

  /// \brief Adopts previously built statistics (typically the output of
  /// MergeShards / MergeShardFiles). Rejects a shard whose options digest
  /// does not match this session's statistics options — counts built under
  /// different options are incomparable. Invalidates any prior supervision.
  Status UseStats(StatsShard shard);

  /// \brief The delta path: folds new shards into the adopted statistics
  /// (a sorted merge per language, LanguageStats::Merge, in parallel). The
  /// session plus the new shards must pass CheckMergeable — the combined
  /// ranges must tile one contiguous range — and a refused set changes
  /// nothing. Supervision must be re-run afterwards; the statistics
  /// pass over the OLD columns is what this saves.
  Status AddShards(std::vector<StatsShard> shards);

  /// \brief Distant supervision + per-language calibration against the
  /// adopted statistics. `source` must stream the FULL corpus the
  /// statistics cover (it is Reset first). Distant supervision probes the
  /// crude-G language frozen; calibration pre-keys the training set once
  /// under every candidate (PreKeyedTrainingSet), reads counts by
  /// merge-join and calibrates candidates in parallel.
  Status Supervise(ColumnSource* source);

  /// \brief Selects languages under `memory_budget_bytes`/`sketch_ratio`
  /// (overriding the option defaults) and assembles a Model. Candidates are
  /// priced at their exact frozen bytes; each chosen language is frozen
  /// (Freeze, the freeze point), exactly or — when the ratio shrinks it — as
  /// a sketch.
  Result<Model> Finalize(size_t memory_budget_bytes, double sketch_ratio) const;
  Result<Model> Finalize() const;

  /// \brief Re-runs only the calibration stage with a different smoothing
  /// factor, in place (stats and training set are reused, not copied — the
  /// full 144-language statistics store is too large to duplicate). Used by
  /// the smoothing ablation (paper Fig. 17a): calibration thresholds depend
  /// on f, so a fair sweep recalibrates rather than just re-scoring.
  void RecalibrateInPlace(double smoothing_factor);

  bool has_stats() const { return has_stats_; }
  bool supervised() const { return supervised_; }

  const TrainOptions& options() const { return options_; }
  const CorpusStats& stats() const { return shard_.stats; }
  const ShardProvenance& provenance() const { return shard_.provenance; }
  const TrainingSet& training_set() const { return training_set_; }
  const std::vector<int>& lang_ids() const { return lang_ids_; }
  const std::vector<CalibrationResult>& calibrations() const { return calibrations_; }
  uint64_t corpus_columns() const { return corpus_columns_; }

 private:
  /// Post-adoption bookkeeping shared by BuildStats/UseStats/AddShards.
  Status AdoptStats();

  TrainOptions options_;
  /// The adopted statistics as one shard: counts, the provenance they cover
  /// and this session's options digest (what AddShards checks deltas
  /// against).
  StatsShard shard_;
  TrainingSet training_set_;
  std::vector<int> lang_ids_;  ///< calibrated candidates, aligned with below
  std::vector<CalibrationResult> calibrations_;
  uint64_t corpus_columns_ = 0;
  bool has_stats_ = false;
  bool supervised_ = false;
};

/// \brief One-call convenience over the staged session: BuildStats +
/// Supervise + Finalize with the options' budget and sketch ratio.
Result<Model> TrainModel(ColumnSource* source, const TrainOptions& options);

}  // namespace autodetect
