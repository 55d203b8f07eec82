/// \file bench_ablation_dt_vs_st.cpp
/// Extension ablation (beyond the paper's figures): dynamic-threshold (DT)
/// aggregation — Definition 4, which the paper proves NP-hard and does not
/// implement — solved with a greedy heuristic, against the paper's
/// static-threshold (ST) formulation. Reported: training-set coverage at
/// equal budget/precision, and end-to-end Precision@K on an Ent-XLS splice
/// set. Expected: DT can cover slightly more of T− by tuning per-language
/// thresholds jointly, but carries no approximation guarantee.

#include "bench_util.h"
#include "train/calibration.h"
#include "train/selection.h"

using namespace autodetect;
using namespace autodetect::benchutil;

int main() {
  SetLogLevel(LogLevel::kWarning);
  HarnessConfig config = StandardConfig();

  GeneratorOptions gen;
  gen.profile = config.train_profile;
  gen.num_columns = config.train_columns;
  gen.inject_errors = false;
  gen.seed = config.train_seed;
  GeneratedColumnSource source(gen);
  TrainOptions train = config.train;
  train.corpus_name = "WEB-synthetic";
  TrainSession pipeline(train);
  AD_CHECK_OK(pipeline.BuildStats(&source));
  AD_CHECK_OK(pipeline.Supervise(&source));

  const size_t budget = 4ull << 20;

  // ST: the paper's Algorithm 1 via the standard pipeline.
  auto st_model = pipeline.Finalize(budget, 1.0);
  AD_CHECK_OK(st_model.status());
  size_t st_coverage = 0;
  for (const auto& l : st_model->languages) st_coverage += l.train_coverage;

  // DT: greedy joint (language, threshold) selection on the same scores.
  const auto& train_set = pipeline.training_set();
  const auto& all_langs = LanguageSpace::All();
  std::vector<DtSelectionInput> inputs;
  for (size_t i = 0; i < pipeline.lang_ids().size(); ++i) {
    int id = pipeline.lang_ids()[i];
    std::vector<double> scores = ScoreTrainingSet(
        all_langs[static_cast<size_t>(id)], pipeline.stats().ForLanguage(id),
        train_set, train.smoothing_factor);
    DtSelectionInput in;
    in.lang_id = id;
    in.size_bytes = pipeline.stats().ForLanguage(id).MemoryBytes();
    in.positive_scores.assign(scores.begin(),
                              scores.begin() + static_cast<long>(train_set.positives.size()));
    in.negative_scores.assign(scores.begin() + static_cast<long>(train_set.positives.size()),
                              scores.end());
    inputs.push_back(std::move(in));
  }
  DtSelectionOptions dt_opts;
  dt_opts.memory_budget_bytes = budget;
  dt_opts.precision_target = train.precision_target;
  DtSelectionResult dt = SelectLanguagesDT(inputs, dt_opts);

  std::printf("== Ablation: DT (Definition 4, greedy) vs ST (Algorithm 1) ==\n");
  std::printf("budget %s, precision target %.2f, |T-| = %zu\n\n",
              HumanBytes(budget).c_str(), train.precision_target,
              train_set.negatives.size());
  std::printf("%-4s languages=%zu  bytes=%-10s union-coverage=%zu\n", "ST",
              st_model->languages.size(),
              HumanBytes(st_model->MemoryBytes()).c_str(),
              /* union coverage from selection = */
              static_cast<size_t>(0) + [&] {
                DynamicBitset acc(train_set.negatives.size());
                for (size_t i = 0; i < pipeline.lang_ids().size(); ++i) {
                  for (const auto& l : st_model->languages) {
                    if (pipeline.lang_ids()[i] == l.lang_id) {
                      acc.UnionWith(pipeline.calibrations()[i].covered_negatives);
                    }
                  }
                }
                return acc.Popcount();
              }());
  std::printf("%-4s languages=%zu  bytes=%-10s union-coverage=%zu  precision=%.3f\n",
              "DT", dt.selected.size(), HumanBytes(dt.total_bytes).c_str(),
              dt.covered_negatives, dt.precision);

  // End-to-end: assemble a model from the DT selection and evaluate both.
  Model dt_model;
  dt_model.smoothing_factor = train.smoothing_factor;
  dt_model.precision_target = train.precision_target;
  dt_model.corpus_name = "WEB-synthetic (DT)";
  dt_model.trained_columns = pipeline.corpus_columns();
  for (const auto& [lang_id, theta] : dt.selected) {
    for (size_t i = 0; i < pipeline.lang_ids().size(); ++i) {
      if (pipeline.lang_ids()[i] != lang_id) continue;
      ModelLanguage ml;
      ml.lang_id = lang_id;
      ml.threshold = theta;
      ml.train_coverage = pipeline.calibrations()[i].covered_count;
      ml.curve = pipeline.calibrations()[i].curve;
      ml.stats = Freeze(pipeline.stats().ForLanguage(lang_id));
      dt_model.languages.push_back(std::move(ml));
    }
  }
  if (dt_model.languages.empty()) {
    std::printf("\nDT selected nothing; skipping end-to-end comparison\n");
    return 0;
  }

  auto cases = SpliceSet(config, CorpusProfile::EntXls(), 400, 5, 4242);
  Detector st_detector(&*st_model);
  Detector dt_detector(&dt_model);
  AutoDetectMethod st_method(&st_detector, "ST (paper)");
  AutoDetectMethod dt_method(&dt_detector, "DT (greedy)");
  std::printf("\n");
  RunAndPrint({&st_method, &dt_method}, cases, "Ent-XLS 1:5", StandardKs());
  return 0;
}
