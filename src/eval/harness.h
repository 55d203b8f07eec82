#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/autodetect_method.h"
#include "baselines/baseline.h"
#include "common/result.h"
#include "corpus/corpus_generator.h"
#include "detect/detector.h"
#include "detect/trainer.h"
#include "eval/testcase.h"
#include "serve/detection_engine.h"

/// \file harness.h
/// Shared plumbing for benches and examples: train-or-load cached models
/// (training a 144-language pipeline takes ~a minute, and every bench binary
/// is its own process), cached crude-G statistics for test generation, and
/// the standard method line-ups of the paper's figures.

namespace autodetect {

struct HarnessConfig {
  size_t train_columns = 30000;
  CorpusProfile train_profile = CorpusProfile::Web();
  uint64_t train_seed = 20180610;
  TrainOptions train;
  std::string cache_dir = "bench_cache";
};

/// \brief Returns the standard trained model, training it once and caching
/// the result under `config.cache_dir` keyed by profile/size/budget.
Result<Model> TrainOrLoadModel(const HarnessConfig& config);

/// \brief Crude-G statistics over the same training corpus (needed by
/// splice-test generation), cached alongside the model as serialized
/// training statistics and frozen on return.
Result<FrozenStats> BuildOrLoadCrudeStats(const HarnessConfig& config);

/// \brief Shapes a test set into a unified-API batch (one request per case,
/// named "case<i>/<domain>", tagged with the domain); the runtime benches
/// feed the serving layer with exactly the columns the accuracy benches
/// score.
std::vector<DetectRequest> RequestsFromCases(const std::vector<TestCase>& cases);

/// \brief A set of comparison methods with shared ownership semantics.
class MethodSet {
 public:
  /// All 12 methods of Fig. 4: Auto-Detect + 10 baselines + Union.
  static MethodSet All(const Detector* detector);
  /// The 7 best performers reported in Figs. 5/6.
  static MethodSet Top7(const Detector* detector);

  const std::vector<const ErrorDetectorMethod*>& methods() const { return views_; }

 private:
  std::vector<std::unique_ptr<ErrorDetectorMethod>> owned_;
  std::vector<const ErrorDetectorMethod*> views_;
};

}  // namespace autodetect
