#include "eval/harness.h"

#include <filesystem>
#include <fstream>

#include "baselines/cdm.h"
#include "baselines/dboost.h"
#include "baselines/distance_outliers.h"
#include "baselines/fregex.h"
#include "baselines/linear.h"
#include "baselines/lsa.h"
#include "baselines/pwheel.h"
#include "baselines/union_method.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "stats/stats_builder.h"

namespace autodetect {

namespace fs = std::filesystem;

namespace {

std::string ModelCachePath(const HarnessConfig& c) {
  return StrFormat("%s/model_%s_%zu_%llu_p%02d_m%zu.bin", c.cache_dir.c_str(),
                   c.train_profile.name.c_str(), c.train_columns,
                   static_cast<unsigned long long>(c.train_seed),
                   static_cast<int>(c.train.precision_target * 100),
                   c.train.memory_budget_bytes >> 20);
}

std::string CrudeCachePath(const HarnessConfig& c) {
  return StrFormat("%s/crude_%s_%zu_%llu.bin", c.cache_dir.c_str(),
                   c.train_profile.name.c_str(), c.train_columns,
                   static_cast<unsigned long long>(c.train_seed));
}

GeneratedColumnSource MakeTrainingSource(const HarnessConfig& c) {
  GeneratorOptions gen;
  gen.profile = c.train_profile;
  gen.num_columns = c.train_columns;
  gen.inject_errors = false;  // see DESIGN.md: training corpora are clean
  gen.seed = c.train_seed;
  return GeneratedColumnSource(gen);
}

}  // namespace

Result<Model> TrainOrLoadModel(const HarnessConfig& config) {
  std::error_code ec;
  fs::create_directories(config.cache_dir, ec);
  const std::string path = ModelCachePath(config);
  if (fs::exists(path)) {
    auto loaded = Model::Load(path);
    if (loaded.ok()) return loaded;
    AD_LOG(Warning) << "cache " << path << " unreadable, retraining";
  }
  GeneratedColumnSource source = MakeTrainingSource(config);
  TrainOptions train = config.train;
  train.corpus_name = config.train_profile.name + "-synthetic";
  TrainSession session(train);
  AD_RETURN_NOT_OK(session.BuildStats(&source));
  AD_RETURN_NOT_OK(session.Supervise(&source));
  AD_ASSIGN_OR_RETURN(Model model, session.Finalize());
  AD_RETURN_NOT_OK(model.Save(path));
  return model;
}

Result<FrozenStats> BuildOrLoadCrudeStats(const HarnessConfig& config) {
  std::error_code ec;
  fs::create_directories(config.cache_dir, ec);
  const std::string path = CrudeCachePath(config);
  if (fs::exists(path)) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      BinaryReader reader(&in);
      auto loaded = LanguageStats::Deserialize(&reader);
      if (loaded.ok()) return Freeze(*loaded);
    }
    AD_LOG(Warning) << "cache " << path << " unreadable, rebuilding";
  }
  GeneratedColumnSource source = MakeTrainingSource(config);
  StatsBuilderOptions opts;
  opts.language_ids = {LanguageSpace::IdOf(LanguageSpace::CrudeG())};
  CorpusStats stats = BuildCorpusStats(&source, opts);
  const LanguageStats& crude = stats.ForLanguage(opts.language_ids[0]);
  std::ofstream out(path, std::ios::binary);
  if (out) {
    BinaryWriter writer(&out);
    crude.Serialize(&writer);
  }
  return Freeze(crude);  // test-case generation probes it pair by pair
}

std::vector<DetectRequest> RequestsFromCases(const std::vector<TestCase>& cases) {
  std::vector<DetectRequest> requests;
  requests.reserve(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    // The domain doubles as the metrics tag, so per-domain scan counts and
    // latency quantiles fall out of any engine run over an eval set.
    requests.push_back(DetectRequest{
        StrFormat("case%zu/%s", i, cases[i].domain.c_str()), cases[i].values,
        RequestContext{"", cases[i].domain}});
  }
  return requests;
}

MethodSet MethodSet::All(const Detector* detector) {
  MethodSet set;
  set.owned_.push_back(std::make_unique<AutoDetectMethod>(detector));
  set.owned_.push_back(std::make_unique<LinearDetector>());
  set.owned_.push_back(std::make_unique<LinearPDetector>());
  set.owned_.push_back(std::make_unique<FRegexDetector>());
  set.owned_.push_back(std::make_unique<PWheelDetector>());
  set.owned_.push_back(std::make_unique<DBoostDetector>());
  set.owned_.push_back(std::make_unique<CdmDetector>());
  set.owned_.push_back(std::make_unique<LsaDetector>());
  set.owned_.push_back(std::make_unique<SvddDetector>());
  set.owned_.push_back(std::make_unique<DbodDetector>());
  set.owned_.push_back(std::make_unique<LofDetector>());
  for (const auto& m : set.owned_) set.views_.push_back(m.get());
  // Union over the ten baselines (everything but Auto-Detect itself).
  std::vector<const ErrorDetectorMethod*> constituents(set.views_.begin() + 1,
                                                       set.views_.end());
  set.owned_.push_back(std::make_unique<UnionDetector>(std::move(constituents)));
  set.views_.push_back(set.owned_.back().get());
  return set;
}

MethodSet MethodSet::Top7(const Detector* detector) {
  MethodSet set;
  set.owned_.push_back(std::make_unique<AutoDetectMethod>(detector));
  set.owned_.push_back(std::make_unique<FRegexDetector>());
  set.owned_.push_back(std::make_unique<PWheelDetector>());
  set.owned_.push_back(std::make_unique<DBoostDetector>());
  set.owned_.push_back(std::make_unique<SvddDetector>());
  set.owned_.push_back(std::make_unique<DbodDetector>());
  set.owned_.push_back(std::make_unique<LofDetector>());
  for (const auto& m : set.owned_) set.views_.push_back(m.get());
  return set;
}

}  // namespace autodetect
