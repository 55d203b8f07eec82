/// \file bench_fig17b_npmi_cdf.cpp
/// Reproduces paper Fig. 17(b): the CDF of NPMI scores produced by two
/// generalization languages over the training pairs. Paper shape: ~60% of
/// pairs score exactly 1.0 (identical patterns under generalization), the
/// two languages' distributions differ markedly, and raw NPMI values are
/// therefore not directly comparable across languages.

#include "bench_util.h"
#include "stats/npmi.h"
#include "stats/stats_builder.h"
#include "text/pattern.h"
#include "train/calibration.h"
#include "train/distant_supervision.h"

using namespace autodetect;
using namespace autodetect::benchutil;

int main() {
  SetLogLevel(LogLevel::kWarning);
  HarnessConfig config = StandardConfig();

  // Stats for the two example languages of paper Example 2.
  const GeneralizationLanguage l1 = LanguageSpace::PaperL1();
  const GeneralizationLanguage l2 = LanguageSpace::PaperL2();
  const int id1 = LanguageSpace::IdOf(l1);
  const int id2 = LanguageSpace::IdOf(l2);
  const int crude_id = LanguageSpace::IdOf(LanguageSpace::CrudeG());

  GeneratorOptions gen;
  gen.profile = config.train_profile;
  gen.num_columns = config.train_columns;
  gen.inject_errors = false;
  gen.seed = config.train_seed;
  GeneratedColumnSource source(gen);

  StatsBuilderOptions stats_opts;
  stats_opts.language_ids = {id1, id2, crude_id};
  CorpusStats stats = BuildCorpusStats(&source, stats_opts);

  source.Reset();
  DistantSupervisionOptions sup;
  sup.target_positives = 20000;
  sup.target_negatives = 20000;
  // The paper samples T+ uniformly from compatible columns (no diversity
  // boost); most uniform pairs share a pattern, which is what produces the
  // ~60% mass at NPMI = 1.0 in Fig. 17(b).
  sup.diverse_positive_fraction = 0.0;
  auto train_set = GenerateTrainingSet(&source, Freeze(stats.ForLanguage(crude_id)), sup);
  AD_CHECK_OK(train_set.status());

  std::vector<double> s1 = ScoreTrainingSet(l1, stats.ForLanguage(id1), *train_set, 0.1);
  std::vector<double> s2 = ScoreTrainingSet(l2, stats.ForLanguage(id2), *train_set, 0.1);
  std::sort(s1.begin(), s1.end());
  std::sort(s2.begin(), s2.end());

  auto cdf_at = [](const std::vector<double>& sorted, double x) {
    auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
    return static_cast<double>(it - sorted.begin()) /
           static_cast<double>(sorted.size());
  };

  std::printf("== Fig 17(b): NPMI CDF of two languages over training pairs ==\n");
  std::printf("L1 = %s (paper's L1)\nL2 = %s (paper's L2)\n\n",
              l1.Name().c_str(), l2.Name().c_str());
  std::printf("%-8s %-10s %-10s\n", "NPMI", "CDF(L1)", "CDF(L2)");
  for (double x = -1.0; x <= 1.001; x += 0.1) {
    std::printf("%-8.1f %-10.3f %-10.3f\n", x, cdf_at(s1, x), cdf_at(s2, x));
  }
  double at_one_1 = 1.0 - cdf_at(s1, 0.999);
  double at_one_2 = 1.0 - cdf_at(s2, 0.999);
  std::printf("\nfraction of pairs with NPMI ~ 1.0: L1=%.2f, L2=%.2f "
              "(paper: ~0.6 — identical patterns under generalization)\n",
              at_one_1, at_one_2);
  return 0;
}
