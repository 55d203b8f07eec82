#include "eval/testcase.h"

#include <algorithm>

#include "common/logging.h"
#include "common/random.h"
#include "stats/npmi.h"
#include "stats/stats_builder.h"
#include "text/language.h"
#include "text/pattern.h"

namespace autodetect {

Result<std::vector<TestCase>> GenerateSpliceTestSet(ColumnSource* source,
                                                    const FrozenStats& crude_stats,
                                                    const SpliceTestOptions& options) {
  if (options.num_dirty == 0) return Status::Invalid("num_dirty must be positive");
  const GeneralizationLanguage crude = LanguageSpace::CrudeG();
  NpmiScorer scorer(&crude_stats, /*smoothing=*/0.0);
  Pcg32 rng(options.seed);

  // Collect host columns and donor values from the stream.
  struct Host {
    std::vector<std::string> values;
    std::vector<uint64_t> keys;
    std::string domain;
  };
  std::vector<Host> hosts;
  std::vector<std::pair<std::string, uint64_t>> donors;  // value + crude key

  const size_t want_hosts =
      options.num_dirty * (1 + options.clean_per_dirty) * 2 + 64;
  source->Reset();
  Column column;
  while (source->Next(&column) && hosts.size() < want_hosts) {
    if (column.values.size() < 4) continue;
    Host h;
    h.values = column.values;
    if (h.values.size() > options.max_column_values) {
      h.values.resize(options.max_column_values);
    }
    h.domain = column.domain;
    h.keys.reserve(h.values.size());
    for (const auto& v : h.values) h.keys.push_back(GeneralizeToKey(v, crude));
    if (hosts.size() % 3 == 0) {
      const std::string& dv = h.values[rng.Below(static_cast<uint32_t>(h.values.size()))];
      donors.emplace_back(dv, GeneralizeToKey(dv, crude));
    }
    hosts.push_back(std::move(h));
  }
  if (hosts.size() < 16 || donors.size() < 8) {
    return Status::Invalid("not enough columns in source for a test set");
  }

  std::vector<TestCase> cases;
  cases.reserve(options.num_dirty * (1 + options.clean_per_dirty));

  // Dirty cases: splice a verified-incompatible donor into a host.
  size_t attempts = 0;
  const size_t max_attempts = options.num_dirty * 200 + 1000;
  size_t made_dirty = 0;
  size_t host_cursor = 0;
  while (made_dirty < options.num_dirty && attempts++ < max_attempts) {
    const Host& host = hosts[host_cursor++ % hosts.size()];
    const auto& [donor_value, donor_key] = donors[rng.Below(static_cast<uint32_t>(donors.size()))];
    // Verify incompatibility with every host value (paper: "manually design
    // and tune a compatibility score to make sure vd is indeed inconsistent
    // with C2").
    bool incompatible = true;
    for (uint64_t hk : host.keys) {
      if (scorer.Score(donor_key, hk) > options.incompatible_threshold) {
        incompatible = false;
        break;
      }
    }
    if (!incompatible) continue;

    TestCase tc;
    tc.values = host.values;
    uint32_t pos = rng.Below(static_cast<uint32_t>(tc.values.size() + 1));
    tc.values.insert(tc.values.begin() + pos, donor_value);
    tc.dirty = true;
    tc.dirty_index = static_cast<int32_t>(pos);
    tc.dirty_value = donor_value;
    tc.error_class = ErrorClass::kForeignValue;
    tc.domain = host.domain;
    cases.push_back(std::move(tc));
    ++made_dirty;
  }
  if (made_dirty < options.num_dirty) {
    AD_LOG(Warning) << "splice test set: wanted " << options.num_dirty
                    << " dirty cases, made " << made_dirty;
    if (made_dirty == 0) return Status::Internal("no dirty test case generated");
  }

  // Clean cases: host columns as-is.
  size_t want_clean = made_dirty * options.clean_per_dirty;
  for (size_t i = 0; i < want_clean && host_cursor + i < hosts.size(); ++i) {
    const Host& host = hosts[host_cursor + i];
    TestCase tc;
    tc.values = host.values;
    tc.domain = host.domain;
    cases.push_back(std::move(tc));
  }

  // Shuffle so case order carries no signal.
  rng.Shuffle(&cases);
  return cases;
}

std::vector<TestCase> GenerateRealisticTestSet(const CorpusProfile& profile,
                                               const RealisticTestOptions& options) {
  GeneratorOptions gen;
  gen.profile = profile;
  gen.profile.dirty_rate = 0.0;
  gen.num_columns = (options.num_dirty + options.num_clean) * 2 + 64;
  gen.inject_errors = false;
  gen.seed = options.seed;
  GeneratedColumnSource source(gen);

  ErrorInjector injector;
  Pcg32 rng(options.seed ^ 0x5eed);

  std::vector<TestCase> cases;
  std::vector<std::string> foreign_pool;
  size_t dirty_made = 0, clean_made = 0;
  Column column;
  while (source.Next(&column) &&
         (dirty_made < options.num_dirty || clean_made < options.num_clean)) {
    if (column.values.size() < 4) continue;
    for (const auto& v : column.values) {
      if (foreign_pool.size() < 256) foreign_pool.push_back(v);
    }
    bool want_dirty = dirty_made < options.num_dirty &&
                      (clean_made >= options.num_clean || rng.Chance(0.4));
    TestCase tc;
    if (want_dirty) {
      Column mutated = column;
      if (!injector.Inject(&mutated, foreign_pool, &rng)) continue;
      tc.values = mutated.values;
      tc.dirty = true;
      tc.dirty_index = mutated.dirty_index;
      tc.dirty_value = mutated.dirty_value();
      tc.error_class = mutated.error_class;
      tc.domain = mutated.domain;
      ++dirty_made;
    } else {
      if (clean_made >= options.num_clean) continue;
      tc.values = column.values;
      tc.domain = column.domain;
      ++clean_made;
    }
    cases.push_back(std::move(tc));
  }
  rng.Shuffle(&cases);
  return cases;
}

}  // namespace autodetect
