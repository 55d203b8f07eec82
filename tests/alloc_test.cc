// Heap-allocation counts of a warm column scan. This binary replaces the
// global operator new, so every allocation in the process is counted; a
// test reads the count around one Detector::Detect call made with a
// caller-owned ColumnScratch that earlier scans have already grown. A column
// with no findings must allocate nothing; a flagged column may allocate only
// for the findings it reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "detect/detector.h"
#include "detect/model.h"
#include "text/language.h"
#include "text/pattern.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace autodetect {
namespace {

/// A three-language model whose statistics come from homogeneous columns of
/// dates, integers and decimals: values of one shape are compatible, values
/// of different shapes never co-occur.
Model MakeModel() {
  std::vector<std::vector<std::string>> corpus;
  for (int c = 0; c < 48; ++c) {
    std::vector<std::string> column;
    for (int r = 0; r < 6; ++r) {
      switch (c % 3) {
        case 0:
          column.push_back("201" + std::to_string(r) + "-0" + std::to_string(c % 9 + 1) +
                           "-11");
          break;
        case 1:
          column.push_back(std::to_string(100 * c + r));
          break;
        default:
          column.push_back(std::to_string(r) + "." + std::to_string(c % 10));
          break;
      }
    }
    corpus.push_back(std::move(column));
  }
  Model model;
  for (int lang_id : {5, 48, 140}) {
    const GeneralizationLanguage& lang = LanguageSpace::All()[static_cast<size_t>(lang_id)];
    ModelLanguage ml;
    ml.lang_id = lang_id;
    ml.threshold = -0.2;
    ml.train_coverage = 100;
    ml.curve = PrecisionCurve({{-1.0, 0.95}, {-0.2, 0.7}, {0.5, 0.3}, {1.0, 0.1}});
    LanguageStats counts;
    for (const auto& column : corpus) {
      std::vector<uint64_t> keys;
      for (const auto& v : column) keys.push_back(GeneralizeToKey(v, lang));
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      counts.AddColumn(keys);
    }
    ml.stats = Freeze(counts);
    model.languages.push_back(std::move(ml));
  }
  return model;
}

/// 240 rows over 40 distinct dates of one shape, repeated.
std::vector<std::string> DateColumn() {
  std::vector<std::string> values;
  for (int r = 0; r < 240; ++r) {
    const int k = (r * 7) % 40;
    values.push_back("20" + std::to_string(10 + k % 10) + "-0" + std::to_string(1 + k / 10) +
                     "-1" + std::to_string(k % 10));
  }
  return values;
}

/// Allocations made by one Detect call on `request`.
uint64_t AllocationsOf(const Detector& detector, const DetectRequest& request,
                       ColumnScratch* scratch, DetectReport* report) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  *report = detector.Detect(request, scratch);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocTest, WarmScanOfACleanColumnAllocatesNothing) {
  Model model = MakeModel();
  Detector detector(&model);
  ColumnScratch scratch;
  // No deadline, empty tag, no tenant: the plain serving shape.
  const DetectRequest request{"dates", DateColumn()};
  DetectReport report;
  for (int warm = 0; warm < 2; ++warm) AllocationsOf(detector, request, &scratch, &report);
  EXPECT_EQ(AllocationsOf(detector, request, &scratch, &report), 0u);
  EXPECT_EQ(report.column.distinct_values, 40u);
  EXPECT_TRUE(report.column.pairs.empty());
  EXPECT_TRUE(report.column.cells.empty());
}

TEST(AllocTest, WarmScanOfAFlaggedColumnAllocatesOnlyForItsFindings) {
  Model model = MakeModel();
  Detector detector(&model);
  ColumnScratch scratch;
  std::vector<std::string> values = DateColumn();
  values.push_back("2011/01/06");  // one value of a shape no date column holds
  const DetectRequest request{"dates", values};
  DetectReport report;
  for (int warm = 0; warm < 2; ++warm) AllocationsOf(detector, request, &scratch, &report);
  const uint64_t allocations = AllocationsOf(detector, request, &scratch, &report);
  // The odd value clashes with each of the 40 dates. Every value fits the
  // short-string buffer, so the findings allocate only as their vectors
  // grow: 1, 2, 4, ..., 64 slots for 40 pair findings (7 allocations),
  // and one for the single cell finding.
  ASSERT_EQ(report.column.cells.size(), 1u);
  EXPECT_EQ(report.column.cells[0].value, "2011/01/06");
  EXPECT_EQ(report.column.cells[0].incompatible_with, 40u);
  EXPECT_EQ(report.column.pairs.size(), detector.options().max_pair_findings);
  EXPECT_LE(allocations, 8u);
}

}  // namespace
}  // namespace autodetect
