// Fuzz-style property tests for the total-input surfaces: the tokenizer /
// generalization kernel (any byte string, including NUL bytes, invalid
// UTF-8 and megabyte single runs, must produce keys bit-identical to the
// reference path and never crash) and the CSV reader (round-trips must be
// lossless on quote/CRLF edge cases; arbitrary garbage must parse or fail
// cleanly, never crash). Everything is seeded PCG32 — failures reproduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "detect/detector.h"
#include "detect/model.h"
#include "io/csv.h"
#include "text/pattern.h"
#include "text/run_tokenizer.h"

namespace autodetect {
namespace {

std::vector<int> AllLanguageIds() {
  std::vector<int> ids(LanguageSpace::kNumLanguages);
  for (int i = 0; i < LanguageSpace::kNumLanguages; ++i) ids[i] = i;
  return ids;
}

/// Checks the three key paths agree on `value` for every language.
void ExpectKernelIdentity(const std::string& value, const GeneralizeOptions& options,
                          const MultiGeneralizer& kernel) {
  std::vector<ClassRun> runs;
  uint8_t mask = TokenizeRuns(value, options, &runs);
  std::vector<uint64_t> kernel_keys(kernel.num_languages());
  kernel.KeysFor(RunSpan(runs), mask, kernel_keys.data());
  for (size_t i = 0; i < kernel.num_languages(); ++i) {
    const GeneralizationLanguage& lang = kernel.language(i);
    uint64_t reference = GeneralizeToKey(value, lang, options);
    ASSERT_EQ(kernel_keys[i], reference)
        << "kernel/reference key mismatch, language " << i << ", value size "
        << value.size();
    ASSERT_EQ(GeneralizeRunsToKey(RunSpan(runs), lang, options.collapse_run_lengths),
              reference)
        << "runs/reference key mismatch, language " << i;
  }
}

TEST(TokenizerFuzzTest, RandomBytesIncludingNulNeverCrashAndKeysAgree) {
  GeneralizeOptions options;
  MultiGeneralizer kernel = MultiGeneralizer::ForIds(AllLanguageIds(), options);
  Pcg32 rng(0xf002);
  for (int iter = 0; iter < 400; ++iter) {
    size_t len = rng.Below(300);
    std::string value(len, '\0');
    // Full byte range: NUL, high bytes, control characters.
    for (size_t i = 0; i < len; ++i) value[i] = static_cast<char>(rng.Below(256));
    ExpectKernelIdentity(value, options, kernel);
  }
}

TEST(TokenizerFuzzTest, InvalidUtf8AndControlSequences) {
  GeneralizeOptions options;
  MultiGeneralizer kernel = MultiGeneralizer::ForIds(AllLanguageIds(), options);
  const std::vector<std::string> nasty = {
      std::string("\x00\x00\x01", 3),           // leading NULs
      std::string("a\x00b", 3),                 // embedded NUL
      "\xff\xfe\xfd",                           // invalid UTF-8 lead bytes
      "\xc3\x28",                               // invalid 2-byte sequence
      "\xe2\x82",                               // truncated 3-byte sequence
      "\xf0\x9f\x92\xa9",                       // valid 4-byte emoji bytes
      "\xc0\xaf",                               // overlong encoding
      "\x80\x80\x80\x80",                       // lone continuation bytes
      std::string(1, '\x7f') + "\t\r\n\v\f",    // DEL + control whitespace
      "\xed\xa0\x80",                           // UTF-16 surrogate half
  };
  for (const auto& value : nasty) ExpectKernelIdentity(value, options, kernel);
}

TEST(TokenizerFuzzTest, MegabyteSingleRunValue) {
  // A 1MB single-character run. Under default options the value is
  // truncated at max_value_length; with the cap lifted the tokenizer must
  // fold it into one run with a 7-digit count. Both must match the
  // reference path and neither may crash or blow memory.
  std::string huge(1u << 20, 'a');
  GeneralizeOptions truncating;
  MultiGeneralizer kernel_trunc = MultiGeneralizer::ForIds(AllLanguageIds(), truncating);
  ExpectKernelIdentity(huge, truncating, kernel_trunc);

  GeneralizeOptions uncapped;
  uncapped.max_value_length = 2u << 20;
  std::vector<ClassRun> runs;
  TokenizeRuns(huge, uncapped, &runs);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].count, 1u << 20);
  MultiGeneralizer kernel_full = MultiGeneralizer::ForIds(AllLanguageIds(), uncapped);
  ExpectKernelIdentity(huge, uncapped, kernel_full);

  // Mixed megabyte value: long runs interleaved with separators.
  std::string mixed;
  mixed.reserve(1u << 20);
  for (int i = 0; i < 64; ++i) {
    mixed.append(8000, static_cast<char>('0' + (i % 10)));
    mixed.append(1, i % 2 == 0 ? '-' : ' ');
  }
  ExpectKernelIdentity(mixed, uncapped, kernel_full);
}

TEST(TokenizerFuzzTest, CollapsedRunLengthsAgreeOnRandomBytes) {
  GeneralizeOptions options;
  options.collapse_run_lengths = true;
  MultiGeneralizer kernel = MultiGeneralizer::ForIds(AllLanguageIds(), options);
  Pcg32 rng(0xc011);
  for (int iter = 0; iter < 200; ++iter) {
    size_t len = rng.Below(200);
    std::string value(len, '\0');
    for (size_t i = 0; i < len; ++i) value[i] = static_cast<char>(rng.Below(256));
    ExpectKernelIdentity(value, options, kernel);
  }
}

// ------------------------------------------------------- SIMD tier parity

/// Pins one tokenizer tier for a scope, restoring the widest supported tier
/// on exit even when an assertion bails out of the block.
struct ScopedSimdTier {
  explicit ScopedSimdTier(SimdTier tier) { pinned = SetSimdTier(tier); }
  ~ScopedSimdTier() { SetSimdTier(MaxSupportedSimdTier()); }
  bool pinned = false;
};

/// Every tier this build + CPU can execute, scalar first.
std::vector<SimdTier> RunnableTiers() {
  std::vector<SimdTier> tiers;
  const auto max = static_cast<uint8_t>(MaxSupportedSimdTier());
  for (uint8_t t = 0; t <= max; ++t) tiers.push_back(static_cast<SimdTier>(t));
  return tiers;
}

/// The dispatched tokenizer must agree with the scalar reference run for
/// run: same runs, same class mask.
void ExpectTierMatchesScalar(const std::string& value,
                             const GeneralizeOptions& options) {
  std::vector<ClassRun> reference_runs, runs;
  uint8_t reference_mask = TokenizeRunsScalar(value, options, &reference_runs);
  uint8_t mask = TokenizeRuns(value, options, &runs);
  ASSERT_EQ(mask, reference_mask)
      << "class mask diverged from scalar reference under tier "
      << SimdTierName(ActiveSimdTier()) << ", value size " << value.size();
  ASSERT_EQ(runs.size(), reference_runs.size())
      << "run count diverged under tier " << SimdTierName(ActiveSimdTier())
      << ", value size " << value.size();
  for (size_t i = 0; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i], reference_runs[i])
        << "run " << i << " diverged under tier "
        << SimdTierName(ActiveSimdTier()) << ", value size " << value.size();
  }
}

TEST(SimdTokenizerFuzzTest, AllTiersMatchScalarOnRandomBytes) {
  GeneralizeOptions options;
  for (SimdTier tier : RunnableTiers()) {
    ScopedSimdTier pin(tier);
    ASSERT_TRUE(pin.pinned);
    Pcg32 rng(0x51d0 + static_cast<uint32_t>(tier));
    for (int iter = 0; iter < 400; ++iter) {
      size_t len = rng.Below(300);
      std::string value(len, '\0');
      for (size_t i = 0; i < len; ++i) value[i] = static_cast<char>(rng.Below(256));
      ExpectTierMatchesScalar(value, options);
    }
  }
}

TEST(SimdTokenizerFuzzTest, AllTiersMatchScalarOnEveryLengthNearBlockEdges) {
  // Dense sweep over lengths 0..130: covers every tail length for both the
  // 16- and 32-byte kernels, including the exact-multiple (no tail) cases.
  // Small alphabets maximize run boundaries per block.
  GeneralizeOptions options;
  for (SimdTier tier : RunnableTiers()) {
    ScopedSimdTier pin(tier);
    ASSERT_TRUE(pin.pinned);
    Pcg32 rng(0xb10c + static_cast<uint32_t>(tier));
    const std::string alphabet = "aB3-";
    for (size_t len = 0; len <= 130; ++len) {
      for (int rep = 0; rep < 8; ++rep) {
        std::string value(len, '\0');
        for (size_t i = 0; i < len; ++i) {
          value[i] = alphabet[rng.Below(static_cast<uint32_t>(alphabet.size()))];
        }
        ExpectTierMatchesScalar(value, options);
      }
    }
  }
}

TEST(SimdTokenizerFuzzTest, AllTiersMatchScalarOnNulAndInvalidUtf8) {
  GeneralizeOptions options;
  const std::vector<std::string> nasty = {
      std::string("\x00\x00\x01", 3),
      std::string("a\x00b", 3),
      std::string(40, '\0'),
      "\xff\xfe\xfd",
      "\xc3\x28",
      "\xe2\x82",
      "\xf0\x9f\x92\xa9",
      "\xc0\xaf",
      "\x80\x80\x80\x80",
      std::string(1, '\x7f') + "\t\r\n\v\f",
      "\xed\xa0\x80",
      // Boundary characters of each classifier range, repeated across blocks.
      std::string(17, '@') + std::string(17, 'A') + std::string(17, 'Z') +
          std::string(17, '[') + std::string(17, '`') + std::string(17, 'a') +
          std::string(17, 'z') + std::string(17, '{') + std::string(17, '/') +
          std::string(17, '0') + std::string(17, '9') + std::string(17, ':'),
  };
  for (SimdTier tier : RunnableTiers()) {
    ScopedSimdTier pin(tier);
    ASSERT_TRUE(pin.pinned);
    for (const auto& value : nasty) ExpectTierMatchesScalar(value, options);
  }
}

TEST(SimdTokenizerFuzzTest, AllTiersMatchScalarOnMegabyteRuns) {
  GeneralizeOptions uncapped;
  uncapped.max_value_length = 2u << 20;
  std::string huge(1u << 20, 'a');
  std::string mixed;
  mixed.reserve(1u << 20);
  for (int i = 0; i < 64; ++i) {
    mixed.append(8000, static_cast<char>('0' + (i % 10)));
    mixed.append(1, i % 2 == 0 ? '-' : ' ');
  }
  for (SimdTier tier : RunnableTiers()) {
    ScopedSimdTier pin(tier);
    ASSERT_TRUE(pin.pinned);
    ExpectTierMatchesScalar(huge, uncapped);
    ExpectTierMatchesScalar(mixed, uncapped);
    // Truncation must apply before the kernel sees the bytes.
    ExpectTierMatchesScalar(huge, GeneralizeOptions{});
  }
}

// --------------------------------------------------- detect dedup parity

/// Hand-built minimal model: a few languages with statistics from a small
/// synthetic corpus and fixed thresholds/curves. Big enough to fire real
/// findings, cheap enough to construct per test.
Model MakeTinyModel() {
  GeneralizeOptions gopts;
  std::vector<std::vector<std::string>> corpus;
  for (int c = 0; c < 48; ++c) {
    std::vector<std::string> column;
    for (int r = 0; r < 6; ++r) {
      switch (c % 4) {
        case 0:
          column.push_back("201" + std::to_string(r) + "-0" + std::to_string(c % 9 + 1) +
                           "-11");
          break;
        case 1:
          column.push_back(std::to_string(100 * c + r));
          break;
        case 2:
          column.push_back("item_" + std::to_string(r));
          break;
        default:
          column.push_back(std::to_string(r) + "." + std::to_string(c % 10));
          break;
      }
    }
    corpus.push_back(std::move(column));
  }

  Model model;
  const auto& all = LanguageSpace::All();
  for (int lang_id : {0, 5, 9}) {
    const GeneralizationLanguage& lang = all[static_cast<size_t>(lang_id)];
    ModelLanguage ml;
    ml.lang_id = lang_id;
    ml.threshold = -0.2;
    ml.train_coverage = 100;
    ml.curve = PrecisionCurve({{-1.0, 0.95}, {-0.2, 0.7}, {0.5, 0.3}, {1.0, 0.1}});
    for (const auto& column : corpus) {
      std::vector<uint64_t> keys;
      for (const auto& v : column) keys.push_back(GeneralizeToKey(v, lang, gopts));
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      ml.stats.AddColumn(keys);
    }
    model.languages.push_back(std::move(ml));
  }
  return model;
}

void ExpectSameColumnReport(const ColumnReport& a, const ColumnReport& b,
                            int iter) {
  ASSERT_EQ(a.distinct_values, b.distinct_values) << "iter " << iter;
  ASSERT_EQ(a.pairs.size(), b.pairs.size()) << "iter " << iter;
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    ASSERT_EQ(a.pairs[i].u, b.pairs[i].u) << "iter " << iter << " pair " << i;
    ASSERT_EQ(a.pairs[i].v, b.pairs[i].v) << "iter " << iter << " pair " << i;
    ASSERT_EQ(a.pairs[i].confidence, b.pairs[i].confidence)
        << "iter " << iter << " pair " << i;
  }
  ASSERT_EQ(a.cells.size(), b.cells.size()) << "iter " << iter;
  for (size_t i = 0; i < a.cells.size(); ++i) {
    ASSERT_EQ(a.cells[i].row, b.cells[i].row) << "iter " << iter << " cell " << i;
    ASSERT_EQ(a.cells[i].value, b.cells[i].value) << "iter " << iter << " cell " << i;
    ASSERT_EQ(a.cells[i].confidence, b.cells[i].confidence)
        << "iter " << iter << " cell " << i;
    ASSERT_EQ(a.cells[i].incompatible_with, b.cells[i].incompatible_with)
        << "iter " << iter << " cell " << i;
  }
}

// Metamorphic dedup check: scanning a duplicate-heavy column must equal
// scanning the column with nothing to deduplicate — its distinct values in
// first-occurrence order — once the reference's cell rows (indices into that
// distinct list) are mapped back to each value's first row in the original.
TEST(DetectDedupFuzzTest, DedupMatchesNonDedupOnShuffledDuplicateHeavyColumns) {
  Model model = MakeTinyModel();
  Detector detector(&model);

  Pcg32 rng(0xdedb);
  const std::string alphabet = "abzAZ019-/. _";
  for (int iter = 0; iter < 80; ++iter) {
    // A pool of distinct values (sometimes exceeding max_distinct_values, to
    // exercise the subsample path), then a duplicate-heavy shuffled column
    // drawn from it with skewed repetition.
    size_t pool_size = 2 + rng.Below(78);
    std::vector<std::string> pool;
    for (size_t p = 0; p < pool_size; ++p) {
      size_t len = 1 + rng.Below(12);
      std::string v(len, '\0');
      for (size_t i = 0; i < len; ++i) {
        v[i] = alphabet[rng.Below(static_cast<uint32_t>(alphabet.size()))];
      }
      pool.push_back(std::move(v));
    }
    size_t rows = 20 + rng.Below(280);
    std::vector<std::string> values;
    values.reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      // Skew: half the draws hit the first few pool entries.
      size_t idx = rng.Below(2) == 0
                       ? rng.Below(static_cast<uint32_t>(std::min<size_t>(pool_size, 3)))
                       : rng.Below(static_cast<uint32_t>(pool_size));
      values.push_back(pool[idx]);
    }
    std::vector<std::string> distinct;
    std::vector<uint32_t> first_row;
    std::set<std::string> seen;
    for (size_t r = 0; r < values.size(); ++r) {
      if (seen.insert(values[r]).second) {
        distinct.push_back(values[r]);
        first_row.push_back(static_cast<uint32_t>(r));
      }
    }
    DetectReport a = detector.Detect(DetectRequest{"col", values});
    DetectReport b = detector.Detect(DetectRequest{"col", distinct});
    for (auto& cell : b.column.cells) cell.row = first_row[cell.row];
    ExpectSameColumnReport(a.column, b.column, iter);
  }
}

// ------------------------------------------------------------------- CSV

TEST(CsvFuzzTest, QuoteAndCrlfEdgeCasesRoundTrip) {
  CsvTable table;
  table.header = {"plain", "edge"};
  table.rows = {
      {"a", "says \"hi\""},
      {"crlf", "line1\r\nline2"},
      {"lf", "line1\nline2"},
      {"comma", "a,b,c"},
      {"quoteend", "trailing\""},
      {"quotestart", "\"leading"},
      {"onlyquotes", "\"\"\"\""},
      {"cr", "bare\rcarriage"},
      {"empty", ""},
      {"spaces", "  padded  "},
  };
  std::string text = WriteCsv(table);
  auto parsed = ParseCsv(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->header, table.header);
  ASSERT_EQ(parsed->rows, table.rows);
}

TEST(CsvFuzzTest, RandomTablesWithHostileBytesRoundTrip) {
  Pcg32 rng(0xc57);
  // NUL is excluded: the reader is std::string-based and NUL-transparent,
  // but real CSV files never carry it and the writer does not escape it.
  const std::string alphabet = "ab,\"\n\r;\t '|\\x";
  for (int iter = 0; iter < 100; ++iter) {
    CsvTable table;
    size_t cols = 1 + rng.Below(5);
    for (size_t c = 0; c < cols; ++c) table.header.push_back("c" + std::to_string(c));
    size_t rows = rng.Below(8);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < cols; ++c) {
        size_t len = rng.Below(12);
        std::string cell;
        for (size_t i = 0; i < len; ++i) {
          cell.push_back(alphabet[rng.Below(static_cast<uint32_t>(alphabet.size()))]);
        }
        row.push_back(std::move(cell));
      }
      table.rows.push_back(std::move(row));
    }
    std::string text = WriteCsv(table);
    auto parsed = ParseCsv(text);
    ASSERT_TRUE(parsed.ok()) << "iter " << iter << ": " << parsed.status().ToString();
    ASSERT_EQ(parsed->header, table.header) << "iter " << iter;
    ASSERT_EQ(parsed->rows, table.rows) << "iter " << iter;
  }
}

TEST(CsvFuzzTest, ArbitraryGarbageParsesOrFailsCleanly) {
  Pcg32 rng(0x6a5b);
  for (int iter = 0; iter < 300; ++iter) {
    size_t len = rng.Below(400);
    std::string text(len, '\0');
    for (size_t i = 0; i < len; ++i) text[i] = static_cast<char>(rng.Below(256));
    // Must return (Ok or error), never crash or hang.
    auto parsed = ParseCsv(text);
    if (parsed.ok()) {
      // Parsed tables must be structurally sane: rows padded to header width.
      for (const auto& row : parsed->rows) {
        ASSERT_EQ(row.size(), parsed->header.size()) << "iter " << iter;
      }
    }
  }
}

TEST(CsvFuzzTest, SpecificParserEdges) {
  // Unterminated quote: corruption, not a crash.
  EXPECT_FALSE(ParseCsv("a,b\n\"unterminated").ok());
  // Quote closed at EOF without newline.
  auto at_eof = ParseCsv("h1\n\"v\"");
  ASSERT_TRUE(at_eof.ok());
  EXPECT_EQ(at_eof->rows[0][0], "v");
  // CRLF directly after a closing quote.
  auto crlf = ParseCsv("h1,h2\r\n\"a\",\"b\"\r\n");
  ASSERT_TRUE(crlf.ok());
  EXPECT_EQ(crlf->rows[0][1], "b");
  // A bare CR ends a row just like LF; unquoted fields cannot contain one.
  auto lone_cr = ParseCsv("h\nval\rue\n");
  ASSERT_TRUE(lone_cr.ok());
  ASSERT_EQ(lone_cr->rows.size(), 2u);
  EXPECT_EQ(lone_cr->rows[0][0], "val");
  EXPECT_EQ(lone_cr->rows[1][0], "ue");
  // Field of only whitespace survives.
  auto ws = ParseCsv("h\n   \n");
  ASSERT_TRUE(ws.ok());
  EXPECT_EQ(ws->rows[0][0], "   ");
}

}  // namespace
}  // namespace autodetect
