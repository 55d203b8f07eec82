// ADMODEL2 format tests: a save/load round trip must produce byte-identical
// detection reports, the loader must fail closed on every corruption we can
// synthesize (truncation, bit flips, header field damage) and on the retired
// ADMODEL1 format, and re-saving a mapped model must preserve behaviour. The
// fuzz cases run under the ASan/UBSan tier-1 legs: a crash on any mangled
// input fails the gate, not just a wrong answer.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/random.h"
#include "common/string_util.h"
#include "common/xxhash64.h"
#include "corpus/corpus_generator.h"
#include "detect/detector.h"
#include "detect/trainer.h"
#include "text/pattern.h"
#include "temp_path.h"

namespace autodetect {
namespace {

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return Status::IOError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

/// Byte-exact report rendering (hexfloat doubles), as in serve_test.
std::string Fingerprint(const ColumnReport& report) {
  std::string out = StrFormat("d=%zu\n", report.distinct_values);
  for (const auto& c : report.cells) {
    out += StrFormat("c %u \"%s\" %a %u\n", c.row, c.value.c_str(), c.confidence,
                     c.incompatible_with);
  }
  for (const auto& p : report.pairs) {
    out += StrFormat("p \"%s\"|\"%s\" %a\n", p.u.c_str(), p.v.c_str(), p.confidence);
  }
  return out;
}

/// A small eval batch with guaranteed findings plus generated variety.
std::vector<std::vector<std::string>> EvalColumns() {
  std::vector<std::vector<std::string>> columns = {
      {"2011-01-01", "2011-01-02", "2011-01-03", "2011-01-04", "2011/01/05"},
      {"1962", "1981", "1974", "1990", "1865."},
      {"995", "996", "997", "998", "999", "1,000"},
      {"x"},
      {},
  };
  GeneratorOptions gen;
  gen.num_columns = 24;
  gen.inject_errors = true;
  gen.seed = 99;
  GeneratedColumnSource source(gen);
  Column column;
  while (source.Next(&column)) columns.push_back(column.values);
  return columns;
}

std::vector<std::string> AllFingerprints(const Model& model) {
  Detector detector(&model);
  std::vector<std::string> out;
  for (const auto& values : EvalColumns()) {
    out.push_back(Fingerprint(detector.Detect(DetectRequest{"", values}).column));
  }
  return out;
}

/// One trained pipeline for all cases; a plain and a sketched model cover
/// both frozen co-occurrence layouts (open map vs count-min sketch).
class ModelV2Fixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions gen;
    gen.num_columns = 1200;
    gen.inject_errors = false;
    gen.seed = 20180610;
    GeneratedColumnSource source(gen);
    TrainOptions train;
    train.memory_budget_bytes = 16ull << 20;
    train.stats.language_ids = {
        LanguageSpace::IdOf(LanguageSpace::CrudeG()),
        LanguageSpace::IdOf(LanguageSpace::PaperL1()),
        LanguageSpace::IdOf(LanguageSpace::PaperL2()),
        5, 40, 77, 120};
    train.supervision.target_positives = 3000;
    train.supervision.target_negatives = 3000;
    train.corpus_name = "model-v2-test";
    TrainSession session(train);
    ASSERT_TRUE(session.BuildStats(&source).ok());
    Status supervised = session.Supervise(&source);
    ASSERT_TRUE(supervised.ok()) << supervised.ToString();
    auto model = session.Finalize();
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = new Model(std::move(*model));
    auto sketched = session.Finalize(16ull << 20, 0.25);
    ASSERT_TRUE(sketched.ok()) << sketched.status().ToString();
    sketched_ = new Model(std::move(*sketched));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete sketched_;
    model_ = nullptr;
    sketched_ = nullptr;
  }

  static Model* model_;
  static Model* sketched_;
};

Model* ModelV2Fixture::model_ = nullptr;
Model* ModelV2Fixture::sketched_ = nullptr;

TEST_F(ModelV2Fixture, RoundTripIsByteIdentical) {
  for (const Model* source : {model_, sketched_}) {
    std::vector<std::string> baseline = AllFingerprints(*source);

    std::string path = TempPath("ad_v2test_v2.bin");
    ASSERT_TRUE(source->Save(path).ok());
    auto loaded = Model::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_GT(loaded->FileBytes(), 0u);
    EXPECT_EQ(loaded->FileBytes(), std::filesystem::file_size(path));
    EXPECT_EQ(loaded->languages.size(), source->languages.size());
    EXPECT_EQ(loaded->corpus_name, source->corpus_name);
    EXPECT_EQ(loaded->trained_columns, source->trained_columns);
    EXPECT_EQ(AllFingerprints(*loaded), baseline);

    std::filesystem::remove(path);
  }
}

TEST_F(ModelV2Fixture, MappedModelReserializes) {
  // A loaded (frozen, possibly mapped) model must be savable again without
  // thawing losses: load -> save -> load -> same reports as the in-memory
  // model.
  std::vector<std::string> baseline = AllFingerprints(*sketched_);
  std::string path = TempPath("ad_v2test_reser.bin");
  ASSERT_TRUE(sketched_->Save(path).ok());
  auto mapped = Model::Load(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  std::string again = TempPath("ad_v2test_reser_again.bin");
  ASSERT_TRUE(mapped->Save(again).ok());
  auto reloaded = Model::Load(again);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(AllFingerprints(*reloaded), baseline);

  std::filesystem::remove(path);
  std::filesystem::remove(again);
}

TEST_F(ModelV2Fixture, TruncationIsAlwaysATypedError) {
  std::string path = TempPath("ad_v2test_trunc.bin");
  ASSERT_TRUE(model_->Save(path).ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());

  Pcg32 rng(1234);
  std::vector<size_t> cuts = {0, 1, 7, 8, 79, 80, 4095, 4096, 4097,
                              bytes->size() - 1};
  for (int i = 0; i < 40; ++i) cuts.push_back(rng.Below(static_cast<uint32_t>(bytes->size())));
  for (size_t cut : cuts) {
    WriteFileBytes(path, bytes->substr(0, cut));
    auto loaded = Model::Load(path);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut << " loaded successfully";
    EXPECT_TRUE(loaded.status().IsIOError() || loaded.status().IsCorruption())
        << "cut at " << cut << ": " << loaded.status().ToString();
  }
  // The untruncated file still loads.
  WriteFileBytes(path, *bytes);
  EXPECT_TRUE(Model::Load(path).ok());
  std::filesystem::remove(path);
}

TEST_F(ModelV2Fixture, BitFlipFuzzNeverCrashesAndNeverServesWrongReports) {
  std::string path = TempPath("ad_v2test_flip.bin");
  ASSERT_TRUE(sketched_->Save(path).ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::vector<std::string> baseline = AllFingerprints(*sketched_);

  Pcg32 rng(987654321);
  size_t rejected = 0;
  for (int iter = 0; iter < 120; ++iter) {
    std::string mangled = *bytes;
    size_t pos = rng.Below(static_cast<uint32_t>(mangled.size()));
    mangled[pos] = static_cast<char>(mangled[pos] ^ (1u << rng.Below(8)));
    WriteFileBytes(path, mangled);
    auto loaded = Model::Load(path);
    if (!loaded.ok()) {
      ++rejected;
      EXPECT_TRUE(loaded.status().IsIOError() || loaded.status().IsCorruption())
          << "flip at " << pos << ": " << loaded.status().ToString();
      continue;
    }
    // A flip that survives validation can only have landed in dead padding —
    // the loaded model must behave exactly like the original.
    EXPECT_EQ(AllFingerprints(*loaded), baseline) << "flip at " << pos;
  }
  // The checksums must actually be doing work: most flips land in live
  // sections and must be rejected.
  EXPECT_GT(rejected, 60u);
  std::filesystem::remove(path);
}

TEST_F(ModelV2Fixture, TargetedHeaderAndSectionCorruptions) {
  std::string path = TempPath("ad_v2test_target.bin");
  ASSERT_TRUE(model_->Save(path).ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());

  auto load_mangled = [&](size_t offset, uint64_t value) {
    std::string mangled = *bytes;
    std::memcpy(&mangled[offset], &value, sizeof(value));
    WriteFileBytes(path, mangled);
    return Model::Load(path);
  };

  // Version bump -> rejected.
  {
    std::string mangled = *bytes;
    uint32_t version = 99;
    std::memcpy(&mangled[8], &version, sizeof(version));
    WriteFileBytes(path, mangled);
    auto loaded = Model::Load(path);
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
  // Endianness marker from another byte order -> rejected with a clear
  // message, not garbage decoding.
  {
    std::string mangled = *bytes;
    uint32_t marker = 0x01000000;
    std::memcpy(&mangled[12], &marker, sizeof(marker));
    WriteFileBytes(path, mangled);
    auto loaded = Model::Load(path);
    ASSERT_TRUE(loaded.status().IsCorruption());
    EXPECT_NE(loaded.status().ToString().find("byte order"), std::string::npos);
  }
  // Misaligned / out-of-bounds section offsets -> rejected (never mapped
  // through).
  EXPECT_FALSE(load_mangled(32, 4097).ok());                  // meta_off odd page
  EXPECT_FALSE(load_mangled(32, bytes->size() + 4096).ok());  // meta_off OOB
  EXPECT_FALSE(load_mangled(56, 81).ok());                    // data_off unaligned
  EXPECT_FALSE(load_mangled(40, uint64_t{1} << 60).ok());     // meta_len absurd
  // Checksum field damage -> Corruption naming the checksum.
  {
    auto loaded = load_mangled(48, 0xdeadbeefdeadbeefull);
    ASSERT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
    EXPECT_NE(loaded.status().ToString().find("checksum"), std::string::npos);
  }
  // A flipped byte inside DATA -> checksum mismatch.
  {
    uint64_t data_off = 0;
    std::memcpy(&data_off, bytes->data() + 56, sizeof(data_off));
    std::string mangled = *bytes;
    mangled[data_off + 8] = static_cast<char>(mangled[data_off + 8] ^ 0x40);
    WriteFileBytes(path, mangled);
    auto loaded = Model::Load(path);
    ASSERT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
    EXPECT_NE(loaded.status().ToString().find("checksum"), std::string::npos);
  }
  // Trailing garbage after file_size bytes -> rejected, not ignored.
  {
    std::string mangled = *bytes + std::string(64, 'Z');
    WriteFileBytes(path, mangled);
    EXPECT_FALSE(Model::Load(path).ok());
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// SKCH section (ADMODEL2 v3): layout invariants, re-serialization
// bit-identity, truncation/corruption fail-closed behaviour, and v2
// backward compatibility for sketch-free models.

/// Little-endian u64 read out of a raw artifact byte string.
uint64_t ReadU64At(const std::string& bytes, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

void WriteU64At(std::string* bytes, size_t offset, uint64_t v) {
  std::memcpy(&(*bytes)[offset], &v, sizeof(v));
}

TEST_F(ModelV2Fixture, SketchedArtifactCarriesAlignedSkchSection) {
  // The fixture's 0.25-ratio build must actually sketch something, or every
  // SKCH test below silently degrades to testing the exact path.
  ASSERT_GT(sketched_->SketchInfo().languages, 0u);
  ASSERT_GT(sketched_->SketchInfo().bytes, 0u);

  std::string path = TempPath("ad_v2test_skch.bin");
  ASSERT_TRUE(sketched_->Save(path).ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());

  uint32_t version = 0;
  std::memcpy(&version, bytes->data() + 8, sizeof(version));
  EXPECT_EQ(version, 3u);

  const uint64_t data_len = ReadU64At(*bytes, 64);
  const uint64_t skch_off = ReadU64At(*bytes, 80);
  const uint64_t skch_len = ReadU64At(*bytes, 88);
  const uint64_t skch_checksum = ReadU64At(*bytes, 96);
  EXPECT_GT(skch_len, 0u);
  EXPECT_EQ(skch_off % 4096, 0u);  // page-aligned section start
  // Blobs are whole kPlaneAlign multiples, so each one starts (and keeps
  // its planes) cache-line-aligned inside the page-aligned section.
  EXPECT_EQ(skch_len % CountMinSketch::kPlaneAlign, 0u);
  EXPECT_EQ(skch_off + skch_len, bytes->size());
  EXPECT_EQ(XxHash64(bytes->data() + skch_off, skch_len), skch_checksum);
  // Dropping the dictionaries must have shrunk DATA. (The size *economics*
  // — SKCH <= 10% of exact DATA — are gated at realistic dictionary scale
  // by quality_delta_test and bench_fig8a_sketch.)
  EXPECT_GT(data_len, 0u);
  // Every blob in the section leads with the sketch magic.
  EXPECT_EQ(bytes->compare(skch_off, 8, "CMSKETCH"), 0);

  // The loaded model reports the same sketch footprint as the in-memory one.
  auto loaded = Model::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->SketchInfo().languages, sketched_->SketchInfo().languages);
  EXPECT_EQ(loaded->SketchInfo().bytes, sketched_->SketchInfo().bytes);
  EXPECT_EQ(loaded->SketchInfo().width, sketched_->SketchInfo().width);
  EXPECT_EQ(loaded->SketchInfo().depth, sketched_->SketchInfo().depth);
  std::filesystem::remove(path);
}

TEST_F(ModelV2Fixture, SketchFreeModelsStillWriteVersion2) {
  // Backward compatibility: an exact model must produce a byte-identical
  // artifact to what a sketch-unaware build would write — version 2, 80-byte
  // header, no SKCH triple — so exact-mode goldens survive this feature.
  ASSERT_EQ(model_->SketchInfo().languages, 0u);
  std::string path = TempPath("ad_v2test_nosk.bin");
  ASSERT_TRUE(model_->Save(path).ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  uint32_t version = 0;
  std::memcpy(&version, bytes->data() + 8, sizeof(version));
  EXPECT_EQ(version, 2u);
  // file_size == data_off + data_len: nothing after DATA.
  EXPECT_EQ(ReadU64At(*bytes, 24), ReadU64At(*bytes, 56) + ReadU64At(*bytes, 64));
  EXPECT_EQ(ReadU64At(*bytes, 24), bytes->size());
  std::filesystem::remove(path);
}

TEST_F(ModelV2Fixture, SketchedSaveLoadSaveIsBitIdentical) {
  // Deterministic round-trip: mapping a sketched artifact and re-saving it
  // reproduces the exact same bytes (AppendTo re-emits frozen blobs
  // verbatim; nothing is thawed or re-hashed along the way).
  std::string first = TempPath("ad_v2test_ident1.bin");
  std::string second = TempPath("ad_v2test_ident2.bin");
  ASSERT_TRUE(sketched_->Save(first).ok());
  auto mapped = Model::Load(first);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped->Save(second).ok());
  auto a = ReadFileBytes(first);
  auto b = ReadFileBytes(second);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  std::filesystem::remove(first);
  std::filesystem::remove(second);
}

/// c(p1, p2) of every value pair of the eval columns under each language.
std::vector<uint64_t> AllCoCounts(const Model& model) {
  std::vector<uint64_t> out;
  for (const ModelLanguage& l : model.languages) {
    for (const auto& values : EvalColumns()) {
      for (size_t i = 0; i + 1 < values.size(); ++i) {
        out.push_back(l.stats.CoCount(GeneralizeToKey(values[i], l.language()),
                                      GeneralizeToKey(values[i + 1], l.language())));
      }
    }
  }
  return out;
}

TEST_F(ModelV2Fixture, SaveOverAMappedModelLeavesItsReaderUnchanged) {
  // Model B: another seed, a smaller corpus and fewer candidates, so its
  // file is shorter than A's and truncating A in place would cut pages out
  // from under A's mapping.
  GeneratorOptions gen;
  gen.num_columns = 300;
  gen.inject_errors = false;
  gen.seed = 4242;
  GeneratedColumnSource source(gen);
  TrainOptions train;
  train.memory_budget_bytes = 16ull << 20;
  train.stats.language_ids = {LanguageSpace::IdOf(LanguageSpace::CrudeG()),
                              LanguageSpace::IdOf(LanguageSpace::PaperL1())};
  train.supervision.target_positives = 500;
  train.supervision.target_negatives = 500;
  train.corpus_name = "model-v2-test-b";
  auto b = TrainModel(&source, train);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  const std::string path = TempPath("ad_v2test_overwrite.bin");
  ASSERT_TRUE(model_->Save(path).ok());
  auto a = Model::Load(path);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  const std::vector<uint64_t> a_counts = AllCoCounts(*a);
  const std::vector<std::string> a_reports = AllFingerprints(*a);
  const auto a_size = std::filesystem::file_size(path);

  ASSERT_TRUE(b->Save(path).ok());
  ASSERT_LT(std::filesystem::file_size(path), a_size);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp." + std::to_string(getpid())));
  // A still reads the bytes it mapped.
  EXPECT_EQ(AllCoCounts(*a), a_counts);
  EXPECT_EQ(AllFingerprints(*a), a_reports);
  // A fresh load sees B.
  auto reloaded = Model::Load(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->corpus_name, "model-v2-test-b");
  EXPECT_EQ(AllCoCounts(*reloaded), AllCoCounts(*b));
  EXPECT_EQ(AllFingerprints(*reloaded), AllFingerprints(*b));
  std::filesystem::remove(path);
}

TEST_F(ModelV2Fixture, FailedSaveLeavesNoTempFileAndTheTargetUntouched) {
  // The target is a directory, which the temp file cannot be renamed over.
  const std::string dir = TempPath("ad_v2test_dir_target");
  std::filesystem::create_directory(dir);
  const Status saved = model_->Save(dir);
  EXPECT_TRUE(saved.IsIOError()) << saved.ToString();
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp." + std::to_string(getpid())));
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  std::filesystem::remove(dir);
  // A missing directory fails to open the temp file in the first place.
  EXPECT_TRUE(model_->Save(dir + "/missing/m.bin").IsIOError());
}

TEST_F(ModelV2Fixture, SketchedTruncationIsAlwaysATypedError) {
  std::string path = TempPath("ad_v2test_sktrunc.bin");
  ASSERT_TRUE(sketched_->Save(path).ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  const uint64_t skch_off = ReadU64At(*bytes, 80);

  Pcg32 rng(24680);
  // Boundary cuts around the v3 header and the SKCH section, plus random.
  std::vector<size_t> cuts = {0,   8,   103, 104, 4095,
                              4096, skch_off - 1, skch_off, skch_off + 1,
                              skch_off + 4095, bytes->size() - 1};
  for (int i = 0; i < 40; ++i) {
    cuts.push_back(rng.Below(static_cast<uint32_t>(bytes->size())));
  }
  for (size_t cut : cuts) {
    WriteFileBytes(path, bytes->substr(0, cut));
    auto loaded = Model::Load(path);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut << " loaded successfully";
    EXPECT_TRUE(loaded.status().IsIOError() || loaded.status().IsCorruption())
        << "cut at " << cut << ": " << loaded.status().ToString();
  }
  WriteFileBytes(path, *bytes);
  EXPECT_TRUE(Model::Load(path).ok());
  std::filesystem::remove(path);
}

TEST_F(ModelV2Fixture, TargetedSkchCorruptions) {
  std::string path = TempPath("ad_v2test_sktarget.bin");
  ASSERT_TRUE(sketched_->Save(path).ok());
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  const uint64_t skch_off = ReadU64At(*bytes, 80);
  const uint64_t skch_len = ReadU64At(*bytes, 88);

  // A flipped byte inside a counter plane -> SKCH checksum mismatch.
  {
    std::string mangled = *bytes;
    mangled[skch_off + skch_len / 2] ^= 0x10;
    WriteFileBytes(path, mangled);
    auto loaded = Model::Load(path);
    ASSERT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
    EXPECT_NE(loaded.status().ToString().find("SKCH"), std::string::npos);
  }
  // Damaged SKCH header triple -> rejected before any sketch bytes are
  // interpreted.
  {
    std::string mangled = *bytes;
    WriteU64At(&mangled, 80, skch_off + 8);  // misaligned section offset
    WriteFileBytes(path, mangled);
    EXPECT_FALSE(Model::Load(path).ok());
  }
  {
    std::string mangled = *bytes;
    WriteU64At(&mangled, 88, uint64_t{1} << 60);  // absurd section length
    WriteFileBytes(path, mangled);
    EXPECT_FALSE(Model::Load(path).ok());
  }
  // Structural damage with VALID checksums: mangle blob internals, then
  // recompute the section checksum so only FrozenView validation stands
  // between the damage and a serving process. Checksums cannot catch an
  // attacker or a buggy writer; the structural validators must.
  auto load_with_fixed_checksum = [&](std::string mangled) {
    WriteU64At(&mangled, 96,
               XxHash64(mangled.data() + skch_off, skch_len));
    WriteFileBytes(path, mangled);
    return Model::Load(path);
  };
  {
    // Break the blob magic.
    std::string mangled = *bytes;
    mangled[skch_off] ^= 0x5a;
    auto loaded = load_with_fixed_checksum(std::move(mangled));
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
  {
    // Zero the blob's width field (offset 8 inside the blob).
    std::string mangled = *bytes;
    WriteU64At(&mangled, skch_off + 8, 0);
    auto loaded = load_with_fixed_checksum(std::move(mangled));
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
  {
    // Inflate the blob's planes_off so it claims more bytes than the
    // language's SKCH slice holds.
    std::string mangled = *bytes;
    WriteU64At(&mangled, skch_off + 40, uint64_t{1} << 19);
    auto loaded = load_with_fixed_checksum(std::move(mangled));
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsIOError() || loaded.status().IsCorruption())
        << loaded.status().ToString();
  }
  std::filesystem::remove(path);
}

TEST(ModelLoadTest, RetiredV1FormatIsATypedErrorNamingIt) {
  // ADMODEL1 opened with a serde string: u64 length 8, then the magic. The
  // loader recognises it and says what to do instead of reporting garbage.
  std::string path = TempPath("ad_v2test_v1.bin");
  std::string v1(8, '\0');
  v1[0] = 8;
  v1 += "ADMODEL1";
  v1 += std::string(64, '\x5a');
  WriteFileBytes(path, v1);
  auto loaded = Model::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalid()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find("ADMODEL1"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find("retrain"), std::string::npos)
      << loaded.status().ToString();

  // Garbage is still an error, just not that one.
  WriteFileBytes(path, "definitely not a model");
  loaded = Model::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace autodetect
