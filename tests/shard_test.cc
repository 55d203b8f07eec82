// Tests for ADSHARD1 statistics shards (train/shard.h) and the staged
// TrainSession built on them: the map/reduce determinism contract (merged
// shards byte-identical to one-shot, for any partition and any order), the
// delta-retrain equivalence, artifact fail-closed behavior, and the
// merge-or-fail CorpusStats::Insert semantics they depend on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "common/failpoint.h"
#include "corpus/corpus_generator.h"
#include "detect/trainer.h"
#include "io/serde.h"
#include "train/shard.h"

namespace autodetect {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

/// A small candidate set (crude G + a spread of real languages) keeps each
/// statistics pass cheap enough for property-style repetition.
std::vector<int> TestLanguageIds() {
  std::vector<int> ids = {LanguageSpace::IdOf(LanguageSpace::CrudeG()),
                          LanguageSpace::IdOf(LanguageSpace::PaperL1()),
                          LanguageSpace::IdOf(LanguageSpace::PaperL2()),
                          3, 17, 42, 58, 77, 101, 120, 133};
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

TrainOptions TestTrainOptions() {
  TrainOptions train;
  train.memory_budget_bytes = 16ull << 20;
  train.stats.language_ids = TestLanguageIds();
  train.supervision.target_positives = 1500;
  train.supervision.target_negatives = 1500;
  train.corpus_name = "WEB-synthetic";
  return train;
}

GeneratorOptions TestGenerator(size_t num_columns, uint64_t seed) {
  GeneratorOptions gen;
  gen.num_columns = num_columns;
  gen.inject_errors = false;
  gen.seed = seed;
  return gen;
}

ShardProvenance MakeProvenance(const GeneratorOptions& gen, uint64_t begin,
                               uint64_t end) {
  ShardProvenance prov;
  prov.corpus_name = gen.profile.name + "-synthetic";
  prov.profile = gen.profile.name;
  prov.seed = gen.seed;
  prov.total_columns = gen.num_columns;
  prov.column_begin = begin;
  prov.column_end = end;
  return prov;
}

std::string SerializedStats(const CorpusStats& stats) {
  std::ostringstream out;
  BinaryWriter writer(&out);
  stats.Serialize(&writer);
  EXPECT_TRUE(writer.status().ok());
  return std::move(out).str();
}

/// Builds shards over `boundaries`-delimited contiguous partitions of the
/// generated corpus ([boundaries[i], boundaries[i+1]) each).
std::vector<StatsShard> BuildPartitionShards(
    const GeneratorOptions& gen, const TrainOptions& train,
    const std::vector<uint64_t>& boundaries) {
  std::vector<StatsShard> shards;
  for (size_t i = 0; i + 1 < boundaries.size(); ++i) {
    GeneratedColumnSource full(gen);
    SlicedColumnSource slice(&full, boundaries[i], boundaries[i + 1]);
    auto shard = TrainSession::BuildShard(
        &slice, train, MakeProvenance(gen, boundaries[i], boundaries[i + 1]));
    EXPECT_TRUE(shard.ok()) << shard.status().ToString();
    shards.push_back(std::move(*shard));
  }
  return shards;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

TEST(ShardArtifactTest, RoundTripPreservesEverything) {
  const GeneratorOptions gen = TestGenerator(300, 41);
  const TrainOptions train = TestTrainOptions();
  GeneratedColumnSource source(gen);
  auto shard = TrainSession::BuildShard(&source, train,
                                        MakeProvenance(gen, 0, 300));
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  EXPECT_EQ(shard->options_digest, StatsOptionsDigest(train.stats));

  const std::string path = TempPath("ad_shard_roundtrip.ads");
  ASSERT_TRUE(WriteShard(path, *shard).ok());
  auto loaded = ReadShard(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->options_digest, shard->options_digest);
  EXPECT_EQ(loaded->provenance.corpus_name, shard->provenance.corpus_name);
  EXPECT_EQ(loaded->provenance.profile, shard->provenance.profile);
  EXPECT_EQ(loaded->provenance.seed, shard->provenance.seed);
  EXPECT_EQ(loaded->provenance.total_columns, shard->provenance.total_columns);
  EXPECT_EQ(loaded->provenance.column_begin, shard->provenance.column_begin);
  EXPECT_EQ(loaded->provenance.column_end, shard->provenance.column_end);
  // A round trip must not perturb a single byte of the statistics — the
  // re-canonicalization on load erases replay-order layout drift.
  EXPECT_EQ(SerializedStats(loaded->stats), SerializedStats(shard->stats));
  fs::remove(path);
}

/// The determinism property at the statistics level: for random corpora,
/// random partition counts and random boundaries, merging the shards in a
/// shuffled order yields statistics byte-identical to the one-shot pass.
TEST(ShardMergeTest, MergedStatsByteIdenticalToOneShotAnyPartitionAnyOrder) {
  std::mt19937 rng(20180610);
  const TrainOptions train = TestTrainOptions();
  for (int trial = 0; trial < 6; ++trial) {
    const size_t columns = 120 + rng() % 240;
    const GeneratorOptions gen = TestGenerator(columns, 1000 + trial);

    GeneratedColumnSource one_shot_source(gen);
    auto one_shot = TrainSession::BuildShard(
        &one_shot_source, train, MakeProvenance(gen, 0, columns));
    ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();
    const std::string expected = SerializedStats(one_shot->stats);

    const size_t num_shards = 1 + rng() % 8;
    std::vector<uint64_t> boundaries = {0, columns};
    while (boundaries.size() < num_shards + 1) {
      boundaries.push_back(rng() % (columns + 1));
    }
    std::sort(boundaries.begin(), boundaries.end());
    // Empty partitions are rejected by BuildShard by design; collapse
    // duplicate boundaries instead (the merge contract only needs the
    // remaining ranges to tile [0, columns)).
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                     boundaries.end());

    std::vector<StatsShard> shards = BuildPartitionShards(gen, train, boundaries);
    ASSERT_FALSE(shards.empty());
    std::shuffle(shards.begin(), shards.end(), rng);

    auto merged = MergeShards(std::move(shards));
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    EXPECT_EQ(merged->provenance.column_begin, 0u);
    EXPECT_EQ(merged->provenance.column_end, columns);
    EXPECT_EQ(SerializedStats(merged->stats), expected)
        << "trial " << trial << ": " << num_shards << " shards over "
        << columns << " columns diverged from the one-shot statistics";
  }
}

/// The determinism property at the model level: a model finalized from
/// merged shards is byte-identical on disk to the one-shot TrainModel.
TEST(ShardMergeTest, FinalizedModelByteIdenticalToOneShot) {
  const GeneratorOptions gen = TestGenerator(600, 20180610);
  TrainOptions train = TestTrainOptions();
  train.memory_budget_bytes = 8ull << 20;

  const std::string one_shot_path = TempPath("ad_shard_oneshot.model");
  const std::string merged_path = TempPath("ad_shard_merged.model");

  {
    GeneratedColumnSource source(gen);
    auto model = TrainModel(&source, train);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE(model->Save(one_shot_path).ok());
  }
  {
    std::vector<StatsShard> shards =
        BuildPartitionShards(gen, train, {0, 150, 310, 480, 600});
    std::mt19937 rng(7);
    std::shuffle(shards.begin(), shards.end(), rng);
    auto merged = MergeShards(std::move(shards));
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();

    TrainSession session(train);
    ASSERT_TRUE(session.UseStats(std::move(*merged)).ok());
    GeneratedColumnSource source(gen);
    ASSERT_TRUE(session.Supervise(&source).ok());
    auto model = session.Finalize();
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE(model->Save(merged_path).ok());
  }
  EXPECT_EQ(ReadFileBytes(merged_path), ReadFileBytes(one_shot_path))
      << "sharded training produced a different model artifact";
  fs::remove(one_shot_path);
  fs::remove(merged_path);
}

/// The delta path: folding new-data shards into existing statistics and
/// re-running supervision is equivalent to full training on the grown
/// corpus — same model bytes, without the statistics pass over old columns.
TEST(ShardMergeTest, DeltaRetrainEquivalentToFullTrain) {
  const size_t old_columns = 500;
  const size_t new_columns = 620;  // the corpus grew by ~25%
  TrainOptions train = TestTrainOptions();
  train.memory_budget_bytes = 8ull << 20;

  // The generator's column i depends only on (seed, index), so the grown
  // corpus's first 500 columns are exactly the original stream.
  const GeneratorOptions old_gen = TestGenerator(old_columns, 99);
  const GeneratorOptions new_gen = TestGenerator(new_columns, 99);

  const std::string full_path = TempPath("ad_shard_full.model");
  const std::string delta_path = TempPath("ad_shard_delta.model");

  {
    GeneratedColumnSource source(new_gen);
    auto model = TrainModel(&source, train);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE(model->Save(full_path).ok());
  }
  {
    // Yesterday's statistics, kept from the original training run...
    GeneratedColumnSource old_source(old_gen);
    auto base = TrainSession::BuildShard(&old_source, train,
                                         MakeProvenance(old_gen, 0, old_columns));
    ASSERT_TRUE(base.ok()) << base.status().ToString();

    // ...plus one shard over only the new columns.
    GeneratedColumnSource grown(new_gen);
    SlicedColumnSource fresh(&grown, old_columns, new_columns);
    auto delta = TrainSession::BuildShard(
        &fresh, train, MakeProvenance(new_gen, old_columns, new_columns));
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();

    TrainSession session(train);
    ASSERT_TRUE(session.UseStats(std::move(*base)).ok());
    std::vector<StatsShard> additions;
    additions.push_back(std::move(*delta));
    ASSERT_TRUE(session.AddShards(std::move(additions)).ok());
    EXPECT_EQ(session.corpus_columns(), new_columns);

    GeneratedColumnSource source(new_gen);
    ASSERT_TRUE(session.Supervise(&source).ok());
    auto model = session.Finalize();
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    ASSERT_TRUE(model->Save(delta_path).ok());
  }
  EXPECT_EQ(ReadFileBytes(delta_path), ReadFileBytes(full_path))
      << "delta retrain diverged from full training on the grown corpus";
  fs::remove(full_path);
  fs::remove(delta_path);
}

TEST(ShardMergeTest, RejectsIncompatibleShards) {
  const TrainOptions train = TestTrainOptions();
  const GeneratorOptions gen = TestGenerator(120, 5);
  std::vector<StatsShard> shards = BuildPartitionShards(gen, train, {0, 60, 120});

  {
    // Gap: [0, 60) then [70, 120).
    std::vector<StatsShard> gapped = shards;
    gapped[1].provenance.column_begin = 70;
    auto merged = MergeShards(std::move(gapped));
    ASSERT_FALSE(merged.ok());
    EXPECT_NE(merged.status().ToString().find("gap"), std::string::npos);
  }
  {
    // Overlap: [0, 60) and [50, 120).
    std::vector<StatsShard> overlapping = shards;
    overlapping[1].provenance.column_begin = 50;
    auto merged = MergeShards(std::move(overlapping));
    ASSERT_FALSE(merged.ok());
    EXPECT_NE(merged.status().ToString().find("overlap"), std::string::npos);
  }
  {
    // Different statistics options.
    std::vector<StatsShard> skewed = shards;
    skewed[1].options_digest ^= 1;
    auto merged = MergeShards(std::move(skewed));
    ASSERT_FALSE(merged.ok());
    EXPECT_NE(merged.status().ToString().find("options"), std::string::npos);
  }
  {
    // Different corpus.
    std::vector<StatsShard> foreign = shards;
    foreign[1].provenance.seed ^= 1;
    auto merged = MergeShards(std::move(foreign));
    ASSERT_FALSE(merged.ok());
    EXPECT_NE(merged.status().ToString().find("different corpora"),
              std::string::npos);
  }
  EXPECT_FALSE(MergeShards({}).ok());
}

TEST(ShardSessionTest, UseStatsRejectsDigestMismatch) {
  const GeneratorOptions gen = TestGenerator(100, 6);
  const TrainOptions train = TestTrainOptions();
  GeneratedColumnSource source(gen);
  auto shard = TrainSession::BuildShard(&source, train,
                                        MakeProvenance(gen, 0, 100));
  ASSERT_TRUE(shard.ok());

  TrainOptions other = train;
  other.stats.language_ids = {LanguageSpace::IdOf(LanguageSpace::CrudeG()),
                              LanguageSpace::IdOf(LanguageSpace::PaperL1())};
  TrainSession session(other);
  Status adopted = session.UseStats(std::move(*shard));
  ASSERT_FALSE(adopted.ok());
  EXPECT_NE(adopted.ToString().find("options"), std::string::npos);
}

class ShardFailClosedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const GeneratorOptions gen = TestGenerator(80, 7);
    GeneratedColumnSource source(gen);
    auto shard = TrainSession::BuildShard(&source, TestTrainOptions(),
                                          MakeProvenance(gen, 0, 80));
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    path_ = TempPath("ad_shard_failclosed.ads");
    ASSERT_TRUE(WriteShard(path_, *shard).ok());
    bytes_ = ReadFileBytes(path_);
  }
  void TearDown() override { fs::remove(path_); }

  void Rewrite(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(ShardFailClosedTest, RejectsBadMagic) {
  std::string corrupt = bytes_;
  corrupt.replace(0, 8, "NOTSHARD");
  Rewrite(corrupt);
  auto loaded = ReadShard(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  const std::string message = loaded.status().ToString();
  EXPECT_NE(message.find(path_), std::string::npos);
  EXPECT_NE(message.find("expected magic ADSHARD1"), std::string::npos);
  EXPECT_NE(message.find("NOTSHARD"), std::string::npos);
}

TEST_F(ShardFailClosedTest, VersionSkewNamesExpectedAndFound) {
  std::string corrupt = bytes_;
  corrupt[8] = 9;  // u32 version directly after the magic
  Rewrite(corrupt);
  auto loaded = ReadShard(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  const std::string message = loaded.status().ToString();
  EXPECT_NE(message.find(path_), std::string::npos);
  EXPECT_NE(message.find("expected 1, found 9"), std::string::npos);
}

TEST_F(ShardFailClosedTest, TruncationIsIOError) {
  Rewrite(bytes_.substr(0, bytes_.size() - 1));
  auto loaded = ReadShard(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError());
  EXPECT_NE(loaded.status().ToString().find("truncated"), std::string::npos);

  Rewrite(bytes_.substr(0, 16));  // even the header is incomplete
  EXPECT_TRUE(ReadShard(path_).status().IsIOError());
}

TEST_F(ShardFailClosedTest, DataCorruptionNamesSection) {
  std::string corrupt = bytes_;
  corrupt.back() ^= 0x5a;  // the file ends inside the DATA section
  Rewrite(corrupt);
  auto loaded = ReadShard(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  const std::string message = loaded.status().ToString();
  EXPECT_NE(message.find("DATA section"), std::string::npos);
  EXPECT_NE(message.find("checksum mismatch"), std::string::npos);
}

TEST_F(ShardFailClosedTest, TrailingBytesAreCorruption) {
  Rewrite(bytes_ + "x");
  auto loaded = ReadShard(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().ToString().find("trailing"), std::string::npos);
}

// --- Checkpoint loading under injected I/O faults -------------------------
//
// The reduce stage and warm restarts both hinge on artifact loads surviving
// the kernel's legal-but-annoying behaviors (short reads, EINTR) and failing
// CLOSED — with a typed, retryable IOError — when bytes go missing. These
// run only in failpoint builds (tier-1's FAILPOINTS leg); elsewhere they
// skip.

TEST(ShardChaosTest, ReadShardByteExactUnderShortAndInterruptedReads) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "failpoints compiled out (build with "
                    "-DAUTODETECT_FAILPOINTS=ON)";
  }
  const GeneratorOptions gen = TestGenerator(200, 97);
  const TrainOptions train = TestTrainOptions();
  GeneratedColumnSource source(gen);
  auto shard =
      TrainSession::BuildShard(&source, train, MakeProvenance(gen, 0, 200));
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  const std::string path = TempPath("ad_shard_chaos.ads");
  ASSERT_TRUE(WriteShard(path, *shard).ok());

  // Force the buffered-read fallback, then make read(2) deliver one byte at
  // a time for a while and fail with EINTR in between — ReadShard must
  // retry/resume and hand back the exact same statistics.
  failpoint::ScopedFailpoint fallback("io.mmap.fallback");
  failpoint::FailpointSpec some_short;
  some_short.max_hits = 5;
  failpoint::ScopedFailpoint short_reads("io.read.short", some_short);
  failpoint::FailpointSpec some_eintr;
  some_eintr.max_hits = 3;
  some_eintr.skip = 2;
  failpoint::ScopedFailpoint eintr("io.read.eintr", some_eintr);

  auto loaded = ReadShard(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->options_digest, shard->options_digest);
  EXPECT_EQ(loaded->provenance.column_end, shard->provenance.column_end);
  EXPECT_EQ(SerializedStats(loaded->stats), SerializedStats(shard->stats));
  EXPECT_GE(failpoint::Stats("io.mmap.fallback").hits, 1u);
  EXPECT_GE(failpoint::Stats("io.read.short").hits, 1u);
  EXPECT_GE(failpoint::Stats("io.read.eintr").hits, 1u);
  fs::remove(path);
}

TEST(ShardChaosTest, ReadShardTruncateFailpointIsTypedIOError) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "failpoints compiled out (build with "
                    "-DAUTODETECT_FAILPOINTS=ON)";
  }
  const GeneratorOptions gen = TestGenerator(120, 98);
  const TrainOptions train = TestTrainOptions();
  GeneratedColumnSource source(gen);
  auto shard =
      TrainSession::BuildShard(&source, train, MakeProvenance(gen, 0, 120));
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  const std::string path = TempPath("ad_shard_truncate.ads");
  ASSERT_TRUE(WriteShard(path, *shard).ok());

  failpoint::FailpointSpec late;
  late.skip = 4;  // let the header reads through, then starve a later one
  failpoint::ScopedFailpoint truncate("serde.read.truncate", late);
  auto loaded = ReadShard(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
  fs::remove(path);
}

TEST(ShardChaosTest, SessionCheckpointLoadFailsClosedOnTruncateFailpoint) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "failpoints compiled out (build with "
                    "-DAUTODETECT_FAILPOINTS=ON)";
  }
  const GeneratorOptions gen = TestGenerator(120, 99);
  TrainSession session(TestTrainOptions());
  GeneratedColumnSource source(gen);
  ASSERT_TRUE(session.BuildStats(&source).ok());
  const std::string path = TempPath("ad_session_chaos.ckpt");
  ASSERT_TRUE(session.Save(path).ok());

  {
    // Sanity: the checkpoint loads cleanly without faults armed.
    auto clean = TrainSession::Load(path);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_EQ(clean->corpus_columns(), session.corpus_columns());
    EXPECT_EQ(clean->lang_ids(), session.lang_ids());
  }

  failpoint::FailpointSpec late;
  late.skip = 6;
  failpoint::ScopedFailpoint truncate("serde.read.truncate", late);
  auto loaded = TrainSession::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
  fs::remove(path);
}

TEST(CorpusStatsInsertTest, InsertMergesIntoExistingLanguage) {
  LanguageStats a;
  a.AddColumn({1, 2});
  a.AddColumn({2, 3});
  LanguageStats b;
  b.AddColumn({2});

  CorpusStats stats;
  stats.Insert(7, std::move(a));
  stats.Insert(7, std::move(b));  // merge-or-fail, not silent overwrite
  EXPECT_EQ(stats.ForLanguage(7).num_columns(), 3u);
  EXPECT_EQ(stats.ForLanguage(7).Count(2), 3u);
  EXPECT_EQ(stats.ForLanguage(7).Count(1), 1u);
  EXPECT_EQ(stats.ForLanguage(7).CoCount(1, 2), 1u);
}

}  // namespace
}  // namespace autodetect
