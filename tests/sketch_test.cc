// Tests for the count-min sketch: never-underestimate invariant, (eps,
// delta) error bound, conservative update, serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "common/random.h"
#include "sketch/count_min.h"

namespace autodetect {
namespace {

TEST(CountMinTest, ExactWhenNoCollisions) {
  CountMinSketch sketch(1024, 4);
  sketch.Add(1, 5);
  sketch.Add(2, 7);
  EXPECT_EQ(sketch.Estimate(1), 5u);
  EXPECT_EQ(sketch.Estimate(2), 7u);
  EXPECT_EQ(sketch.TotalMass(), 12u);
}

TEST(CountMinTest, UnseenKeyOftenZeroInSparseSketch) {
  CountMinSketch sketch(4096, 4);
  for (uint64_t k = 0; k < 10; ++k) sketch.Add(k, 1);
  // With 10 keys in 4096 buckets, an unseen key collides with ~0 prob.
  size_t zeros = 0;
  for (uint64_t k = 1000; k < 1100; ++k) zeros += sketch.Estimate(k) == 0 ? 1 : 0;
  EXPECT_GE(zeros, 95u);
}

// Property: the sketch never underestimates, for random streams.
class CountMinPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CountMinPropertyTest, NeverUnderestimates) {
  Pcg32 rng(static_cast<uint64_t>(GetParam()));
  CountMinSketch sketch(64, 4, static_cast<uint64_t>(GetParam()));
  std::map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 3000; ++i) {
    uint64_t key = rng.NextZipf(500, 1.3);  // skewed, forces collisions
    uint64_t count = rng.Uniform(1, 5);
    sketch.Add(key, count);
    truth[key] += count;
  }
  for (const auto& [key, count] : truth) {
    EXPECT_GE(sketch.Estimate(key), count);
  }
}

TEST_P(CountMinPropertyTest, ConservativeUpdateNeverUnderestimatesAndIsTighter) {
  Pcg32 rng(static_cast<uint64_t>(GetParam()) + 100);
  CountMinSketch plain(64, 4, 42);
  CountMinSketch conservative(64, 4, 42);
  std::map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 3000; ++i) {
    uint64_t key = rng.NextZipf(500, 1.3);
    plain.Add(key, 1);
    conservative.AddConservative(key, 1);
    truth[key] += 1;
  }
  uint64_t plain_err = 0, cons_err = 0;
  for (const auto& [key, count] : truth) {
    ASSERT_GE(conservative.Estimate(key), count);
    plain_err += plain.Estimate(key) - count;
    cons_err += conservative.Estimate(key) - count;
  }
  EXPECT_LE(cons_err, plain_err);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountMinPropertyTest, ::testing::Range(1, 6));

TEST(CountMinTest, EpsilonDeltaBoundHolds) {
  const double eps = 0.01, delta = 0.01;
  CountMinSketch sketch = CountMinSketch::FromErrorBounds(eps, delta, 7);
  Pcg32 rng(7);
  std::map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 20000; ++i) {
    uint64_t key = rng.Below(2000);
    sketch.Add(key);
    truth[key] += 1;
  }
  const double bound = eps * static_cast<double>(sketch.TotalMass());
  size_t violations = 0;
  for (const auto& [key, count] : truth) {
    if (static_cast<double>(sketch.Estimate(key) - count) > bound) ++violations;
  }
  // P(violation) <= delta per key; allow generous slack.
  EXPECT_LE(violations, truth.size() / 20);
}

TEST(CountMinTest, FromErrorBoundsSizing) {
  CountMinSketch sketch = CountMinSketch::FromErrorBounds(0.01, 0.05);
  EXPECT_GE(sketch.width(), static_cast<size_t>(std::exp(1.0) / 0.01));
  EXPECT_GE(sketch.depth(), 3u);  // ln(20) ~ 3
}

TEST(CountMinTest, FromMemoryBudgetRespectsBudget) {
  for (size_t budget : {256u, 4096u, 1u << 20}) {
    CountMinSketch sketch = CountMinSketch::FromMemoryBudget(budget, 4);
    EXPECT_LE(sketch.MemoryBytes(), budget + 4 * sizeof(uint32_t));
    EXPECT_EQ(sketch.depth(), 4u);
  }
}

TEST(CountMinTest, TinyBudgetStillWorks) {
  CountMinSketch sketch = CountMinSketch::FromMemoryBudget(1, 4);
  sketch.Add(5, 3);
  EXPECT_GE(sketch.Estimate(5), 3u);
}

TEST(CountMinTest, SaturatesInsteadOfWrapping) {
  CountMinSketch sketch(4, 1);
  sketch.Add(1, (1ull << 32) - 10);
  sketch.Add(1, 100);  // would wrap a u32
  EXPECT_EQ(sketch.Estimate(1), 0xffffffffull);
}

TEST(CountMinTest, SerializationRoundTrip) {
  CountMinSketch sketch(128, 3, 99);
  Pcg32 rng(3);
  std::map<uint64_t, uint64_t> truth;
  for (int i = 0; i < 500; ++i) {
    uint64_t k = rng.Below(200);
    sketch.Add(k);
    truth[k] += 1;
  }
  std::stringstream ss;
  BinaryWriter w(&ss);
  sketch.Serialize(&w);
  BinaryReader r(&ss);
  auto restored = CountMinSketch::Deserialize(&r);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->TotalMass(), sketch.TotalMass());
  EXPECT_EQ(restored->width(), sketch.width());
  EXPECT_EQ(restored->depth(), sketch.depth());
  for (const auto& [key, _] : truth) {
    EXPECT_EQ(restored->Estimate(key), sketch.Estimate(key));
  }
}

TEST(CountMinTest, DeserializeRejectsGarbage) {
  std::stringstream ss;
  BinaryWriter w(&ss);
  w.WriteU64(0);  // width 0
  w.WriteU64(4);
  BinaryReader r(&ss);
  EXPECT_FALSE(CountMinSketch::Deserialize(&r).ok());
}

TEST(CountMinTest, MemoryBytesMatchesDimensions) {
  CountMinSketch sketch(100, 5);
  EXPECT_EQ(sketch.MemoryBytes(), 100u * 5u * sizeof(uint32_t));
}

// ---------------------------------------------------------------------------
// Budget sizing: power-of-two widths and knapsack-honest planned bytes.

TEST(CountMinTest, WidthForBudgetIsPowerOfTwoUnderBudget) {
  for (size_t budget : {1u, 15u, 16u, 17u, 255u, 4096u, 65537u, 1u << 20}) {
    for (size_t depth : {1u, 3u, 4u, 8u}) {
      const size_t width = CountMinSketch::WidthForBudget(budget, depth);
      EXPECT_GE(width, 1u);
      EXPECT_EQ(width & (width - 1), 0u) << "width " << width << " not 2^k";
      if (width > 1) {
        // Non-degenerate widths respect the budget exactly, and doubling
        // the width would blow it (i.e. the width is maximal).
        EXPECT_LE(width * depth * sizeof(uint32_t), budget);
        EXPECT_GT(2 * width * depth * sizeof(uint32_t), budget);
      }
    }
  }
}

TEST(CountMinTest, PlannedBytesMatchesActualAllocation) {
  for (size_t budget : {1u, 100u, 4096u, 1u << 18}) {
    CountMinSketch sketch = CountMinSketch::FromMemoryBudget(budget, 4);
    EXPECT_EQ(CountMinSketch::PlannedBytes(budget, 4), sketch.MemoryBytes());
  }
}

TEST(CountMinTest, EpsilonNBoundUnderBudgetSizing) {
  // The documented guarantee for budget sizing: overestimate <= eps*N with
  // eps = e/width, failing with probability <= e^-depth per key. Check it
  // over randomized skewed workloads.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    CountMinSketch sketch = CountMinSketch::FromMemoryBudget(8192, 4, seed);
    Pcg32 rng(seed * 31);
    std::map<uint64_t, uint64_t> truth;
    for (int i = 0; i < 30000; ++i) {
      uint64_t key = rng.NextZipf(4000, 1.2);
      sketch.Add(key);
      truth[key] += 1;
    }
    const double eps = std::exp(1.0) / static_cast<double>(sketch.width());
    const double bound = eps * static_cast<double>(sketch.TotalMass());
    size_t violations = 0;
    for (const auto& [key, count] : truth) {
      ASSERT_GE(sketch.Estimate(key), count);  // never underestimates
      if (static_cast<double>(sketch.Estimate(key) - count) > bound) {
        ++violations;
      }
    }
    // delta = e^-4 ~ 1.8% per key; allow generous slack over the keyset.
    EXPECT_LE(violations, truth.size() / 10) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Merge: exactness on Add streams, associativity / commutativity, and
// dimension/seed compatibility checks.

namespace {

/// Feeds `n` zipf-keyed increments from `seed` into `sketch` and `truth`.
void FeedStream(uint64_t seed, int n, CountMinSketch* sketch,
                std::map<uint64_t, uint64_t>* truth) {
  Pcg32 rng(seed);
  for (int i = 0; i < n; ++i) {
    uint64_t key = rng.NextZipf(800, 1.3);
    uint64_t count = rng.Uniform(1, 4);
    sketch->Add(key, count);
    if (truth != nullptr) (*truth)[key] += count;
  }
}

}  // namespace

TEST(CountMinMergeTest, MergeEqualsSketchOfConcatenatedStreams) {
  CountMinSketch a(256, 4, 7), b(256, 4, 7), whole(256, 4, 7);
  std::map<uint64_t, uint64_t> truth;
  FeedStream(11, 2000, &a, &truth);
  FeedStream(22, 2000, &b, &truth);
  FeedStream(11, 2000, &whole, nullptr);
  FeedStream(22, 2000, &whole, nullptr);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.TotalMass(), whole.TotalMass());
  for (const auto& [key, count] : truth) {
    EXPECT_EQ(a.Estimate(key), whole.Estimate(key));
    EXPECT_GE(a.Estimate(key), count);
  }
}

TEST(CountMinMergeTest, MergeIsCommutative) {
  CountMinSketch ab(128, 4, 3), ba(128, 4, 3);
  {
    CountMinSketch a(128, 4, 3), b(128, 4, 3);
    FeedStream(5, 1500, &a, nullptr);
    FeedStream(6, 1500, &b, nullptr);
    ASSERT_TRUE(a.Merge(b).ok());
    ab = std::move(a);
  }
  {
    CountMinSketch a(128, 4, 3), b(128, 4, 3);
    FeedStream(5, 1500, &a, nullptr);
    FeedStream(6, 1500, &b, nullptr);
    ASSERT_TRUE(b.Merge(a).ok());
    ba = std::move(b);
  }
  EXPECT_EQ(ab.TotalMass(), ba.TotalMass());
  for (uint64_t key = 0; key < 900; ++key) {
    EXPECT_EQ(ab.Estimate(key), ba.Estimate(key));
  }
}

TEST(CountMinMergeTest, MergeIsAssociative) {
  auto fresh = [](uint64_t stream) {
    CountMinSketch s(128, 4, 9);
    FeedStream(stream, 1000, &s, nullptr);
    return s;
  };
  // (a + b) + c
  CountMinSketch left = fresh(1);
  {
    CountMinSketch b = fresh(2);
    ASSERT_TRUE(left.Merge(b).ok());
    CountMinSketch c = fresh(3);
    ASSERT_TRUE(left.Merge(c).ok());
  }
  // a + (b + c)
  CountMinSketch right = fresh(1);
  {
    CountMinSketch bc = fresh(2);
    CountMinSketch c = fresh(3);
    ASSERT_TRUE(bc.Merge(c).ok());
    ASSERT_TRUE(right.Merge(bc).ok());
  }
  EXPECT_EQ(left.TotalMass(), right.TotalMass());
  for (uint64_t key = 0; key < 900; ++key) {
    EXPECT_EQ(left.Estimate(key), right.Estimate(key));
  }
}

TEST(CountMinMergeTest, MergeRejectsIncompatibleSketches) {
  CountMinSketch base(128, 4, 1);
  CountMinSketch wrong_width(256, 4, 1);
  CountMinSketch wrong_depth(128, 3, 1);
  CountMinSketch wrong_seed(128, 4, 2);
  EXPECT_TRUE(base.Merge(wrong_width).IsInvalid());
  EXPECT_TRUE(base.Merge(wrong_depth).IsInvalid());
  EXPECT_TRUE(base.Merge(wrong_seed).IsInvalid());
  // And the failed merges left the target untouched.
  EXPECT_EQ(base.TotalMass(), 0u);
}

TEST(CountMinMergeTest, MergeSaturates) {
  CountMinSketch a(4, 1, 1), b(4, 1, 1);
  a.Add(1, (1ull << 32) - 10);
  b.Add(1, 100);
  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.Estimate(1), 0xffffffffull);
}

// ---------------------------------------------------------------------------
// Frozen blob: deterministic bytes, zero-copy estimate parity, fail-closed
// validation.

namespace {

/// A populated sketch plus its ground truth, for frozen round-trips.
CountMinSketch PopulatedSketch(std::map<uint64_t, uint64_t>* truth) {
  CountMinSketch sketch(512, 4, 1234);
  FeedStream(77, 4000, &sketch, truth);
  return sketch;
}

}  // namespace

TEST(CountMinFrozenTest, AppendFrozenIsDeterministic) {
  CountMinSketch sketch = PopulatedSketch(nullptr);
  std::string first, second;
  sketch.AppendFrozen(&first);
  sketch.AppendFrozen(&second);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), CountMinSketch::FrozenBytes(sketch.width(), sketch.depth()));
  // Whole multiple of the plane alignment, so blobs can be laid back to
  // back in the SKCH section without losing cache-line alignment.
  EXPECT_EQ(first.size() % CountMinSketch::kPlaneAlign, 0u);
}

TEST(CountMinFrozenTest, FrozenViewEstimatesMatchOwningSketch) {
  std::map<uint64_t, uint64_t> truth;
  CountMinSketch sketch = PopulatedSketch(&truth);
  std::string blob;
  sketch.AppendFrozen(&blob);
  auto view = CountMinSketch::FrozenView::FromBytes(blob.data(), blob.size());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_TRUE(view->valid());
  EXPECT_EQ(view->width(), sketch.width());
  EXPECT_EQ(view->depth(), sketch.depth());
  EXPECT_EQ(view->TotalMass(), sketch.TotalMass());
  EXPECT_EQ(view->CounterBytes(), sketch.MemoryBytes());
  EXPECT_EQ(view->bytes(), blob.size());
  for (const auto& [key, count] : truth) {
    EXPECT_EQ(view->Estimate(key), sketch.Estimate(key));
    EXPECT_GE(view->Estimate(key), count);
  }
  // Unseen keys agree too (same hash mapping end to end).
  for (uint64_t key = 1u << 20; key < (1u << 20) + 200; ++key) {
    EXPECT_EQ(view->Estimate(key), sketch.Estimate(key));
  }
}

TEST(CountMinFrozenTest, AppendToReemitsIdenticalBytes) {
  CountMinSketch sketch = PopulatedSketch(nullptr);
  std::string blob;
  sketch.AppendFrozen(&blob);
  auto view = CountMinSketch::FrozenView::FromBytes(blob.data(), blob.size());
  ASSERT_TRUE(view.ok());
  std::string reemitted;
  view->AppendTo(&reemitted);
  EXPECT_EQ(reemitted, blob);
}

TEST(CountMinFrozenTest, ThawRestoresEstimates) {
  std::map<uint64_t, uint64_t> truth;
  CountMinSketch sketch = PopulatedSketch(&truth);
  std::string blob;
  sketch.AppendFrozen(&blob);
  auto view = CountMinSketch::FrozenView::FromBytes(blob.data(), blob.size());
  ASSERT_TRUE(view.ok());
  CountMinSketch thawed = view->Thaw();
  EXPECT_EQ(thawed.TotalMass(), sketch.TotalMass());
  for (const auto& [key, _] : truth) {
    EXPECT_EQ(thawed.Estimate(key), sketch.Estimate(key));
  }
  // A thawed sketch is mutable and merge-compatible with the original.
  EXPECT_TRUE(thawed.Merge(sketch).ok());
}

TEST(CountMinFrozenTest, TruncationIsIOErrorStructuralDamageIsCorruption) {
  CountMinSketch sketch(64, 4, 5);
  sketch.Add(3, 9);
  std::string blob;
  sketch.AppendFrozen(&blob);

  // Truncated anywhere — header, hash params, or planes — is IOError.
  for (size_t len : {size_t{0}, size_t{8}, size_t{47},
                     CountMinSketch::kFrozenHeadBytes, blob.size() - 1,
                     blob.size() - CountMinSketch::kPlaneAlign}) {
    auto view = CountMinSketch::FrozenView::FromBytes(blob.data(), len);
    ASSERT_FALSE(view.ok()) << "len " << len;
    EXPECT_TRUE(view.status().IsIOError()) << view.status().ToString();
  }

  // Bad magic is Corruption.
  {
    std::string bad = blob;
    bad[0] ^= 0x5a;
    auto view = CountMinSketch::FrozenView::FromBytes(bad.data(), bad.size());
    ASSERT_FALSE(view.ok());
    EXPECT_TRUE(view.status().IsCorruption()) << view.status().ToString();
  }

  // Zeroed width is Corruption.
  {
    std::string bad = blob;
    std::fill(bad.begin() + 8, bad.begin() + 16, '\0');
    auto view = CountMinSketch::FrozenView::FromBytes(bad.data(), bad.size());
    ASSERT_FALSE(view.ok());
    EXPECT_TRUE(view.status().IsCorruption()) << view.status().ToString();
  }

  // Misaligned base pointer is Corruption (mmap sections are 8-aligned by
  // construction; a stray offset means the caller's bookkeeping is wrong).
  {
    auto view = CountMinSketch::FrozenView::FromBytes(blob.data() + 1,
                                                      blob.size() - 1);
    ASSERT_FALSE(view.ok());
    EXPECT_TRUE(view.status().IsCorruption()) << view.status().ToString();
  }
}

}  // namespace
}  // namespace autodetect
