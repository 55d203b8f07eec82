// Unit tests for the common runtime: Status/Result, RNG, hashing, strings,
// bitset, thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/bitset.h"
#include "common/xxhash64.h"
#include "common/flat_map.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "stats/sorted_counts.h"

namespace autodetect {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_TRUE(s.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Invalid("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalid());
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "Invalid: bad input");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::CapacityExceeded("x").IsCapacityExceeded());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, CopyAndMoveSemantics) {
  Status s = Status::NotFound("missing");
  Status copy = s;
  EXPECT_EQ(copy, s);
  Status moved = std::move(s);
  EXPECT_TRUE(moved.IsNotFound());
  EXPECT_EQ(moved.message(), "missing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::Invalid("a"), Status::Invalid("a"));
  EXPECT_FALSE(Status::Invalid("a") == Status::Invalid("b"));
  EXPECT_FALSE(Status::Invalid("a") == Status::OK());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = [] { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    AD_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsIOError());
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(std::move(r).ValueOr(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<std::string> r = std::string("hello");
  EXPECT_EQ(std::move(r).ValueOr("fallback"), "hello");
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto producer = [](bool ok) -> Result<int> {
    if (ok) return 7;
    return Status::Invalid("no");
  };
  auto consumer = [&](bool ok) -> Result<int> {
    AD_ASSIGN_OR_RETURN(int v, producer(ok));
    return v * 2;
  };
  EXPECT_EQ(*consumer(true), 14);
  EXPECT_TRUE(consumer(false).status().IsInvalid());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

// ---------------------------------------------------------------- Random

TEST(RandomTest, DeterministicForSeed) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU32(), b.NextU32());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU32() == b.NextU32());
  EXPECT_LT(same, 4);
}

TEST(RandomTest, BelowStaysInRange) {
  Pcg32 rng(9);
  for (uint32_t bound : {1u, 2u, 7u, 100u, 1000000u}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.Below(bound), bound);
  }
}

TEST(RandomTest, BelowOneIsAlwaysZero) {
  Pcg32 rng(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.Below(1), 0u);
}

TEST(RandomTest, UniformCoversInclusiveRange) {
  Pcg32 rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.Uniform(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Pcg32 rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, ChanceZeroAndOne) {
  Pcg32 rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RandomTest, ChanceApproximatesProbability) {
  Pcg32 rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RandomTest, GaussianMoments) {
  Pcg32 rng(23);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RandomTest, ZipfSkewsTowardLowRanks) {
  Pcg32 rng(29);
  int low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    uint32_t v = rng.NextZipf(100, 1.5);
    EXPECT_LT(v, 100u);
    low += v < 10 ? 1 : 0;
  }
  EXPECT_GT(low, n / 2);  // heavy head
}

TEST(RandomTest, ShufflePreservesMultiset) {
  Pcg32 rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end()), b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RandomTest, ForkIsIndependentOfParentContinuation) {
  Pcg32 a(77);
  Pcg32 child = a.Fork();
  uint32_t child_first = child.NextU32();
  // Recreate: forking at the same state yields the same child stream.
  Pcg32 b(77);
  Pcg32 child2 = b.Fork();
  EXPECT_EQ(child2.NextU32(), child_first);
}

// ------------------------------------------------------------------ Hash

TEST(HashTest, Fnv1a64KnownVectors) {
  // Published FNV-1a test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(HashTest, CombineUnorderedIsSymmetric) {
  Pcg32 rng(3);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.NextU64(), b = rng.NextU64();
    EXPECT_EQ(CombineUnordered(a, b), CombineUnordered(b, a));
  }
}

TEST(HashTest, CombineUnorderedSeparatesPairs) {
  EXPECT_NE(CombineUnordered(1, 2), CombineUnordered(1, 3));
  EXPECT_NE(CombineUnordered(1, 2), CombineUnordered(2, 2));
}

TEST(HashTest, PairwiseHashInRangeAndDeterministic) {
  PairwiseHash h(12345, 67890);
  for (uint64_t x : {0ULL, 1ULL, 999ULL, ~0ULL}) {
    uint64_t v = h(x, 100);
    EXPECT_LT(v, 100u);
    EXPECT_EQ(v, h(x, 100));
  }
}

TEST(HashTest, PairwiseHashFamilyMembersDiffer) {
  PairwiseHash h1(3, 5), h2(7, 11);
  int same = 0;
  for (uint64_t x = 0; x < 200; ++x) same += (h1(x, 1024) == h2(x, 1024));
  EXPECT_LT(same, 20);
}

// ------------------------------------------------------------- StringUtil

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, JoinInvertsSplit) {
  Pcg32 rng(41);
  for (int i = 0; i < 50; ++i) {
    std::vector<std::string> parts;
    int n = static_cast<int>(rng.Uniform(1, 5));
    for (int j = 0; j < n; ++j) {
      std::string p;
      for (int k = static_cast<int>(rng.Uniform(0, 4)); k > 0; --k) {
        p.push_back(static_cast<char>('a' + rng.Below(26)));
      }
      parts.push_back(p);
    }
    EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
  }
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\r\nx\n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(StringUtilTest, ToLowerAsciiOnlyTouchesAsciiLetters) {
  EXPECT_EQ(ToLowerAscii("AbC-12"), "abc-12");
}

TEST(StringUtilTest, IsAllDigits) {
  EXPECT_TRUE(IsAllDigits("0123456789"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_FALSE(IsAllDigits("12a"));
  EXPECT_FALSE(IsAllDigits("-12"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, PadLeft) {
  EXPECT_EQ(PadLeft("7", 3, '0'), "007");
  EXPECT_EQ(PadLeft("1234", 3, '0'), "1234");
  EXPECT_EQ(PadLeft("", 2, 'x'), "xx");
}

TEST(StringUtilTest, ThousandSeparators) {
  EXPECT_EQ(WithThousandSeparators(0), "0");
  EXPECT_EQ(WithThousandSeparators(999), "999");
  EXPECT_EQ(WithThousandSeparators(1000), "1,000");
  EXPECT_EQ(WithThousandSeparators(1234567), "1,234,567");
  EXPECT_EQ(WithThousandSeparators(-1234), "-1,234");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KB");
  EXPECT_EQ(HumanBytes(3ull << 20), "3.0 MB");
}

// ---------------------------------------------------------------- Bitset

TEST(BitsetTest, SetAndTest) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.Popcount(), 0u);
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Popcount(), 3u);
}

TEST(BitsetTest, UnionAndCountNew) {
  DynamicBitset a(100), b(100);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  EXPECT_EQ(b.CountNewOver(a), 1u);  // only bit 3 is new
  a.UnionWith(b);
  EXPECT_EQ(a.Popcount(), 3u);
  EXPECT_EQ(b.CountNewOver(a), 0u);
}

TEST(BitsetTest, EqualityAndSelfUnion) {
  DynamicBitset a(64), b(64);
  a.Set(5);
  b.Set(5);
  EXPECT_EQ(a, b);
  a.UnionWith(a);
  EXPECT_EQ(a.Popcount(), 1u);
}

// -------------------------------------------------------------- FlatMap64

TEST(FlatMapTest, InsertFindAndGrowth) {
  FlatMap64 m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(7), nullptr);
  for (uint64_t k = 1; k <= 1000; ++k) m[k * 0x9E3779B97F4A7C15ULL] = k;
  EXPECT_EQ(m.size(), 1000u);
  for (uint64_t k = 1; k <= 1000; ++k) {
    const uint64_t* v = m.Find(k * 0x9E3779B97F4A7C15ULL);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k);
  }
  EXPECT_EQ(m.Find(12345), nullptr);
  EXPECT_EQ(m.GetOr(12345, 99), 99u);
  // Power-of-two capacity at <= 0.75 load.
  EXPECT_GE(m.capacity() * 3, m.size() * 4);
  EXPECT_EQ(m.capacity() & (m.capacity() - 1), 0u);
}

TEST(FlatMapTest, OperatorBracketIncrementsInPlace) {
  FlatMap64 m;
  for (int i = 0; i < 5; ++i) ++m[42];
  EXPECT_EQ(m.GetOr(42), 5u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMapTest, ZeroKeyIsAValidKey) {
  FlatMap64 m;
  EXPECT_EQ(m.Find(0), nullptr);
  m[0] = 17;
  ASSERT_NE(m.Find(0), nullptr);
  EXPECT_EQ(m.GetOr(0), 17u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.capacity(), 0u);  // key 0 lives in the side slot, not the array
}

TEST(FlatMapTest, ReserveAvoidsRehashAndResetKeepsCapacity) {
  FlatMap64 m;
  m.Reserve(1000);
  size_t cap = m.capacity();
  EXPECT_GE(cap * 3, 1000u * 4);
  for (uint64_t k = 1; k <= 1000; ++k) m[k];
  EXPECT_EQ(m.capacity(), cap);  // no growth after Reserve
  m[0] = 3;
  m.Reset();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), cap);  // kept for the next column
  EXPECT_EQ(m.Find(1), nullptr);
  EXPECT_EQ(m.Find(0), nullptr);
  m[1] = 4;
  EXPECT_EQ(m.GetOr(1), 4u);
}

/// The frozen probe table of `entries` (ascending keys) in `storage`.
FlatMap64::FrozenView FreezeTable(const std::vector<FlatMap64::Slot>& entries,
                                  std::vector<uint64_t>* storage) {
  storage->clear();
  FlatMap64::FrozenView::AppendCanonical(entries, storage);
  auto view = FlatMap64::FrozenView::FromBytes(storage->data(), storage->size() * 8);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->bytes(), storage->size() * 8);
  return *view;
}

FlatMap64::FrozenView FreezeTable(const std::map<uint64_t, uint64_t>& reference,
                                  std::vector<uint64_t>* storage) {
  std::vector<FlatMap64::Slot> entries;
  for (const auto& [k, v] : reference) entries.push_back(FlatMap64::Slot{k, v});
  return FreezeTable(entries, storage);
}

TEST(FlatMapTest, ForEachVisitsEveryEntryOnce) {
  std::map<uint64_t, uint64_t> reference;
  Pcg32 rng(3);
  for (int i = 0; i < 500; ++i) {
    uint64_t k = rng.NextU64() >> (i % 32);  // mix of sparse and clustered keys
    ++reference[k];
  }
  reference[0] = 9;  // the header's side slot is visited too
  std::vector<uint64_t> storage;
  const FlatMap64::FrozenView view = FreezeTable(reference, &storage);
  std::map<uint64_t, uint64_t> seen;
  view.ForEach([&](uint64_t k, uint64_t v) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "key visited twice";
  });
  EXPECT_EQ(seen, reference);
}

TEST(FlatMapTest, FuzzAgainstUnorderedMap) {
  FlatMap64 m;
  std::unordered_map<uint64_t, uint64_t> reference;
  Pcg32 rng(20180610);
  for (int i = 0; i < 20000; ++i) {
    // Small key space forces heavy update-vs-insert mixing and collisions.
    uint64_t k = rng.Below(4096);
    uint64_t delta = rng.Below(100);
    m[k] += delta;
    reference[k] += delta;
    if (i % 97 == 0) {
      uint64_t probe = rng.Below(8192);
      auto it = reference.find(probe);
      EXPECT_EQ(m.GetOr(probe, ~0ULL),
                it == reference.end() ? ~0ULL : it->second);
    }
  }
  EXPECT_EQ(m.size(), reference.size());
  for (const auto& [k, v] : reference) EXPECT_EQ(m.GetOr(k), v);
}

TEST(FlatMapTest, GrowthExactlyAtMaxLoadFactor) {
  // Fill to the 0.75 boundary of each capacity and step across it; every
  // entry must survive the rehash and capacity must stay a power of two.
  FlatMap64 m;
  size_t last_cap = 0;
  for (uint64_t k = 1; k <= 10000; ++k) {
    m[Mix64(k)] = k;
    ASSERT_GE(m.capacity() * 3, m.size() * 4) << "load factor above 0.75";
    ASSERT_EQ(m.capacity() & (m.capacity() - 1), 0u);
    if (m.capacity() != last_cap) {
      // Just grew: everything inserted so far must still be reachable.
      for (uint64_t p = 1; p <= k; ++p) ASSERT_EQ(m.GetOr(Mix64(p)), p);
      last_cap = m.capacity();
    }
  }
  EXPECT_EQ(m.size(), 10000u);
}

TEST(FlatMapTest, ReserveZeroAndNoopReserves) {
  FlatMap64 m;
  m.Reserve(0);  // must not allocate or crash
  EXPECT_TRUE(m.empty());
  m[1] = 2;
  size_t cap = m.capacity();
  m.Reserve(0);  // never shrinks
  m.Reserve(1);
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.GetOr(1), 2u);
}

TEST(FlatMapTest, ExtremeKeysZeroAndMax) {
  FlatMap64 m;
  m[0] = 11;
  m[UINT64_MAX] = 22;
  m[1] = 33;
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.GetOr(0), 11u);
  EXPECT_EQ(m.GetOr(UINT64_MAX), 22u);
  // Both extremes survive growth.
  for (uint64_t k = 2; k <= 500; ++k) m[k] = k;
  EXPECT_EQ(m.GetOr(0), 11u);
  EXPECT_EQ(m.GetOr(UINT64_MAX), 22u);
  EXPECT_EQ(m.size(), 502u);
}

/// `counts` as training holds them: ascending (key, count) entries.
SortedCounts SortedOf(const std::map<uint64_t, uint64_t>& counts) {
  std::vector<SortedCounts::Entry> entries;
  for (const auto& [k, v] : counts) entries.push_back(SortedCounts::Entry{k, v});
  Result<SortedCounts> sorted = SortedCounts::FromSorted(std::move(entries));
  EXPECT_TRUE(sorted.ok());
  return std::move(*sorted);
}

TEST(SortedCountsTest, MergeIntoNonEmptyWithOverlap) {
  const SortedCounts b = SortedOf({{0, 2},      // overlaps the zero-key side slot
                                   {20, 50},    // overlaps a regular key
                                   {30, 300}});  // disjoint
  SortedCounts a = SortedOf({{0, 1}, {10, 100}, {20, 200}});
  a = SortedCounts::Merge(a, b);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(a.Get(0), 3u);
  EXPECT_EQ(a.Get(10), 100u);
  EXPECT_EQ(a.Get(20), 250u);
  EXPECT_EQ(a.Get(30), 300u);
  // `b` is untouched.
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.Get(20), 50u);
  // The merged entries freeze to a probe table that answers the same.
  std::vector<uint64_t> storage;
  const FlatMap64::FrozenView view = FreezeTable(a.entries(), &storage);
  EXPECT_EQ(view.size(), 4u);
  EXPECT_EQ(view.GetOr(0), 3u);
  EXPECT_EQ(view.GetOr(20), 250u);

  // Merging an empty map is a no-op; merging into an empty map copies.
  SortedCounts empty;
  a = SortedCounts::Merge(a, empty);
  EXPECT_EQ(a.size(), 4u);
  empty = SortedCounts::Merge(empty, a);
  EXPECT_EQ(empty.size(), 4u);
  EXPECT_EQ(empty.Get(0), 3u);
}

TEST(SortedCountsTest, MergeFuzzAgainstUnorderedMap) {
  Pcg32 rng(777);
  std::unordered_map<uint64_t, uint64_t> reference;
  SortedCounts merged;
  for (int shard = 0; shard < 8; ++shard) {
    std::map<uint64_t, uint64_t> part;
    for (int i = 0; i < 500; ++i) {
      uint64_t k = rng.Below(256);  // heavy cross-shard overlap, includes 0
      uint64_t delta = 1 + rng.Below(10);
      part[k] += delta;
      reference[k] += delta;
    }
    merged = SortedCounts::Merge(merged, SortedOf(part));
  }
  EXPECT_EQ(merged.size(), reference.size());
  for (const auto& [k, v] : reference) EXPECT_EQ(merged.Get(k), v);
  std::vector<uint64_t> storage;
  const FlatMap64::FrozenView view = FreezeTable(merged.entries(), &storage);
  EXPECT_EQ(view.size(), reference.size());
  for (const auto& [k, v] : reference) EXPECT_EQ(view.GetOr(k), v);
}

TEST(FlatMapTest, MemoryBytesMonotoneUnderInserts) {
  // Training prices a dictionary by SortedCounts::MemoryBytes, the bytes of
  // the probe table it will freeze to.
  SortedCounts m;
  size_t last = m.MemoryBytes();
  for (uint64_t k = 1; k <= 5000; ++k) {
    m = SortedCounts::Merge(m, SortedOf({{Mix64(k), k}}));
    size_t now = m.MemoryBytes();
    ASSERT_GE(now, last) << "MemoryBytes shrank during insert " << k;
    last = now;
  }
  EXPECT_GT(last, 5000u * 16u * 3u / 4u);  // at least n slots at <=0.75 load
}

TEST(FlatMapTest, IncrementingAnExistingKeyAtFullLoadDoesNotGrow) {
  // 12 keys fill 16 slots to exactly 0.75 load; only a 13th key may grow.
  FlatMap64 m;
  for (uint64_t k = 1; k <= 12; ++k) m[Mix64(k)] = k;
  ASSERT_EQ(m.capacity(), 16u);
  ++m[Mix64(5)];
  EXPECT_EQ(m.capacity(), 16u);
  EXPECT_EQ(m.GetOr(Mix64(5)), 6u);
  m[Mix64(13)] = 13;
  EXPECT_EQ(m.capacity(), 32u);
  for (uint64_t k = 1; k <= 13; ++k) {
    EXPECT_EQ(m.GetOr(Mix64(k)), k == 5 ? 6u : k);
  }
}

/// The knapsack prices a dictionary by MemoryBytes() before Finalize
/// freezes it, so the price must equal the frozen table's, whatever the
/// history.
void ExpectPricedLikeCanonicalCopy(const SortedCounts& m, const std::string& how) {
  std::vector<uint64_t> storage;
  const FlatMap64::FrozenView canonical = FreezeTable(m.entries(), &storage);
  EXPECT_EQ(m.MemoryBytes(), canonical.capacity() * sizeof(FlatMap64::Slot)) << how;
  EXPECT_EQ(m.MemoryBytes(), canonical.bytes() - 32) << how;  // all but the header
}

TEST(FlatMapTest, MemoryBytesEqualsTheCanonicalCopys) {
  for (uint64_t n : {0, 1, 11, 12, 13, 24, 25, 97, 1000}) {
    const std::string label = std::to_string(n) + " keys";
    std::map<uint64_t, uint64_t> inserted;
    for (uint64_t k = 1; k <= n; ++k) ++inserted[Mix64(k)];
    for (uint64_t k = 1; k <= n; ++k) ++inserted[Mix64(k)];  // existing keys
    ExpectPricedLikeCanonicalCopy(SortedOf(inserted), "insertion, " + label);

    std::map<uint64_t, uint64_t> left, right;
    for (uint64_t k = 1; k <= n; ++k) ++(k % 3 == 0 ? left : right)[Mix64(k)];
    for (uint64_t k = 1; k <= n; k += 2) ++left[Mix64(k)];  // overlapping keys
    const SortedCounts merged = SortedCounts::Merge(SortedOf(left), SortedOf(right));
    ExpectPricedLikeCanonicalCopy(merged, "Merge, " + label);
  }
  ExpectPricedLikeCanonicalCopy(SortedOf({{0, 7}}), "zero key only");
}

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(257);
  ThreadPool::ParallelFor(hits.size(), 4,
                          [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool::ParallelFor(0, 4, [](size_t) { FAIL(); });
  int calls = 0;
  ThreadPool::ParallelFor(1, 4, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}


// --------------------------------------------------------------- XxHash64

TEST(XxHash64Test, PublishedVectors) {
  // Reference vectors from the canonical xxHash implementation.
  EXPECT_EQ(XxHash64("", 0), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(XxHash64("a", 1), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(XxHash64("abc", 3), 0x44BC2CF5AD770999ull);
  const char* fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(XxHash64(fox, 43), 0x0B242D361FDA71BCull);
}

TEST(XxHash64Test, SeedAndLengthSensitivity) {
  EXPECT_NE(XxHash64("a", 1, 0), XxHash64("a", 1, 1));
  EXPECT_NE(XxHash64("ab", 2), XxHash64("ba", 2));
  // Stress every input-length residue of the 32/8/4/1-byte tail loops.
  std::set<uint64_t> seen;
  std::string buf;
  for (int n = 0; n <= 100; ++n) {
    seen.insert(XxHash64(buf.data(), buf.size()));
    buf.push_back(static_cast<char>('a' + n % 26));
  }
  EXPECT_EQ(seen.size(), 101u);
}

// ------------------------------------------------------------ FrozenView

TEST(FrozenViewTest, MatchesLiveMapOnRandomKeys) {
  Pcg32 rng(31337);
  FlatMap64 map;
  std::map<uint64_t, uint64_t> reference;
  for (int i = 0; i < 5000; ++i) {
    // Narrow key space so collisions and probe chains actually occur; key 0
    // (the internal empty-slot sentinel) is exercised on purpose.
    uint64_t key = rng.Below(8192);
    uint64_t value = rng.NextU64();
    map[key] = value;
    reference[key] = value;
  }
  std::vector<uint64_t> storage;
  FlatMap64::FrozenView view = FreezeTable(reference, &storage);
  EXPECT_EQ(view.size(), reference.size());
  EXPECT_EQ(view.bytes(),
            32 + FlatMap64::FrozenView::CanonicalBytes(reference.size() - reference.count(0)));
  for (const auto& [key, value] : reference) {
    ASSERT_NE(view.Find(key), nullptr) << key;
    EXPECT_EQ(view.GetOr(key), value) << key;
  }
  for (int i = 0; i < 2000; ++i) {
    uint64_t probe = rng.NextU64();
    EXPECT_EQ(view.GetOr(probe, 123), map.GetOr(probe, 123)) << probe;
  }
  // ForEach visits exactly the reference pairs.
  std::map<uint64_t, uint64_t> visited;
  view.ForEach([&](uint64_t k, uint64_t v) { visited[k] = v; });
  EXPECT_EQ(visited, reference);
  // AppendTo re-emits a blob an identical view can be built from.
  std::string reblob;
  view.AppendTo(&reblob);
  EXPECT_EQ(reblob.size(), view.bytes());
}

TEST(FrozenViewTest, EmptyMapFreezes) {
  std::vector<uint64_t> storage;
  FlatMap64::FrozenView view = FreezeTable(std::map<uint64_t, uint64_t>{}, &storage);
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.Find(7), nullptr);
  EXPECT_EQ(view.GetOr(0, 9), 9u);
}

TEST(FrozenViewTest, RejectsBadBlobs) {
  std::vector<uint64_t> storage;
  FreezeTable(std::map<uint64_t, uint64_t>{{0, 5}, {1, 10}}, &storage);
  const std::string blob(reinterpret_cast<const char*>(storage.data()), storage.size() * 8);

  // Misaligned base pointer.
  auto misaligned = FlatMap64::FrozenView::FromBytes(
      reinterpret_cast<const uint8_t*>(storage.data()) + 1, blob.size() - 1);
  EXPECT_TRUE(misaligned.status().IsCorruption());

  // Truncated: shorter than the header, and shorter than the slot array.
  EXPECT_TRUE(
      FlatMap64::FrozenView::FromBytes(storage.data(), 8).status().IsIOError());
  EXPECT_TRUE(FlatMap64::FrozenView::FromBytes(storage.data(), blob.size() - 16)
                  .status()
                  .IsIOError());

  // Corrupt header fields: non-power-of-two capacity, size > capacity,
  // has_zero out of range.
  std::vector<uint64_t> bad = storage;
  bad[3] = 3;
  EXPECT_TRUE(FlatMap64::FrozenView::FromBytes(bad.data(), blob.size())
                  .status()
                  .IsCorruption());
  bad = storage;
  bad[0] = bad[3] + 1;
  EXPECT_TRUE(FlatMap64::FrozenView::FromBytes(bad.data(), blob.size())
                  .status()
                  .IsCorruption());
  bad = storage;
  bad[1] = 2;
  EXPECT_TRUE(FlatMap64::FrozenView::FromBytes(bad.data(), blob.size())
                  .status()
                  .IsCorruption());
}

TEST(FrozenViewTest, FullCorruptTableFindTerminates) {
  // A blob whose slot array is full of non-matching keys must not probe
  // forever: Find is bounded to capacity_ probes.
  constexpr uint64_t kCapacity = 16;
  std::vector<uint64_t> words(4 + kCapacity * 2);
  words[0] = kCapacity;  // size
  words[1] = 0;          // has_zero
  words[2] = 0;
  words[3] = kCapacity;
  for (uint64_t i = 0; i < kCapacity; ++i) {
    words[4 + 2 * i] = 1000 + i;  // key
    words[5 + 2 * i] = i;         // value
  }
  auto view = FlatMap64::FrozenView::FromBytes(words.data(), words.size() * 8);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->Find(42), nullptr);  // absent key, full table: must return
  EXPECT_EQ(view->GetOr(1003, 0), 3u);
}

}  // namespace
}  // namespace autodetect
