#include "stats/frozen_stats.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"

namespace autodetect {

namespace {

/// Stats blob flags: exact tables, or a sketch held in the SKCH section.
/// Flags 1 was a sketch embedded in the blob itself.
constexpr uint64_t kExactFlags = 0;
constexpr uint64_t kEmbeddedSketchFlags = 1;
constexpr uint64_t kSketchFlags = 3;

using Words = std::vector<uint64_t>;

/// The stats blob header plus the canonical c(p) table, in a fresh buffer.
std::shared_ptr<Words> FrozenCounts(const LanguageStats& stats, uint64_t flags) {
  auto words = std::make_shared<Words>();
  words->push_back(stats.num_columns());
  words->push_back(flags);
  FlatMap64::FrozenView::AppendCanonical(stats.counts().entries(), words.get());
  return words;
}

}  // namespace

uint64_t FrozenStats::CoCount(uint64_t key1, uint64_t key2) const {
  if (key1 == key2) return Count(key1);
  if (sketched_) return CoCount(key1, key2, Count(key1), Count(key2));
  return co_.GetOr(CombineUnordered(key1, key2));
}

uint64_t FrozenStats::CoCount(uint64_t key1, uint64_t key2, uint64_t count1,
                              uint64_t count2) const {
  if (key1 == key2) return count1;
  const uint64_t pair_key = CombineUnordered(key1, key2);
  if (!sketched_) return co_.GetOr(pair_key);
  // Min-estimate over conservative-update counters, NOT the count-mean-min
  // correction: co-occurrence mass is strongly zipf, so the mean
  // per-counter noise the correction subtracts exceeds most true pair
  // counts and zeroes the tail wholesale — measured on the training
  // corpora, it erases ~95% of real pairs and collapses detection
  // precision. CU+min never underestimates and its overestimate shrinks
  // rapidly with width. Two exact bounds tighten it further (marginal
  // counts are never sketched): a pair co-occurs at most as often as its
  // rarer pattern occurs, which caps the relative error exactly where
  // collision noise is proportionally worst — the rare-pattern pairs the
  // detector's tail quality lives on — and a never-seen pattern cannot
  // co-occur at all.
  const uint64_t cap = std::min(count1, count2);
  if (cap == 0) return 0;
  // The loader must AttachSketch before serving.
  AD_DCHECK(sketch_.valid());
  return std::min(sketch_.Estimate(pair_key), cap);
}

size_t FrozenStats::CoMemoryBytes() const {
  return sketched_ ? sketch_.CounterBytes() : co_.capacity() * sizeof(FlatMap64::Slot);
}

void FrozenStats::AttachSketch(CountMinSketch::FrozenView view) {
  AD_CHECK(sketched_ && !sketch_.valid());
  sketch_ = std::move(view);
}

void FrozenStats::AppendFrozen(std::string* out) const {
  const uint64_t head[2] = {num_columns_, sketched_ ? kSketchFlags : kExactFlags};
  out->append(reinterpret_cast<const char*>(head), sizeof(head));
  counts_.AppendTo(out);
  if (!sketched_) co_.AppendTo(out);
}

void FrozenStats::AppendSketchFrozen(std::string* out) const {
  AD_CHECK(sketched_ && sketch_.valid());
  sketch_.AppendTo(out);
}

Result<FrozenStats> FrozenStats::FromFrozen(const void* data, size_t len,
                                            std::shared_ptr<const void> owner) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  if (reinterpret_cast<uintptr_t>(p) % 8 != 0) {
    return Status::Corruption("frozen stats blob is not 8-byte aligned");
  }
  if (len < 16) {
    return Status::IOError("truncated frozen stats: header needs 16 bytes, got " +
                           std::to_string(len));
  }
  uint64_t head[2];
  std::memcpy(head, p, sizeof(head));
  if (head[1] == kEmbeddedSketchFlags) {
    return Status::Invalid(
        "frozen stats embed their co-occurrence sketch, a retired form this build "
        "no longer reads; retrain the model (autodetect_cli train)");
  }
  if (head[1] != kExactFlags && head[1] != kSketchFlags) {
    return Status::Corruption("frozen stats header: unknown flags");
  }
  FrozenStats stats;
  stats.num_columns_ = head[0];
  stats.sketched_ = head[1] == kSketchFlags;
  size_t off = 16;
  AD_ASSIGN_OR_RETURN(stats.counts_, FlatMap64::FrozenView::FromBytes(p + off, len - off));
  off += stats.counts_.bytes();
  if (!stats.sketched_) {
    AD_ASSIGN_OR_RETURN(stats.co_, FlatMap64::FrozenView::FromBytes(p + off, len - off));
    off += stats.co_.bytes();
  }
  if (off != len) {
    return Status::Corruption("frozen stats: blob has " + std::to_string(len - off) +
                              " trailing bytes");
  }
  stats.owner_ = std::move(owner);
  return stats;
}

FrozenStats Freeze(const LanguageStats& stats) {
  std::shared_ptr<Words> words = FrozenCounts(stats, kExactFlags);
  FlatMap64::FrozenView::AppendCanonical(stats.co_counts().entries(), words.get());
  Result<FrozenStats> frozen =
      FrozenStats::FromFrozen(words->data(), words->size() * sizeof(uint64_t), words);
  AD_CHECK(frozen.ok()) << frozen.status().ToString();
  return std::move(*frozen);
}

Result<FrozenStats> Freeze(const LanguageStats& stats, const SketchSpec& sketch) {
  if (!(sketch.ratio > 0.0 && sketch.ratio <= 1.0)) {
    return Status::Invalid("sketch ratio must be in (0, 1]");
  }
  // Conservative update is order-dependent: feed the pairs in the canonical
  // probe order of the exact table, so the sketch bytes are a pure function
  // of the counts. Conservative update suits zipf pair counts, where it cuts
  // the min-estimate's overestimate several-fold versus plain Add at the
  // same width (see CoCount for why the estimate is the plain min).
  const size_t budget = std::max<size_t>(
      64, static_cast<size_t>(stats.CoMemoryBytes() * sketch.ratio));
  CountMinSketch cms = CountMinSketch::FromMemoryBudget(budget, SketchSpec::kDepth, sketch.seed);
  {
    Words co;
    FlatMap64::FrozenView::AppendCanonical(stats.co_counts().entries(), &co);
    AD_ASSIGN_OR_RETURN(FlatMap64::FrozenView table,
                        FlatMap64::FrozenView::FromBytes(co.data(), co.size() * sizeof(uint64_t)));
    table.ForEach([&cms](uint64_t pair_key, uint64_t count) {
      cms.AddConservative(pair_key, count);
    });
  }
  std::string sketch_blob;
  cms.AppendFrozen(&sketch_blob);  // a whole number of 64-byte planes

  std::shared_ptr<Words> words = FrozenCounts(stats, kSketchFlags);
  const size_t stats_words = words->size();
  words->resize(stats_words + sketch_blob.size() / sizeof(uint64_t));
  std::memcpy(words->data() + stats_words, sketch_blob.data(), sketch_blob.size());
  AD_ASSIGN_OR_RETURN(FrozenStats frozen,
                      FrozenStats::FromFrozen(words->data(),
                                              stats_words * sizeof(uint64_t), words));
  AD_ASSIGN_OR_RETURN(CountMinSketch::FrozenView view,
                      CountMinSketch::FrozenView::FromBytes(words->data() + stats_words,
                                                            sketch_blob.size()));
  frozen.AttachSketch(std::move(view));
  return frozen;
}

}  // namespace autodetect
