#include "stats/language_stats.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/hash.h"
#include "common/logging.h"

namespace autodetect {

void LanguageStats::AddColumn(const std::vector<uint64_t>& distinct_keys) {
  AD_CHECK(!frozen_);  // frozen stats are immutable by contract
  ++num_columns_;
  for (uint64_t k : distinct_keys) ++counts_[k];
  AD_DCHECK(!sketch_.has_value());  // building after compression is unsupported
  for (size_t i = 0; i < distinct_keys.size(); ++i) {
    for (size_t j = i + 1; j < distinct_keys.size(); ++j) {
      ++co_counts_[CombineUnordered(distinct_keys[i], distinct_keys[j])];
    }
  }
}

uint64_t LanguageStats::CoCount(uint64_t key1, uint64_t key2) const {
  if (key1 == key2) return Count(key1);
  uint64_t pair_key = CombineUnordered(key1, key2);
  if (uses_sketch()) {
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
    const uint64_t cap = std::min(Count(key1), Count(key2));
    if (cap == 0) return 0;
    // The loader must AttachSketch before serving an external sketch.
    AD_DCHECK(sketch_.has_value() || sketch_view_.valid());
    const uint64_t est = sketch_.has_value() ? sketch_->Estimate(pair_key)
                                             : sketch_view_.Estimate(pair_key);
    return std::min(est, cap);
  }
  return frozen_ ? co_view_.GetOr(pair_key) : co_counts_.GetOr(pair_key);
}

size_t LanguageStats::MemoryBytes() const {
  return (frozen_ ? counts_view_.bytes() : counts_.MemoryBytes()) + CoMemoryBytes();
}

size_t LanguageStats::CoMemoryBytes() const {
  if (sketch_.has_value()) return sketch_->MemoryBytes();
  if (sketch_external_) return sketch_view_.CounterBytes();
  return frozen_ ? co_view_.bytes() : co_counts_.MemoryBytes();
}

size_t LanguageStats::SketchWidth() const {
  if (sketch_.has_value()) return sketch_->width();
  return sketch_external_ ? sketch_view_.width() : 0;
}

size_t LanguageStats::SketchDepth() const {
  if (sketch_.has_value()) return sketch_->depth();
  return sketch_external_ ? sketch_view_.depth() : 0;
}

void LanguageStats::AttachSketch(CountMinSketch::FrozenView view) {
  AD_CHECK(frozen_ && sketch_external_ && !sketch_view_.valid());
  sketch_view_ = std::move(view);
}

Status LanguageStats::CompressImpl(size_t budget_bytes, uint64_t seed) {
  if (frozen_) return Status::Invalid("cannot compress frozen stats");
  if (uses_sketch()) return Status::Invalid("already compressed");
  CountMinSketch sketch =
      CountMinSketch::FromMemoryBudget(budget_bytes, /*depth=*/4, seed);
  // Conservative update: pair counts are strongly zipf, where CU cuts the
  // min-estimate's overestimate several-fold versus plain Add at the same
  // width. It forfeits the count-mean-min correction (which needs rows that
  // sum to the total mass), but CoCount serves Estimate anyway — see the
  // rationale there.
  co_counts_.ForEach([&](uint64_t pair_key, uint64_t count) {
    sketch.AddConservative(pair_key, count);
  });
  sketch_ = std::move(sketch);
  co_counts_.Clear();
  return Status::OK();
}

Status LanguageStats::CompressToSketch(double ratio, uint64_t seed) {
  if (!(ratio > 0.0 && ratio <= 1.0)) {
    return Status::Invalid("sketch ratio must be in (0, 1]");
  }
  size_t dict_bytes = co_counts_.MemoryBytes();
  size_t budget = std::max<size_t>(64, static_cast<size_t>(dict_bytes * ratio));
  return CompressImpl(budget, seed);
}

Status LanguageStats::CompressToSketchBudget(size_t budget_bytes, uint64_t seed) {
  if (budget_bytes == 0) return Status::Invalid("sketch budget must be nonzero");
  return CompressImpl(budget_bytes, seed);
}

void LanguageStats::ForEachCoCount(
    const std::function<void(uint64_t, uint64_t)>& fn) const {
  if (frozen_) {
    co_view_.ForEach(fn);
  } else {
    co_counts_.ForEach(fn);
  }
}

void LanguageStats::ForEachCount(
    const std::function<void(uint64_t, uint64_t)>& fn) const {
  if (frozen_) {
    counts_view_.ForEach(fn);
  } else {
    counts_.ForEach(fn);
  }
}

void LanguageStats::Merge(const LanguageStats& other) {
  AD_CHECK(!frozen_ && !other.frozen_);
  AD_CHECK(!sketch_.has_value() && !other.sketch_.has_value());
  num_columns_ += other.num_columns_;
  counts_.MergeAdd(other.counts_);
  co_counts_.MergeAdd(other.co_counts_);
}

void LanguageStats::MergeCanonical(const LanguageStats& other) {
  AD_CHECK(!frozen_ && !other.frozen_);
  AD_CHECK(!uses_sketch() && !other.uses_sketch());
  num_columns_ += other.num_columns_;
  counts_ = FlatMap64::MergeSorted(counts_, other.counts_);
  co_counts_ = FlatMap64::MergeSorted(co_counts_, other.co_counts_);
}

void LanguageStats::Canonicalize() {
  AD_CHECK(!frozen_ && !uses_sketch());
  counts_.Canonicalize();
  co_counts_.Canonicalize();
}

namespace {

/// Serialized dictionaries are written in ascending key order — the wire
/// contract that lets Deserialize rebuild the canonical probe layout
/// directly (FlatMap64::FromSorted) instead of replaying inserts and
/// re-sorting afterwards.
///
/// A Slot is two explicit-width little-endian words, so on the (assumed)
/// little-endian host the slot array's in-memory bytes ARE the wire
/// encoding — entries move with one bulk read/write instead of two calls
/// per entry. The frozen-map format (AppendFrozen) bakes in the same
/// assumption.
void WriteSortedSlots(BinaryWriter* writer,
                      const std::vector<FlatMap64::Slot>& entries) {
  writer->WriteU64(entries.size());
  if (!entries.empty()) {
    writer->WriteRaw(entries.data(), entries.size() * sizeof(FlatMap64::Slot));
  }
}

void WriteSortedMap(BinaryWriter* writer, const FlatMap64& map) {
  if (const std::vector<FlatMap64::Slot>* cached = map.sorted_cache()) {
    WriteSortedSlots(writer, *cached);
  } else {
    WriteSortedSlots(writer, map.CollectSorted());
  }
}

Result<FlatMap64> ReadSortedEntries(BinaryReader* reader, bool defer_hash) {
  AD_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
  std::vector<FlatMap64::Slot> entries;
  // Read in bounded chunks so a corrupt length fails at the first
  // out-of-bounds read instead of a huge upfront allocation.
  constexpr uint64_t kChunkSlots = 1 << 16;
  while (entries.size() < n) {
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(kChunkSlots, n - entries.size()));
    const size_t old = entries.size();
    entries.resize(old + take);
    Status read = reader->ReadRaw(entries.data() + old,
                                  take * sizeof(FlatMap64::Slot));
    if (!read.ok()) return read;
  }
  return FlatMap64::FromSorted(std::move(entries), defer_hash);
}

}  // namespace

void LanguageStats::Serialize(BinaryWriter* writer) const {
  AD_CHECK(!frozen_);
  writer->WriteU64(num_columns_);
  WriteSortedMap(writer, counts_);
  writer->WriteU8(uses_sketch() ? 1 : 0);
  if (sketch_.has_value()) {
    sketch_->Serialize(writer);
  } else {
    WriteSortedMap(writer, co_counts_);
  }
}

void LanguageStats::AppendFrozen(std::string* out, bool external_sketch) const {
  const bool sketched = uses_sketch();
  AD_CHECK(!external_sketch || sketched);
  uint64_t flags = sketched ? (external_sketch ? 3u : 1u) : 0u;
  uint64_t head[2] = {num_columns_, flags};
  out->append(reinterpret_cast<const char*>(head), sizeof(head));
  if (frozen_) {
    counts_view_.AppendTo(out);
  } else {
    counts_.AppendFrozen(out);
  }
  if (sketched && external_sketch) {
    return;  // sketch bytes land in the SKCH section via AppendSketchFrozen
  }
  if (sketched) {
    std::ostringstream sketch_bytes;
    BinaryWriter sketch_writer(&sketch_bytes);
    if (sketch_.has_value()) {
      sketch_->Serialize(&sketch_writer);
    } else {
      sketch_view_.Thaw().Serialize(&sketch_writer);
    }
    std::string s = std::move(sketch_bytes).str();
    uint64_t len = s.size();
    out->append(reinterpret_cast<const char*>(&len), sizeof(len));
    out->append(s);
    out->append((8 - s.size() % 8) % 8, '\0');  // keep the blob 8-aligned
  } else if (frozen_) {
    co_view_.AppendTo(out);
  } else {
    co_counts_.AppendFrozen(out);
  }
}

void LanguageStats::AppendSketchFrozen(std::string* out) const {
  AD_CHECK(uses_sketch());
  if (sketch_.has_value()) {
    sketch_->AppendFrozen(out);
  } else {
    AD_CHECK(sketch_view_.valid());
    sketch_view_.AppendTo(out);
  }
}

Result<LanguageStats> LanguageStats::FromFrozen(const void* data, size_t len) {
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
  if (head[1] > 3 || head[1] == 2) {
    return Status::Corruption("frozen stats header: unknown flags");
  }
  LanguageStats stats;
  stats.frozen_ = true;
  stats.num_columns_ = head[0];
  size_t off = 16;
  AD_ASSIGN_OR_RETURN(stats.counts_view_,
                      FlatMap64::FrozenView::FromBytes(p + off, len - off));
  off += stats.counts_view_.bytes();
  if (head[1] == 3) {
    // Sketch lives in the model's SKCH section; the loader attaches it.
    stats.sketch_external_ = true;
  } else if (head[1] & 1) {
    BinaryReader reader(p + off, len - off);
    AD_ASSIGN_OR_RETURN(uint64_t sketch_len, reader.ReadU64());
    if (sketch_len > len - off - 8) {
      return Status::Corruption("frozen stats: sketch length exceeds blob");
    }
    AD_ASSIGN_OR_RETURN(CountMinSketch sketch, CountMinSketch::Deserialize(&reader));
    if (reader.offset() - 8 != sketch_len) {
      return Status::Corruption("frozen stats: sketch length mismatch");
    }
    stats.sketch_ = std::move(sketch);
    off += 8 + static_cast<size_t>(sketch_len) + (8 - sketch_len % 8) % 8;
  } else {
    AD_ASSIGN_OR_RETURN(stats.co_view_,
                        FlatMap64::FrozenView::FromBytes(p + off, len - off));
    off += stats.co_view_.bytes();
  }
  if (off != len) {
    return Status::Corruption("frozen stats: blob has " + std::to_string(len - off) +
                              " trailing bytes");
  }
  return stats;
}

Result<LanguageStats> LanguageStats::Deserialize(BinaryReader* reader,
                                                 bool defer_hash) {
  LanguageStats stats;
  AD_ASSIGN_OR_RETURN(stats.num_columns_, reader->ReadU64());
  AD_ASSIGN_OR_RETURN(stats.counts_, ReadSortedEntries(reader, defer_hash));
  AD_ASSIGN_OR_RETURN(uint8_t has_sketch, reader->ReadU8());
  if (has_sketch) {
    AD_ASSIGN_OR_RETURN(CountMinSketch sketch, CountMinSketch::Deserialize(reader));
    stats.sketch_ = std::move(sketch);
  } else {
    AD_ASSIGN_OR_RETURN(stats.co_counts_, ReadSortedEntries(reader, defer_hash));
  }
  return stats;
}

void LanguageStats::EnsureHashed() {
  AD_CHECK(!frozen_);
  counts_.EnsureHashed();
  co_counts_.EnsureHashed();
}

}  // namespace autodetect
