#include "sketch/count_min.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "common/random.h"

namespace autodetect {

namespace {
constexpr uint32_t kCounterMax = std::numeric_limits<uint32_t>::max();

uint32_t SaturatingAdd(uint32_t a, uint64_t b) {
  uint64_t sum = static_cast<uint64_t>(a) + b;
  return sum > kCounterMax ? kCounterMax : static_cast<uint32_t>(sum);
}

size_t RoundUpTo(size_t n, size_t align) {
  return (n + align - 1) / align * align;
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

constexpr char CountMinSketch::kFrozenMagic[9];

CountMinSketch::CountMinSketch(size_t width, size_t depth, uint64_t seed)
    : width_(std::max<size_t>(1, width)) {
  depth = std::max<size_t>(1, depth);
  Pcg32 rng(seed);
  hashes_.reserve(depth);
  for (size_t i = 0; i < depth; ++i) {
    hashes_.emplace_back(rng.NextU64() % (PairwiseHash::kPrime - 1) + 1,
                         rng.NextU64() % PairwiseHash::kPrime);
  }
  rows_.assign(depth * width_, 0);
}

CountMinSketch CountMinSketch::FromErrorBounds(double epsilon, double delta,
                                               uint64_t seed) {
  AD_CHECK(epsilon > 0 && epsilon < 1);
  AD_CHECK(delta > 0 && delta < 1);
  size_t width = static_cast<size_t>(std::ceil(std::exp(1.0) / epsilon));
  size_t depth = static_cast<size_t>(std::ceil(std::log(1.0 / delta)));
  return CountMinSketch(width, std::max<size_t>(1, depth), seed);
}

size_t CountMinSketch::WidthForBudget(size_t budget_bytes, size_t depth) {
  depth = std::max<size_t>(1, depth);
  size_t max_counters = budget_bytes / (depth * sizeof(uint32_t));
  size_t width = 1;
  while (width <= max_counters / 2) width *= 2;
  return width;
}

size_t CountMinSketch::PlannedBytes(size_t budget_bytes, size_t depth) {
  depth = std::max<size_t>(1, depth);
  return WidthForBudget(budget_bytes, depth) * depth * sizeof(uint32_t);
}

CountMinSketch CountMinSketch::FromMemoryBudget(size_t budget_bytes, size_t depth,
                                                uint64_t seed) {
  depth = std::max<size_t>(1, depth);
  return CountMinSketch(WidthForBudget(budget_bytes, depth), depth, seed);
}

void CountMinSketch::Add(uint64_t key, uint64_t count) {
  const size_t d = hashes_.size();
  for (size_t i = 0; i < d; ++i) {
    size_t idx = i * width_ + hashes_[i](key, width_);
    rows_[idx] = SaturatingAdd(rows_[idx], count);
  }
  total_ += count;
}

uint64_t CountMinSketch::Estimate(uint64_t key) const {
  uint32_t best = kCounterMax;
  const size_t d = hashes_.size();
  for (size_t i = 0; i < d; ++i) {
    best = std::min(best, rows_[i * width_ + hashes_[i](key, width_)]);
  }
  return best;
}

void CountMinSketch::AddConservative(uint64_t key, uint64_t count) {
  const size_t d = hashes_.size();
  uint64_t target = Estimate(key) + count;
  for (size_t i = 0; i < d; ++i) {
    size_t idx = i * width_ + hashes_[i](key, width_);
    if (rows_[idx] < target) {
      rows_[idx] = target > kCounterMax ? kCounterMax : static_cast<uint32_t>(target);
    }
  }
  total_ += count;
}

size_t CountMinSketch::FrozenBytes(size_t width, size_t depth) {
  size_t planes_off = RoundUpTo(kFrozenHeadBytes + depth * 16, kPlaneAlign);
  size_t stride = RoundUpTo(width * sizeof(uint32_t), kPlaneAlign);
  return planes_off + depth * stride;
}

void CountMinSketch::AppendFrozen(std::string* out) const {
  const size_t depth = hashes_.size();
  const size_t stride = RoundUpTo(width_ * sizeof(uint32_t), kPlaneAlign);
  const size_t planes_off = RoundUpTo(kFrozenHeadBytes + depth * 16, kPlaneAlign);
  const size_t start = out->size();
  out->append(kFrozenMagic, 8);
  AppendU64(out, width_);
  AppendU64(out, depth);
  AppendU64(out, total_);
  AppendU64(out, stride);
  AppendU64(out, planes_off);
  for (const auto& h : hashes_) {
    AppendU64(out, h.a());
    AppendU64(out, h.b());
  }
  out->append(start + planes_off - out->size(), '\0');
  for (size_t i = 0; i < depth; ++i) {
    out->append(reinterpret_cast<const char*>(rows_.data() + i * width_),
                width_ * sizeof(uint32_t));
    out->append(stride - width_ * sizeof(uint32_t), '\0');
  }
  AD_DCHECK(out->size() - start == FrozenBytes(width_, depth));
}

Result<CountMinSketch::FrozenView> CountMinSketch::FrozenView::FromBytes(
    const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  if (reinterpret_cast<uintptr_t>(p) % 8 != 0) {
    return Status::Corruption("frozen sketch blob is not 8-byte aligned");
  }
  if (len < kFrozenHeadBytes) {
    return Status::IOError("truncated frozen sketch: header needs " +
                           std::to_string(kFrozenHeadBytes) + " bytes, got " +
                           std::to_string(len));
  }
  if (std::memcmp(p, kFrozenMagic, 8) != 0) {
    return Status::Corruption("frozen sketch: bad magic");
  }
  uint64_t head[5];
  std::memcpy(head, p + 8, sizeof(head));
  const uint64_t width = head[0], depth = head[1], total = head[2];
  const uint64_t stride = head[3], planes_off = head[4];
  if (width == 0 || width > (1ULL << 31) || depth == 0 || depth > 64) {
    return Status::Corruption("frozen sketch: implausible dimensions (width " +
                              std::to_string(width) + ", depth " +
                              std::to_string(depth) + ")");
  }
  if (stride < width * sizeof(uint32_t) || stride % 8 != 0 ||
      stride > (1ULL << 33)) {
    return Status::Corruption("frozen sketch: bad plane stride");
  }
  if (planes_off < kFrozenHeadBytes + depth * 16 || planes_off % 8 != 0 ||
      planes_off > (1ULL << 20)) {
    return Status::Corruption("frozen sketch: bad planes offset");
  }
  const uint64_t required = planes_off + depth * stride;
  if (required > len) {
    return Status::IOError("truncated frozen sketch: needs " +
                           std::to_string(required) + " bytes, got " +
                           std::to_string(len));
  }
  FrozenView view;
  view.base_ = p;
  view.planes_ = p + planes_off;
  view.bytes_ = static_cast<size_t>(required);
  view.width_ = static_cast<size_t>(width);
  view.plane_stride_ = static_cast<size_t>(stride);
  view.total_ = total;
  view.hashes_.reserve(depth);
  const uint8_t* params = p + kFrozenHeadBytes;
  for (uint64_t i = 0; i < depth; ++i) {
    uint64_t ab[2];
    std::memcpy(ab, params + i * 16, sizeof(ab));
    view.hashes_.emplace_back(ab[0], ab[1]);
  }
  return view;
}

uint64_t CountMinSketch::FrozenView::Estimate(uint64_t key) const {
  uint32_t best = kCounterMax;
  const size_t d = hashes_.size();
  for (size_t i = 0; i < d; ++i) {
    const uint32_t* plane =
        reinterpret_cast<const uint32_t*>(planes_ + i * plane_stride_);
    best = std::min(best, plane[hashes_[i](key, width_)]);
  }
  return best;
}

void CountMinSketch::FrozenView::AppendTo(std::string* out) const {
  out->append(reinterpret_cast<const char*>(base_), bytes_);
}

}  // namespace autodetect
