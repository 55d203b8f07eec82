#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "io/serde.h"

/// \file count_min.h
/// Count–min sketch (Cormode & Muthukrishnan 2005), used per paper Sec. 3.4
/// to compress per-language co-occurrence dictionaries by 10–100x. The
/// sketch never underestimates: estimate(k) >= true(k), and with
/// width = ceil(e/eps), depth = ceil(ln(1/delta)) it overestimates by at
/// most eps*N with probability 1-delta (N = total inserted mass).
///
/// Budget-driven sizing (FromMemoryBudget / WidthForBudget) rounds the width
/// DOWN to a power of two, so counter storage never exceeds the budget and
/// the trainer's selection knapsack can price a sketched language honestly
/// (PlannedBytes is exactly what FromMemoryBudget will allocate). The
/// resulting guarantee for a budget B and depth d is
///
///   width = 2^floor(log2(B / (4*d)))          (>= 1 even for tiny budgets)
///   eps   = e / width                          (overestimate <= eps*N)
///   delta = e^-d                               (probability of exceeding it)
///
/// so halving the budget at fixed depth doubles eps in the worst case;
/// AddConservative tightens this considerably on the power-law key
/// distributions real co-occurrence tables exhibit.

namespace autodetect {

class CountMinSketch {
 public:
  /// \brief Direct sizing. \param width counters per row, \param depth rows.
  CountMinSketch(size_t width, size_t depth, uint64_t seed = 0xc0ffee);

  /// \brief Sizing from the (eps, delta) guarantee.
  static CountMinSketch FromErrorBounds(double epsilon, double delta,
                                        uint64_t seed = 0xc0ffee);

  /// \brief Sizes the sketch to at most `budget_bytes` of counter storage
  /// with the given depth: width = WidthForBudget(budget_bytes, depth).
  /// Degenerate budgets (below depth * 4 bytes) still get width 1 so the
  /// sketch stays functional, which is the only case that can exceed the
  /// budget.
  static CountMinSketch FromMemoryBudget(size_t budget_bytes, size_t depth = 4,
                                         uint64_t seed = 0xc0ffee);

  /// \brief The power-of-two width FromMemoryBudget(budget_bytes, depth)
  /// picks: the largest 2^k with 2^k * depth * 4 <= budget_bytes, min 1.
  static size_t WidthForBudget(size_t budget_bytes, size_t depth);

  /// \brief Exactly MemoryBytes() of the sketch FromMemoryBudget would
  /// build — the trainer prices knapsack candidates with this so the memory
  /// budget reflects what the model artifact will actually carry.
  static size_t PlannedBytes(size_t budget_bytes, size_t depth);

  /// Adds `count` to key. Counters saturate instead of wrapping.
  void Add(uint64_t key, uint64_t count = 1);

  /// Point estimate: min over rows. Never below the true count.
  uint64_t Estimate(uint64_t key) const;

  /// Conservative update variant of Add: only raises counters that are
  /// below the new estimate. Strictly reduces overestimation on skewed
  /// (power-law) key distributions — the distribution shape the paper
  /// observes for real co-occurrence counts. Unlike plain Add, the rows'
  /// counters no longer each sum to TotalMass().
  void AddConservative(uint64_t key, uint64_t count = 1);

  /// \brief Element-wise sum with `other` (counter saturation preserved).
  /// Requires identical width, depth and hash parameters — i.e. both
  /// sketches built with the same (width, depth, seed). Merging sketches fed
  /// by plain Add is exact: the merged sketch equals the sketch of the
  /// concatenated streams, so Merge is associative and commutative (the
  /// property distributed stats aggregation relies on). Sketches fed by
  /// AddConservative merge safely (never-underestimate still holds) but the
  /// merged estimates may be looser than a single-pass conservative build.
  Status Merge(const CountMinSketch& other);

  /// Total mass inserted (sum of all Add counts).
  uint64_t TotalMass() const { return total_; }

  size_t width() const { return width_; }
  size_t depth() const { return rows_.size() / (width_ ? width_ : 1); }

  /// Bytes of counter storage (the dominant memory term).
  size_t MemoryBytes() const { return rows_.size() * sizeof(uint32_t); }

  void Serialize(BinaryWriter* writer) const;
  static Result<CountMinSketch> Deserialize(BinaryReader* reader);

  /// Frozen blob geometry: header + hash params padded to kPlaneAlign, then
  /// depth counter planes each padded to a kPlaneAlign multiple, so planes
  /// start cache-line-aligned whenever the blob does (the ADMODEL2 SKCH
  /// section starts page-aligned and concatenates whole blobs, so every
  /// blob — and hence every plane — keeps the alignment). Cache-line, not
  /// page, alignment: page-padding each plane costs a ~20 KiB floor per
  /// sketched language, which defeats small-width sketches entirely, while
  /// 64-byte alignment preserves the only property Estimate() needs (no
  /// counter read straddles a cache line). Every blob is a whole multiple
  /// of kPlaneAlign bytes.
  static constexpr size_t kPlaneAlign = 64;
  static constexpr char kFrozenMagic[9] = "CMSKETCH";  ///< 8 on-disk bytes
  static constexpr size_t kFrozenHeadBytes = 48;  ///< magic + 5 u64 fields

  /// \brief Appends the frozen blob: magic, u64 width/depth/total/
  /// plane_stride/planes_off, depth x (u64 a, u64 b), zero pad to
  /// planes_off, then the counter planes (each zero-padded to plane_stride).
  /// Deterministic: the same sketch always produces the same bytes.
  void AppendFrozen(std::string* out) const;

  /// \brief Bytes AppendFrozen will emit for these dimensions.
  static size_t FrozenBytes(size_t width, size_t depth);

  /// \brief Zero-copy read view over a frozen blob (typically inside an
  /// mmapped ADMODEL2 SKCH section). Counter planes are read in place; only
  /// the depth hash parameters (<= 64 pairs) are materialised at
  /// FromBytes time. Estimate() is bit-identical to the owning sketch's.
  class FrozenView {
   public:
    FrozenView() = default;

    /// \brief Validates and adopts `data[0, len)`. Fail-closed: returns
    /// IOError when the blob is shorter than its header claims (truncation)
    /// and Corruption for structural damage (bad magic, implausible
    /// dimensions, misaligned offsets). `data` must stay mapped for the
    /// view's lifetime and be 8-byte aligned.
    static Result<FrozenView> FromBytes(const void* data, size_t len);

    /// Point estimate: min over rows, same hash mapping as the owning
    /// sketch.
    uint64_t Estimate(uint64_t key) const;

    uint64_t TotalMass() const { return total_; }
    size_t width() const { return width_; }
    size_t depth() const { return hashes_.size(); }
    /// Bytes of live counter storage (width * depth * 4), excluding padding.
    size_t CounterBytes() const {
      return width_ * hashes_.size() * sizeof(uint32_t);
    }
    /// Total frozen blob bytes consumed from the mapping.
    size_t bytes() const { return bytes_; }
    bool valid() const { return base_ != nullptr; }

    /// \brief Re-emits the exact blob bytes (for re-serialising a mapped
    /// model without thawing).
    void AppendTo(std::string* out) const;

    /// \brief Deep-copies into an owning sketch (re-embedding a mapped
    /// sketch in a stats blob needs the streamed form).
    CountMinSketch Thaw() const;

   private:
    const uint8_t* base_ = nullptr;
    const uint8_t* planes_ = nullptr;
    size_t bytes_ = 0;
    size_t width_ = 0;
    size_t plane_stride_ = 0;
    uint64_t total_ = 0;
    std::vector<PairwiseHash> hashes_;
  };

 private:
  size_t width_;
  std::vector<PairwiseHash> hashes_;  // one per row
  std::vector<uint32_t> rows_;        // depth * width, row-major
  uint64_t total_ = 0;
};

}  // namespace autodetect
