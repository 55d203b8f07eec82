#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/flat_map.h"
#include "common/result.h"
#include "sketch/count_min.h"
#include "stats/language_stats.h"

/// \file frozen_stats.h
/// Per-language statistics as a model serves them: N, the c(p) probe table,
/// and c(p1, p2) as either a probe table or a count-min sketch (paper
/// Sec. 3.4). All three are read-only views into bytes that the instance
/// keeps alive through a shared owner — the model's memory-mapped ADMODEL2
/// file (FromFrozen), or the buffer Freeze writes for a freshly trained
/// model. Copies are cheap and share the bytes. Lookups are point queries
/// only; nothing here mutates, merges or serializes counts.
///
/// Freeze is the one bridge from training's sorted LanguageStats: it writes
/// each probe table straight from the sorted entries in the canonical
/// layout, so the frozen bytes are a pure function of the counts.

namespace autodetect {

class FrozenStats {
 public:
  FrozenStats() = default;

  /// Number of columns counted (the N of Eq. 1).
  uint64_t num_columns() const { return num_columns_; }

  /// c(p): columns containing pattern `key`.
  uint64_t Count(uint64_t key) const { return counts_.GetOr(key); }

  /// c(p1, p2); c(p) when key1 == key2.
  uint64_t CoCount(uint64_t key1, uint64_t key2) const;

  /// \brief c(p1, p2) when the caller already holds both marginals
  /// (count1 = c(key1), count2 = c(key2)): a sketched language caps its
  /// estimate with them instead of reading them again. NpmiScorer reads
  /// each count once through this.
  uint64_t CoCount(uint64_t key1, uint64_t key2, uint64_t count1,
                   uint64_t count2) const;

  /// Distinct patterns / distinct co-occurring pairs (0 when sketched).
  size_t NumPatterns() const { return counts_.size(); }
  size_t NumCoPairs() const { return co_.size(); }

  /// \brief Bytes of the statistics' tables — the quantity the training
  /// budget bounds: each probe array at 16 bytes/slot (what
  /// LanguageStats::MemoryBytes priced it at), a sketch at its counters.
  size_t MemoryBytes() const {
    return counts_.capacity() * sizeof(FlatMap64::Slot) + CoMemoryBytes();
  }

  /// Bytes of the co-occurrence store alone (probe array or sketch counters).
  size_t CoMemoryBytes() const;

  /// True when co-occurrence is held as a count-min sketch.
  bool uses_sketch() const { return sketched_; }

  /// \brief Binds the sketch view of a sketched instance read by FromFrozen
  /// (its counters live in the model's SKCH section). The viewed bytes must
  /// be kept alive by this instance's owner.
  void AttachSketch(CountMinSketch::FrozenView view);

  /// Sketch geometry, 0 when not sketched (for metrics / `info`).
  size_t SketchWidth() const { return sketched_ ? sketch_.width() : 0; }
  size_t SketchDepth() const { return sketched_ ? sketch_.depth() : 0; }

  /// \brief Appends the stats blob to `out`. Layout (all fields 8-byte
  /// aligned provided the blob itself starts 8-aligned):
  ///   u64 num_columns
  ///   u64 flags           (0: exact; 3: co-occurrence is a sketch held in
  ///                        the SKCH section)
  ///   [counts frozen map] (FlatMap64::FrozenView blob)
  ///   [co frozen map]     (exact only)
  /// A sketched language's counters go out through AppendSketchFrozen.
  void AppendFrozen(std::string* out) const;

  /// \brief Appends the co-occurrence sketch as a CountMinSketch frozen
  /// blob (page-alignable, see count_min.h). Requires uses_sketch().
  void AppendSketchFrozen(std::string* out) const;

  /// \brief Views exactly [data, data + len), which `owner` keeps alive and
  /// unmodified. Fails closed: any length/alignment inconsistency is an
  /// error, trailing unconsumed bytes are Corruption. Flags 1 — a sketch
  /// embedded in the blob, a form no writer produces any more — is Invalid
  /// with a message to retrain; other unknown flags are Corruption.
  static Result<FrozenStats> FromFrozen(const void* data, size_t len,
                                        std::shared_ptr<const void> owner);

 private:
  uint64_t num_columns_ = 0;
  bool sketched_ = false;
  FlatMap64::FrozenView counts_;
  FlatMap64::FrozenView co_;            ///< empty when sketched
  CountMinSketch::FrozenView sketch_;   ///< valid once sketched and attached
  std::shared_ptr<const void> owner_;   ///< keeps the viewed bytes alive
};

/// Count-min compression of a language's co-occurrence table (Sec. 3.4).
struct SketchSpec {
  /// Rows of every co-occurrence sketch Freeze builds.
  static constexpr size_t kDepth = 4;
  /// Sketch counter bytes as a fraction of the exact dictionary's, in (0, 1].
  double ratio = 1.0;
  uint64_t seed = 0xc0ffee;
};

/// \brief Freezes training statistics exactly: both dictionaries become
/// canonical probe tables.
FrozenStats Freeze(const LanguageStats& stats);

/// \brief Freezes with the co-occurrence table as a count-min sketch of
/// `sketch.ratio` times the exact dictionary's bytes (at least 64), depth
/// SketchSpec::kDepth,
/// fed by conservative update in the canonical probe order. c(p) stays
/// exact. Invalid when the ratio is outside (0, 1].
Result<FrozenStats> Freeze(const LanguageStats& stats, const SketchSpec& sketch);

}  // namespace autodetect
