#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "io/mmap_file.h"
#include "stats/language_stats.h"
#include "text/language.h"
#include "train/calibration.h"

/// \file model.h
/// The trained Auto-Detect artifact: the selected generalization languages
/// L' with their statistics, calibrated thresholds θ_k and empirical
/// precision curves P_k(·). A model is self-contained — save it once after
/// offline training, load it client-side for detection (the paper's
/// client-only deployment with a memory budget).
///
/// The on-disk format is ADMODEL2, a zero-copy artifact: a page-aligned
/// header + META + DATA layout where the hot tables (pattern counts,
/// co-occurrence maps, precision curves) are stored in their in-memory
/// representation and the loaded Model points straight at the
/// memory-mapped bytes. Load cost is one checksum pass; table pages fault
/// in lazily as detection probes them, and concurrent processes share one
/// page-cache copy. The retired streamed format (ADMODEL1) is recognised by
/// its magic and rejected with a typed error that says to retrain.
///
/// ADMODEL2 header version 3 adds an optional SKCH section after DATA:
/// per-language count-min sketches of the co-occurrence tables (paper
/// Sec. 3.4), stored as page-aligned CountMinSketch frozen blobs and
/// XXH64-checksummed exactly like META and DATA. A model whose languages
/// are all exact still writes version 2 — byte-identical to before — so
/// sketching is opt-in per artifact, and exact and sketched languages
/// coexist inside one version-3 file (each language's stats blob declares
/// which representation it carries; the loader sniffs the flag and attaches
/// the mapped sketch view). Loads fail closed on any SKCH checksum,
/// bounds, alignment or flag/section mismatch.

namespace autodetect {

/// One selected language and everything needed to score with it.
struct ModelLanguage {
  int lang_id = -1;
  double threshold = -2.0;  ///< θ_k
  /// Training negatives covered at θ_k — used to order languages (the
  /// highest-coverage language is the "BestOne" of the ablation).
  uint64_t train_coverage = 0;
  PrecisionCurve curve;
  LanguageStats stats;

  const GeneralizationLanguage& language() const {
    return LanguageSpace::All()[static_cast<size_t>(lang_id)];
  }
};

/// The one on-disk format; kept, with Save's parameter, only for bench_e2e/inputs.cc.
enum class ModelFormat { kV2 = 2 };

/// Aggregate sketch footprint of a model (for metrics and CLI `info`).
struct ModelSketchInfo {
  size_t bytes = 0;      ///< live sketch counter bytes across languages
  size_t languages = 0;  ///< languages served from a sketch
  size_t width = 0;      ///< widest sketch (counters per row)
  size_t depth = 0;      ///< deepest sketch (rows)
};

class Model {
 public:
  /// Selected languages, ordered by descending training coverage.
  std::vector<ModelLanguage> languages;
  double smoothing_factor = 0.1;
  double precision_target = 0.95;
  std::string corpus_name;
  uint64_t trained_columns = 0;

  /// Estimated resident size — the quantity bounded by the training budget.
  size_t MemoryBytes() const;

  /// Sketch footprint: zeros when every language carries exact tables.
  ModelSketchInfo SketchInfo() const;

  /// One-line-per-language human description.
  std::string Summary() const;

  /// \brief Writes the model to `path` as the zero-copy ADMODEL2 artifact a
  /// client maps at load time.
  Status Save(const std::string& path, ModelFormat format = ModelFormat::kV2) const;

  /// \brief Maps an ADMODEL2 file. Fails closed: any checksum, bounds, or
  /// alignment violation is an error (IOError for truncation, Corruption
  /// otherwise) — never a partially-loaded model. An ADMODEL1 file is
  /// Invalid, naming the retired format.
  static Result<Model> Load(const std::string& path);

  /// True when the model's tables view a live file mapping.
  bool mapped() const { return backing_ != nullptr && backing_->mapped(); }
  /// Size of the backing model file (0 for freshly trained models).
  size_t FileBytes() const { return backing_ == nullptr ? 0 : backing_->size(); }

 private:
  /// Keeps the mapped ADMODEL2 file alive for the lifetime of the frozen
  /// views inside `languages`. Shared so Model copies stay cheap and safe.
  std::shared_ptr<MmapFile> backing_;
};

}  // namespace autodetect
