#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "text/language.h"
#include "text/pattern.h"

/// \file run_tokenizer.h
/// Shared-tokenization generalization kernel. Every language in
/// LanguageSpace::All() is a coarsening of the same leaf-level tokenization
/// (maximal runs of identical characters), so a value needs to be scanned
/// only ONCE: tokenize it into char-class runs, then derive each language's
/// pattern key from the run list in O(#runs) by merging adjacent runs whose
/// classes map to the same tree node under that language. Keys are
/// bit-identical to GeneralizeToKey (property-tested), so models and
/// calibrated thresholds are unchanged — only throughput differs.
///
/// Two further exploits on top of tokenize-once:
///  * a per-language class→node table turns the per-character lang.Map()
///    of the naive path into one array lookup per run;
///  * languages that agree on every char class PRESENT IN the value produce
///    the same key, so MultiGeneralizer groups languages by their projection
///    onto the value's class mask and hashes once per group. A digits+symbols
///    value (dates, numbers, phones…) needs 9 hashes for all 144 languages.

namespace autodetect {

/// One maximal run of identical characters — the leaf-level refinement every
/// generalization language coarsens.
struct ClassRun {
  char ch = 0;        ///< the literal character of the run
  uint8_t cls = 0;    ///< static_cast<uint8_t>(ClassifyChar(ch))
  uint32_t count = 0; ///< run length, >= 1

  bool operator==(const ClassRun&) const = default;
};

using RunSpan = std::span<const ClassRun>;

/// The tokenizer implementation tiers, ordered weakest to widest. Dispatch
/// picks the widest tier the build and the host CPU both support; tests can
/// pin a weaker one. Every tier produces
/// byte-identical run lists (fuzz-verified against the scalar reference).
enum class SimdTier : uint8_t {
  kScalar = 0,  ///< one byte at a time — the reference implementation
  kSSSE3 = 1,   ///< 16 bytes/iteration: pshufb nibble-LUT classes + movemask
  kAVX2 = 2,    ///< 32 bytes/iteration, same scheme on 256-bit vectors
};

std::string_view SimdTierName(SimdTier tier);

/// Widest tier this build + CPU supports (kScalar under AUTODETECT_NO_SIMD
/// or on non-x86 hosts).
SimdTier MaxSupportedSimdTier();

/// The currently dispatched tier.
SimdTier ActiveSimdTier();

/// \brief Re-pins the dispatched tier. Returns false (and changes nothing)
/// when the tier is not supported here. Thread-safe, but intended for
/// startup/tests — flipping it mid-scan is safe yet pointless.
bool SetSimdTier(SimdTier tier);

/// \brief Tokenizes `value` (truncated to options.max_value_length, exactly
/// like the Generalize* family) into maximal identical-character runs.
/// Clears and fills `*out`; returns the 4-bit mask of char classes present
/// (bit i = CharClass i), which MultiGeneralizer uses for key sharing.
/// Dispatches to the active SIMD tier.
uint8_t TokenizeRuns(std::string_view value, const GeneralizeOptions& options,
                     std::vector<ClassRun>* out);

/// \brief The scalar reference tokenizer, always available regardless of the
/// dispatched tier — the ground truth the SIMD tiers are fuzzed against.
uint8_t TokenizeRunsScalar(std::string_view value, const GeneralizeOptions& options,
                           std::vector<ClassRun>* out);

/// \brief Derives one language's pattern key from a run list. Bit-identical
/// to GeneralizeToKey(value, lang, options) when `runs` came from
/// TokenizeRuns(value, options, ...).
uint64_t GeneralizeRunsToKey(RunSpan runs, const GeneralizationLanguage& lang,
                             bool collapse_run_lengths = false);

/// \brief Arena of tokenized values: run storage for a whole batch of values
/// in two flat vectors (no per-value allocation). Used by the stats builder
/// to tokenize each column batch once and fan the run lists out to the
/// per-language workers.
class TokenizedValues {
 public:
  /// Tokenizes and appends one value.
  void Add(std::string_view value, const GeneralizeOptions& options);

  size_t size() const { return masks_.size(); }
  RunSpan Runs(size_t i) const {
    return RunSpan(runs_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]);
  }
  uint8_t ClassMask(size_t i) const { return masks_[i]; }

  void Clear() {
    runs_.clear();
    offsets_.resize(1);
    masks_.clear();
  }

 private:
  std::vector<ClassRun> runs_;
  std::vector<uint32_t> offsets_ = {0};
  std::vector<uint8_t> masks_;
  std::vector<ClassRun> scratch_;
};

/// \brief Derives the pattern keys of one tokenized value under a fixed set
/// of languages, sharing work between languages that are indistinguishable
/// on the value's char classes. Construction precomputes, for every possible
/// class mask, the grouping of the language set by its class→node tables
/// projected onto that mask; KeysFor then hashes once per group.
class MultiGeneralizer {
 public:
  explicit MultiGeneralizer(std::vector<GeneralizationLanguage> langs,
                            GeneralizeOptions options = {});

  /// Languages given by id into LanguageSpace::All().
  static MultiGeneralizer ForIds(const std::vector<int>& lang_ids,
                                 GeneralizeOptions options = {});

  size_t num_languages() const { return langs_.size(); }
  const GeneralizationLanguage& language(size_t i) const { return langs_[i]; }
  const GeneralizeOptions& options() const { return options_; }

  /// \brief Writes one key per language (constructor order) into
  /// `out_keys[0 .. num_languages())`. `class_mask` must be the mask
  /// TokenizeRuns returned for these runs.
  void KeysFor(RunSpan runs, uint8_t class_mask, uint64_t* out_keys) const;

  /// Convenience: tokenize + derive in one call (allocates a scratch run
  /// buffer; hot paths should tokenize once and call KeysFor).
  void KeysForValue(std::string_view value, uint64_t* out_keys) const;

 private:
  /// Languages whose class→node tables agree on every class of one mask.
  struct Group {
    std::array<TreeNode, kNumCharClasses> targets;
    std::vector<uint16_t> members;  ///< indices into langs_
  };

  std::vector<GeneralizationLanguage> langs_;
  GeneralizeOptions options_;
  std::array<std::vector<Group>, 1 << kNumCharClasses> groups_by_mask_;
};

/// \brief One-shot convenience over the kernel: tokenizes `value` once and
/// derives its key under every language of `lang_ids` (ids into
/// LanguageSpace::All()) into `out_keys`. Prefer a long-lived
/// MultiGeneralizer when processing many values.
void MultiGeneralizeToKeys(std::string_view value, const std::vector<int>& lang_ids,
                           const GeneralizeOptions& options, uint64_t* out_keys);

}  // namespace autodetect
