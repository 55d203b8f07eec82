#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file bitset.h
/// A dynamic bitset with the few operations the language-selection greedy
/// needs: set/test, popcount, union-in-place, and "count bits of a that are
/// not in b" (marginal coverage).

namespace autodetect {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  size_t size() const { return num_bits_; }

  void Set(size_t i) { words_[i >> 6] |= (1ULL << (i & 63)); }
  bool Test(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

  size_t Popcount() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
    return n;
  }

  /// this |= other. Requires equal size.
  void UnionWith(const DynamicBitset& other) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }

  /// |this & ~other| — how many of this set's bits are new w.r.t. `other`.
  size_t CountNewOver(const DynamicBitset& other) const {
    size_t n = 0;
    for (size_t i = 0; i < words_.size(); ++i) {
      n += static_cast<size_t>(__builtin_popcountll(words_[i] & ~other.words_[i]));
    }
    return n;
  }

  bool operator==(const DynamicBitset& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace autodetect
