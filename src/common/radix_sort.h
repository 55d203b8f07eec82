#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

/// \file radix_sort.h
/// LSD radix sort on 64-bit keys: the sort behind training's sorted-run
/// counting (LanguageStatsBuilder) and calibration's merge-join lookups.
/// Both sort large arrays of hash-mixed keys, where eight linear
/// byte-scatter passes beat a comparison sort's n log n branchy compares.

namespace autodetect {

/// \brief Sorts `items` ascending by `key_of(item)` (a uint64_t). Stable.
/// `buffer` is scratch, resized to the input size and left holding garbage;
/// pass the same one across calls to reuse its allocation. One counting pass
/// builds all eight byte histograms up front, and a byte position on which
/// every key agrees gets no scatter pass, so narrow key ranges cost fewer
/// passes.
template <typename T, typename KeyOf>
void RadixSort(std::vector<T>* items, std::vector<T>* buffer, KeyOf key_of) {
  const size_t n = items->size();
  if (n < 64) {  // insertion sort: no histograms to clear for tiny inputs
    T* a = items->data();
    for (size_t i = 1; i < n; ++i) {
      const T item = a[i];
      const uint64_t key = key_of(item);
      size_t j = i;
      for (; j > 0 && key_of(a[j - 1]) > key; --j) a[j] = a[j - 1];
      a[j] = item;
    }
    return;
  }
  constexpr int kPasses = 8;
  size_t counts[kPasses][256];
  std::memset(counts, 0, sizeof(counts));
  for (const T& item : *items) {
    const uint64_t key = key_of(item);
    for (int p = 0; p < kPasses; ++p) ++counts[p][(key >> (8 * p)) & 0xff];
  }
  buffer->resize(n);
  T* src = items->data();
  T* dst = buffer->data();
  const uint64_t first = key_of(src[0]);
  for (int p = 0; p < kPasses; ++p) {
    const int shift = 8 * p;
    if (counts[p][(first >> shift) & 0xff] == n) continue;  // byte is constant
    size_t offset[256];
    size_t sum = 0;
    for (int b = 0; b < 256; ++b) {
      offset[b] = sum;
      sum += counts[p][b];
    }
    for (size_t i = 0; i < n; ++i) {
      dst[offset[(key_of(src[i]) >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != items->data()) items->swap(*buffer);
}

/// Sorts plain 64-bit keys ascending (see the general overload).
inline void RadixSort(std::vector<uint64_t>* keys, std::vector<uint64_t>* buffer) {
  RadixSort(keys, buffer, [](uint64_t k) { return k; });
}

}  // namespace autodetect
