#include "stats/language_stats.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "common/radix_sort.h"

namespace autodetect {

namespace {

using Entry = SortedCounts::Entry;

/// Run-length-encodes ascending keys into (key, occurrences) entries.
std::vector<Entry> CountSortedKeys(const std::vector<uint64_t>& keys) {
  size_t distinct = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    distinct += (i == 0 || keys[i] != keys[i - 1]) ? 1 : 0;
  }
  std::vector<Entry> run;
  run.reserve(distinct);
  for (uint64_t key : keys) {
    if (!run.empty() && run.back().key == key) {
      ++run.back().value;
    } else {
      run.push_back(Entry{key, 1});
    }
  }
  return run;
}

SortedCounts SortedEntries(std::vector<Entry>&& entries) {
  Result<SortedCounts> counts = SortedCounts::FromSorted(std::move(entries));
  AD_CHECK(counts.ok()) << counts.status().ToString();
  return std::move(*counts);
}

}  // namespace

void LanguageStatsBuilder::AddColumn(const uint64_t* keys, size_t n, Stage* stage) {
  ++num_columns_;
  stage->patterns.insert(stage->patterns.end(), keys, keys + n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      stage->pairs.push_back(CombineUnordered(keys[i], keys[j]));
    }
  }
}

void LanguageStatsBuilder::AddRun(Stage* stage) {
  if (stage->patterns.empty()) return;  // no keys: pairs are empty too
  RadixSort(&stage->patterns, &stage->sort_buffer);
  RadixSort(&stage->pairs, &stage->sort_buffer);
  Run run;
  run.counts = CountSortedKeys(stage->patterns);
  run.co_counts = CountSortedKeys(stage->pairs);
  run.batches = 1;
  stage->patterns.clear();
  stage->pairs.clear();
  runs_.push_back(std::move(run));
  while (runs_.size() >= 2 && runs_[runs_.size() - 2].batches == runs_.back().batches) {
    FoldNewestRun();
  }
}

void LanguageStatsBuilder::FoldNewestRun() {
  Run newer = std::move(runs_.back());
  runs_.pop_back();
  Run& older = runs_.back();
  older.counts = SortedCounts::MergeEntries(older.counts, newer.counts);
  older.co_counts = SortedCounts::MergeEntries(older.co_counts, newer.co_counts);
  older.batches += newer.batches;
}

LanguageStats LanguageStatsBuilder::Build() {
  AddRun(&own_stage_);
  while (runs_.size() >= 2) FoldNewestRun();  // smallest into the next larger
  LanguageStats stats;
  stats.num_columns_ = num_columns_;
  if (!runs_.empty()) {
    stats.counts_ = SortedEntries(std::move(runs_[0].counts));
    stats.co_counts_ = SortedEntries(std::move(runs_[0].co_counts));
  }
  num_columns_ = 0;
  runs_.clear();
  return stats;
}

void LanguageStats::AddColumn(const std::vector<uint64_t>& distinct_keys) {
  LanguageStatsBuilder column;
  column.AddColumn(distinct_keys);
  Merge(column.Build());
}

uint64_t LanguageStats::CoCount(uint64_t key1, uint64_t key2) const {
  if (key1 == key2) return Count(key1);
  return co_counts_.Get(CombineUnordered(key1, key2));
}

void LanguageStats::Merge(const LanguageStats& other) {
  num_columns_ += other.num_columns_;
  counts_ = SortedCounts::Merge(counts_, other.counts_);
  co_counts_ = SortedCounts::Merge(co_counts_, other.co_counts_);
}

namespace {

/// Serialized dictionaries are their ascending entry arrays — the wire
/// contract that lets Deserialize adopt them as they are.
///
/// An entry is two explicit-width little-endian words, so on the (assumed)
/// little-endian host the entry array's in-memory bytes ARE the wire
/// encoding — entries move with one bulk read/write instead of two calls
/// per entry. The frozen-table format (FlatMap64::FrozenView) bakes in the
/// same assumption.
void WriteSortedCounts(BinaryWriter* writer, const SortedCounts& counts) {
  const std::vector<Entry>& entries = counts.entries();
  writer->WriteU64(entries.size());
  if (!entries.empty()) writer->WriteRaw(entries.data(), entries.size() * sizeof(Entry));
}

Result<SortedCounts> ReadSortedCounts(BinaryReader* reader) {
  AD_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
  std::vector<Entry> entries;
  // Read in bounded chunks so a corrupt length fails at the first
  // out-of-bounds read instead of a huge upfront allocation.
  constexpr uint64_t kChunkEntries = 1 << 16;
  while (entries.size() < n) {
    const size_t take =
        static_cast<size_t>(std::min<uint64_t>(kChunkEntries, n - entries.size()));
    const size_t old = entries.size();
    entries.resize(old + take);
    Status read = reader->ReadRaw(entries.data() + old, take * sizeof(Entry));
    if (!read.ok()) return read;
  }
  return SortedCounts::FromSorted(std::move(entries));
}

}  // namespace

void LanguageStats::Serialize(BinaryWriter* writer) const {
  writer->WriteU64(num_columns_);
  WriteSortedCounts(writer, counts_);
  writer->WriteU8(0);  // has_sketch: training statistics are always exact
  WriteSortedCounts(writer, co_counts_);
}

Result<LanguageStats> LanguageStats::Deserialize(BinaryReader* reader) {
  LanguageStats stats;
  AD_ASSIGN_OR_RETURN(stats.num_columns_, reader->ReadU64());
  AD_ASSIGN_OR_RETURN(stats.counts_, ReadSortedCounts(reader));
  AD_ASSIGN_OR_RETURN(uint8_t has_sketch, reader->ReadU8());
  if (has_sketch != 0) {
    return reader->Corrupt("statistics declare a sketch; shard statistics are always exact");
  }
  AD_ASSIGN_OR_RETURN(stats.co_counts_, ReadSortedCounts(reader));
  return stats;
}

}  // namespace autodetect
