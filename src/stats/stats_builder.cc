#include "stats/stats_builder.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "stats/value_interner.h"
#include "text/run_tokenizer.h"

namespace autodetect {

const LanguageStats& CorpusStats::ForLanguage(int lang_id) const {
  auto it = per_language_.find(lang_id);
  AD_CHECK(it != per_language_.end()) << "no stats for language " << lang_id;
  return it->second;
}

LanguageStats& CorpusStats::MutableForLanguage(int lang_id) {
  auto it = per_language_.find(lang_id);
  AD_CHECK(it != per_language_.end()) << "no stats for language " << lang_id;
  return it->second;
}

std::vector<int> CorpusStats::LanguageIds() const {
  std::vector<int> ids;
  ids.reserve(per_language_.size());
  for (const auto& [id, _] : per_language_) ids.push_back(id);
  return ids;
}

void CorpusStats::Insert(int lang_id, LanguageStats stats) {
  auto it = per_language_.find(lang_id);
  if (it == per_language_.end()) {
    per_language_.emplace(lang_id, std::move(stats));
    return;
  }
  // Additive counts over disjoint column sets merge, never overwrite.
  it->second.Merge(stats);
}

void CorpusStats::Retain(const std::vector<int>& keep) {
  std::map<int, LanguageStats> kept;
  for (int id : keep) {
    auto it = per_language_.find(id);
    AD_DCHECK(it != per_language_.end())
        << "Retain of language " << id << " which has no stats";
    if (it != per_language_.end()) kept[id] = std::move(it->second);
  }
  per_language_ = std::move(kept);
}

void CorpusStats::Serialize(BinaryWriter* writer) const {
  // Each language's blob is length-prefixed so Deserialize can slice the
  // byte stream without parsing it, then parse languages in parallel. The
  // per-language serialization (a copy of every entry array) is
  // likewise independent, so it runs across cores too.
  std::vector<const LanguageStats*> stats;
  std::vector<int> ids;
  stats.reserve(per_language_.size());
  ids.reserve(per_language_.size());
  for (const auto& [id, s] : per_language_) {
    ids.push_back(id);
    stats.push_back(&s);
  }
  std::vector<std::string> blobs(stats.size());
  ThreadPool::ParallelFor(stats.size(), /*num_threads=*/0, [&](size_t i) {
    std::ostringstream out;
    BinaryWriter w(&out);
    stats[i]->Serialize(&w);
    blobs[i] = std::move(out).str();
  });
  writer->WriteU64(per_language_.size());
  for (size_t i = 0; i < blobs.size(); ++i) {
    writer->WriteU32(static_cast<uint32_t>(ids[i]));
    writer->WriteU64(blobs[i].size());
    writer->WriteRaw(blobs[i].data(), blobs[i].size());
  }
}

Result<CorpusStats> CorpusStats::Deserialize(BinaryReader* reader) {
  CorpusStats out;
  AD_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
  if (n > 100000) return Status::Corruption("implausible language count");
  // Pass 1 (serial): slice the stream into per-language blobs using the
  // length prefixes. Blobs are read in bounded chunks so a corrupt length
  // fails with a truncation error instead of a giant allocation.
  std::vector<int> ids(n);
  std::vector<std::string> blobs(n);
  for (uint64_t i = 0; i < n; ++i) {
    AD_ASSIGN_OR_RETURN(uint32_t id, reader->ReadU32());
    AD_ASSIGN_OR_RETURN(uint64_t len, reader->ReadU64());
    ids[i] = static_cast<int>(id);
    std::string& blob = blobs[i];
    constexpr uint64_t kChunk = 1 << 20;
    while (blob.size() < len) {
      const size_t take = static_cast<size_t>(std::min<uint64_t>(kChunk, len - blob.size()));
      const size_t old = blob.size();
      blob.resize(old + take);
      Status read = reader->ReadRaw(blob.data() + old, take);
      if (!read.ok()) return read;
    }
  }
  // Pass 2 (parallel): parse each blob with an in-memory reader.
  std::vector<LanguageStats> parsed(n);
  std::vector<Status> statuses(n);
  ThreadPool::ParallelFor(n, /*num_threads=*/0, [&](size_t i) {
    BinaryReader blob_reader(blobs[i].data(), blobs[i].size());
    Result<LanguageStats> stats = LanguageStats::Deserialize(&blob_reader);
    if (!stats.ok()) {
      statuses[i] = stats.status();
      return;
    }
    if (blob_reader.offset() != blobs[i].size()) {
      statuses[i] = blob_reader.Corrupt("trailing bytes after language statistics");
      return;
    }
    parsed[i] = std::move(*stats);
  });
  for (uint64_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) return statuses[i];
    out.per_language_[ids[i]] = std::move(parsed[i]);
  }
  return out;
}

std::vector<std::string> DistinctValuesForStats(const std::vector<std::string>& values,
                                                size_t max_distinct) {
  std::vector<std::string> distinct;
  std::unordered_set<std::string_view> seen;
  distinct.reserve(std::min(values.size(), max_distinct * 2));
  for (const auto& v : values) {
    if (seen.insert(v).second) distinct.push_back(v);
  }
  if (distinct.size() > max_distinct) {
    // Deterministic stride subsample keeps head and tail representation.
    std::vector<std::string> sampled;
    sampled.reserve(max_distinct);
    double stride = static_cast<double>(distinct.size()) / static_cast<double>(max_distinct);
    for (size_t i = 0; i < max_distinct; ++i) {
      sampled.push_back(distinct[static_cast<size_t>(i * stride)]);
    }
    return sampled;
  }
  return distinct;
}

namespace {

/// One batch of columns, each reduced to its distinct values and tokenized
/// ONCE into char-class runs. Every language chunk derives its pattern keys
/// from these shared run lists — the corpus bytes are scanned a single time
/// no matter how many candidate languages are in play.
struct TokenizedBatch {
  std::vector<TokenizedValues> columns;
  std::atomic<size_t> chunks_remaining{0};
};

/// A contiguous range of candidate languages owned by exactly one task
/// chain: batches queue up per chunk and are drained in order without any
/// cross-batch barrier — the reader keeps tokenizing batch k+1 while workers
/// count batch k. Each batch becomes one sorted run per language.
struct LanguageChunk {
  size_t begin = 0;  ///< index range into lang_ids
  size_t end = 0;
  std::unique_ptr<MultiGeneralizer> keys;
  std::mutex mu;
  std::deque<std::shared_ptr<TokenizedBatch>> pending;
  bool draining = false;
  /// The batch's keys: value v of the batch under the chunk's language s at
  /// value_keys[v * (end - begin) + s].
  std::vector<uint64_t> value_keys;
  /// Lent to each of the chunk's languages in turn (see
  /// LanguageStatsBuilder::Stage).
  LanguageStatsBuilder::Stage stage;
};

}  // namespace

CorpusStats BuildCorpusStats(ColumnSource* source, const StatsBuilderOptions& options) {
  std::vector<int> lang_ids = options.language_ids;
  if (lang_ids.empty()) {
    for (int i = 0; i < LanguageSpace::kNumLanguages; ++i) lang_ids.push_back(i);
  }
  const auto& all_langs = LanguageSpace::All();
  for (int id : lang_ids) {
    AD_CHECK(id >= 0 && id < static_cast<int>(all_langs.size()));
  }

  std::vector<LanguageStatsBuilder> per_lang(lang_ids.size());

  MetricsRegistry* registry = OrDefaultRegistry(options.metrics);
  Counter* columns_total = registry->GetCounter("train.columns_total");
  Counter* values_total = registry->GetCounter("train.values_total");
  Counter* patterns_total = registry->GetCounter("train.patterns_total");
  Histogram* tokenize_us = registry->GetHistogram("train.stage.tokenize_us");
  Histogram* count_us = registry->GetHistogram("train.stage.count_us");
  registry->GetGauge("text.simd.isa")
      ->Set(static_cast<double>(static_cast<uint8_t>(ActiveSimdTier())));

  size_t num_threads = options.num_threads != 0
                           ? options.num_threads
                           : std::max<size_t>(1, std::thread::hardware_concurrency());
  ThreadPool pool(num_threads);

  // ~2 chunks per worker keeps the chains load-balanced; chunks own disjoint
  // language ranges, so they never contend on a LanguageStats.
  size_t num_chunks = std::min(lang_ids.size(), std::max<size_t>(1, num_threads * 2));
  std::vector<LanguageChunk> chunks(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    chunks[c].begin = c * lang_ids.size() / num_chunks;
    chunks[c].end = (c + 1) * lang_ids.size() / num_chunks;
    std::vector<int> chunk_ids(lang_ids.begin() + static_cast<ptrdiff_t>(chunks[c].begin),
                               lang_ids.begin() + static_cast<ptrdiff_t>(chunks[c].end));
    chunks[c].keys = std::make_unique<MultiGeneralizer>(
        MultiGeneralizer::ForIds(chunk_ids, options.generalize_options));
  }

  // Backpressure: bounds resident tokenized batches (reader vs workers).
  constexpr size_t kMaxBatchesInFlight = 4;
  std::mutex flight_mu;
  std::condition_variable flight_cv;
  size_t batches_in_flight = 0;

  auto process_batch = [&](LanguageChunk& chunk, const TokenizedBatch& tokenized) {
    StageTimer count_timer(count_us);
    const size_t n_langs = chunk.end - chunk.begin;
    // Key every value once under all of the chunk's languages (the shared
    // tokenization kernel), then count language by language, so one stage
    // serves the whole chunk.
    size_t batch_values = 0;
    for (const TokenizedValues& column : tokenized.columns) batch_values += column.size();
    chunk.value_keys.resize(batch_values * n_langs);
    uint64_t* row = chunk.value_keys.data();
    for (const TokenizedValues& column : tokenized.columns) {
      for (size_t v = 0; v < column.size(); ++v, row += n_langs) {
        chunk.keys->KeysFor(column.Runs(v), column.ClassMask(v), row);
      }
    }
    std::vector<uint64_t> keys;
    uint64_t patterns_ingested = 0;
    for (size_t s = 0; s < n_langs; ++s) {
      LanguageStatsBuilder& builder = per_lang[chunk.begin + s];
      const uint64_t* value_key = chunk.value_keys.data() + s;
      for (const TokenizedValues& column : tokenized.columns) {
        keys.clear();
        for (size_t v = 0; v < column.size(); ++v, value_key += n_langs) {
          keys.push_back(*value_key);
        }
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        if (keys.size() > options.max_distinct_patterns_per_column) {
          keys.resize(options.max_distinct_patterns_per_column);
        }
        patterns_ingested += keys.size();
        builder.AddColumn(keys.data(), keys.size(), &chunk.stage);
      }
      builder.AddRun(&chunk.stage);
    }
    patterns_total->Add(patterns_ingested);
  };

  auto drain_chunk = [&](LanguageChunk& chunk) {
    for (;;) {
      std::shared_ptr<TokenizedBatch> tokenized;
      {
        std::unique_lock<std::mutex> lock(chunk.mu);
        if (chunk.pending.empty()) {
          chunk.draining = false;
          return;
        }
        tokenized = std::move(chunk.pending.front());
        chunk.pending.pop_front();
      }
      process_batch(chunk, *tokenized);
      if (tokenized->chunks_remaining.fetch_sub(1) == 1) {
        std::unique_lock<std::mutex> lock(flight_mu);
        --batches_in_flight;
        flight_cv.notify_all();
      }
    }
  };

  auto tokenized = std::make_shared<TokenizedBatch>();
  uint64_t batch_values = 0;

  auto flush = [&] {
    if (tokenized->columns.empty()) return;
    columns_total->Add(tokenized->columns.size());
    values_total->Add(batch_values);
    batch_values = 0;
    tokenized->chunks_remaining.store(num_chunks);
    {
      std::unique_lock<std::mutex> lock(flight_mu);
      flight_cv.wait(lock,
                     [&] { return batches_in_flight < kMaxBatchesInFlight; });
      ++batches_in_flight;
    }
    for (auto& chunk : chunks) {
      bool start_drainer = false;
      {
        std::unique_lock<std::mutex> lock(chunk.mu);
        chunk.pending.push_back(tokenized);
        if (!chunk.draining) {
          chunk.draining = true;
          start_drainer = true;
        }
      }
      if (start_drainer) {
        pool.Submit([&drain_chunk, &chunk] { drain_chunk(chunk); });
      }
    }
    tokenized = std::make_shared<TokenizedBatch>();
    tokenized->columns.reserve(options.batch_columns);
  };

  // Each column is interned (distinct value + multiplicity, no string
  // copies) and tokenized straight into the current batch while the source's
  // buffers are still alive — the sampled selection matches
  // DistinctValuesForStats index for index, so stats are unchanged; the
  // unordered_set, its node allocations and the copied value vectors of the
  // old pipeline are gone.
  ValueInterner interner;
  std::vector<uint32_t> sampled;
  Column column;
  while (source->Next(&column)) {
    StageTimer tokenize_timer(tokenize_us);
    interner.Intern(column.values);
    interner.SampleIndices(options.max_distinct_values_per_column, &sampled);
    tokenized->columns.emplace_back();
    TokenizedValues& runs = tokenized->columns.back();
    for (uint32_t idx : sampled) {
      runs.Add(interner.entry(idx).value, options.generalize_options);
    }
    batch_values += sampled.size();
    if (tokenized->columns.size() >= options.batch_columns) flush();
  }
  flush();

  {
    std::unique_lock<std::mutex> lock(flight_mu);
    flight_cv.wait(lock, [&] { return batches_in_flight == 0; });
  }
  pool.WaitIdle();
  chunks.clear();  // release the batch keys and stages

  // Fold each language's remaining runs (one per set bit of the batch
  // count) on the same workers.
  std::vector<LanguageStats> built(lang_ids.size());
  for (size_t i = 0; i < lang_ids.size(); ++i) {
    pool.Submit([&, i] { built[i] = per_lang[i].Build(); });
  }
  pool.WaitIdle();
  CorpusStats out;
  for (size_t i = 0; i < lang_ids.size(); ++i) {
    out.Insert(lang_ids[i], std::move(built[i]));
  }
  return out;
}

}  // namespace autodetect
