#include "train/shard.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/hash.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/xxhash64.h"
#include "io/mmap_file.h"
#include "io/serde.h"
#include "text/language.h"

namespace autodetect {

namespace {

constexpr char kShardMagic[] = "ADSHARD1";
constexpr uint32_t kShardVersion = 1;
constexpr uint64_t kShardAlignment = 4096;
/// magic[8] + u32 version + u32 endian + u64 alignment + u64 file_size +
/// two (offset, length, xxhash64) triples.
constexpr size_t kShardHeaderBytes = 8 + 4 + 4 + 8 + 8 + 6 * 8;

uint64_t RoundUp(uint64_t v, uint64_t alignment) {
  return (v + alignment - 1) / alignment * alignment;
}

uint64_t HashString(uint64_t h, std::string_view s) {
  h = Mix64(h ^ Fnv1a64(s));
  return h;
}

void WriteProvenance(BinaryWriter* w, const ShardProvenance& p) {
  w->WriteString(p.corpus_name);
  w->WriteString(p.profile);
  w->WriteU64(p.seed);
  w->WriteU64(p.total_columns);
  w->WriteU64(p.column_begin);
  w->WriteU64(p.column_end);
}

Result<ShardProvenance> ReadProvenance(BinaryReader* r) {
  ShardProvenance p;
  AD_ASSIGN_OR_RETURN(p.corpus_name, r->ReadString());
  AD_ASSIGN_OR_RETURN(p.profile, r->ReadString());
  AD_ASSIGN_OR_RETURN(p.seed, r->ReadU64());
  AD_ASSIGN_OR_RETURN(p.total_columns, r->ReadU64());
  AD_ASSIGN_OR_RETURN(p.column_begin, r->ReadU64());
  AD_ASSIGN_OR_RETURN(p.column_end, r->ReadU64());
  if (p.column_end < p.column_begin) {
    return r->Corrupt("shard column range is inverted");
  }
  return p;
}

bool SameCorpus(const ShardProvenance& a, const ShardProvenance& b) {
  return a.corpus_name == b.corpus_name && a.profile == b.profile &&
         a.seed == b.seed;
}

}  // namespace

uint64_t StatsOptionsDigest(const StatsBuilderOptions& options) {
  // Resolve the language set the builder will actually use: an empty id
  // list means every candidate in the space.
  std::vector<int> ids = options.language_ids;
  if (ids.empty()) {
    ids.resize(LanguageSpace::kNumLanguages);
    for (int i = 0; i < LanguageSpace::kNumLanguages; ++i) ids[i] = i;
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  uint64_t h = 0xad54a4d1ull;
  for (int id : ids) h = Mix64(h ^ static_cast<uint64_t>(id));
  h = Mix64(h ^ options.max_distinct_values_per_column);
  h = Mix64(h ^ options.max_distinct_patterns_per_column);
  h = Mix64(h ^ (options.generalize_options.collapse_run_lengths ? 1u : 0u));
  h = Mix64(h ^ options.generalize_options.max_value_length);
  h = HashString(h, "ADSHARD1-options");
  return h;
}

Status WriteShard(const std::string& path, const StatsShard& shard) {
  std::ostringstream meta_stream;
  BinaryWriter meta(&meta_stream);
  meta.WriteU64(shard.options_digest);
  WriteProvenance(&meta, shard.provenance);
  const std::string meta_bytes = std::move(meta_stream).str();

  std::ostringstream data_stream;
  BinaryWriter data_writer(&data_stream);
  shard.stats.Serialize(&data_writer);
  AD_RETURN_NOT_OK(data_writer.status().WithContext("serializing shard stats"));
  const std::string data_bytes = std::move(data_stream).str();

  const uint64_t meta_off = kShardAlignment;
  const uint64_t data_off = RoundUp(meta_off + meta_bytes.size(), kShardAlignment);
  const uint64_t file_size = data_off + data_bytes.size();

  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  BinaryWriter w(&out);
  w.WriteRaw(kShardMagic, 8);
  w.WriteU32(kShardVersion);
  // Native endianness marker, as in ADMODEL2: the DATA counts are portable
  // serde either way, but keeping the skeleton identical lets tooling treat
  // both artifact families uniformly.
  const uint32_t endian_marker = 1;
  w.WriteRaw(&endian_marker, 4);
  w.WriteU64(kShardAlignment);
  w.WriteU64(file_size);
  w.WriteU64(meta_off);
  w.WriteU64(meta_bytes.size());
  w.WriteU64(XxHash64(meta_bytes.data(), meta_bytes.size()));
  w.WriteU64(data_off);
  w.WriteU64(data_bytes.size());
  w.WriteU64(XxHash64(data_bytes.data(), data_bytes.size()));
  w.AlignTo(kShardAlignment);
  w.WriteRaw(meta_bytes.data(), meta_bytes.size());
  w.AlignTo(kShardAlignment);
  w.WriteRaw(data_bytes.data(), data_bytes.size());
  return w.status().WithContext("writing " + path);
}

Result<StatsShard> ReadShard(const std::string& path) {
  AD_ASSIGN_OR_RETURN(MmapFile mapped, MmapFile::Open(path));
  const uint8_t* base = mapped.data();
  const size_t actual_size = mapped.size();
  if (actual_size < kShardHeaderBytes) {
    return Status::IOError(
        StrFormat("truncated shard header in %s: needed %zu bytes, got %zu",
                  path.c_str(), kShardHeaderBytes, actual_size));
  }
  if (std::memcmp(base, kShardMagic, 8) != 0) {
    char found[9] = {0};
    std::memcpy(found, base, 8);
    for (char& c : found) {
      if (c != 0 && (c < 0x20 || c > 0x7e)) c = '?';
    }
    return Status::Corruption(
        StrFormat("%s: header section: expected magic ADSHARD1, found \"%s\"",
                  path.c_str(), found));
  }
  uint32_t version;
  std::memcpy(&version, base + 8, 4);
  if (version != kShardVersion) {
    // Fail closed on any version skew, naming expected-vs-found: a reducer
    // must never fold a future shard's counts through a stale decoder.
    return Status::Corruption(
        StrFormat("%s: header section: unsupported ADSHARD1 version: "
                  "expected %u, found %u",
                  path.c_str(), kShardVersion, version));
  }
  uint32_t endian_marker;
  std::memcpy(&endian_marker, base + 12, 4);
  if (endian_marker != 1) {
    return Status::Corruption(
        StrFormat("%s: header section: shard byte order does not match this host",
                  path.c_str()));
  }

  BinaryReader header(base + 16, kShardHeaderBytes - 16);
  AD_ASSIGN_OR_RETURN(uint64_t alignment, header.ReadU64());
  AD_ASSIGN_OR_RETURN(uint64_t file_size, header.ReadU64());
  AD_ASSIGN_OR_RETURN(uint64_t meta_off, header.ReadU64());
  AD_ASSIGN_OR_RETURN(uint64_t meta_len, header.ReadU64());
  AD_ASSIGN_OR_RETURN(uint64_t meta_checksum, header.ReadU64());
  AD_ASSIGN_OR_RETURN(uint64_t data_off, header.ReadU64());
  AD_ASSIGN_OR_RETURN(uint64_t data_len, header.ReadU64());
  AD_ASSIGN_OR_RETURN(uint64_t data_checksum, header.ReadU64());

  if (alignment < 8 || alignment > (1ULL << 24) ||
      (alignment & (alignment - 1)) != 0) {
    return Status::Corruption(
        StrFormat("%s: header section: implausible alignment", path.c_str()));
  }
  if (actual_size < file_size) {
    return Status::IOError(StrFormat(
        "truncated shard file %s: header declares %llu bytes, file has %zu",
        path.c_str(), static_cast<unsigned long long>(file_size), actual_size));
  }
  if (actual_size > file_size) {
    return Status::Corruption(
        StrFormat("%s: header section: file has trailing bytes", path.c_str()));
  }
  auto section_ok = [&](uint64_t off, uint64_t len) {
    return off >= kShardHeaderBytes && off % 8 == 0 && off <= file_size &&
           len <= file_size - off;
  };
  if (!section_ok(meta_off, meta_len)) {
    return Status::Corruption(
        StrFormat("%s: META section: bounds out of range", path.c_str()));
  }
  if (!section_ok(data_off, data_len)) {
    return Status::Corruption(
        StrFormat("%s: DATA section: bounds out of range", path.c_str()));
  }

  // Integrity before interpretation: a bad checksum never yields counts.
  mapped.Advise(MmapFile::Advice::kSequential);
  if (XxHash64(base + meta_off, meta_len) != meta_checksum) {
    return Status::Corruption(
        StrFormat("%s: META section: checksum mismatch", path.c_str()));
  }
  if (XxHash64(base + data_off, data_len) != data_checksum) {
    return Status::Corruption(
        StrFormat("%s: DATA section: checksum mismatch", path.c_str()));
  }

  StatsShard shard;
  {
    BinaryReader meta(base + meta_off, meta_len);
    AD_ASSIGN_OR_RETURN(shard.options_digest, meta.ReadU64());
    auto provenance = ReadProvenance(&meta);
    if (!provenance.ok()) {
      return provenance.status().WithContext("META section of " + path);
    }
    shard.provenance = std::move(*provenance);
  }
  {
    BinaryReader data(base + data_off, data_len);
    auto stats = CorpusStats::Deserialize(&data);
    if (!stats.ok()) {
      return stats.status().WithContext("DATA section of " + path);
    }
    shard.stats = std::move(*stats);
  }
  return shard;
}

Result<ShardProvenance> CheckMergeable(std::vector<const StatsShard*> shards) {
  if (shards.empty()) return Status::Invalid("no shards to merge");
  std::sort(shards.begin(), shards.end(),
            [](const StatsShard* a, const StatsShard* b) {
              return a->provenance.column_begin < b->provenance.column_begin;
            });

  const StatsShard& first = *shards[0];
  const std::vector<int> lang_ids = first.stats.LanguageIds();
  ShardProvenance merged = first.provenance;
  for (size_t i = 1; i < shards.size(); ++i) {
    const StatsShard& s = *shards[i];
    if (s.options_digest != first.options_digest) {
      return Status::Invalid(StrFormat(
          "cannot merge shards built under different statistics options "
          "(digest %016llx vs %016llx)",
          static_cast<unsigned long long>(first.options_digest),
          static_cast<unsigned long long>(s.options_digest)));
    }
    if (!SameCorpus(s.provenance, first.provenance)) {
      return Status::Invalid(
          "cannot merge shards of different corpora (" +
          first.provenance.corpus_name + "/" + first.provenance.profile +
          " vs " + s.provenance.corpus_name + "/" + s.provenance.profile + ")");
    }
    if (s.stats.LanguageIds() != lang_ids) {
      return Status::Invalid("cannot merge shards with different language sets");
    }
    const ShardProvenance& prev = shards[i - 1]->provenance;
    if (s.provenance.column_begin < prev.column_end) {
      return Status::Invalid(StrFormat(
          "shard column ranges overlap: [%llu, %llu) and [%llu, %llu)",
          static_cast<unsigned long long>(prev.column_begin),
          static_cast<unsigned long long>(prev.column_end),
          static_cast<unsigned long long>(s.provenance.column_begin),
          static_cast<unsigned long long>(s.provenance.column_end)));
    }
    if (s.provenance.column_begin > prev.column_end) {
      return Status::Invalid(StrFormat(
          "shard column ranges leave a gap: [%llu, %llu) then [%llu, %llu)",
          static_cast<unsigned long long>(prev.column_begin),
          static_cast<unsigned long long>(prev.column_end),
          static_cast<unsigned long long>(s.provenance.column_begin),
          static_cast<unsigned long long>(s.provenance.column_end)));
    }
    merged.column_end = s.provenance.column_end;
    merged.total_columns = std::max(merged.total_columns, s.provenance.total_columns);
  }
  return merged;
}

Result<StatsShard> MergeShards(std::vector<StatsShard> shards) {
  std::vector<const StatsShard*> all;
  all.reserve(shards.size());
  for (const StatsShard& s : shards) all.push_back(&s);
  AD_ASSIGN_OR_RETURN(ShardProvenance provenance, CheckMergeable(std::move(all)));

  StatsShard merged = std::move(shards[0]);
  const std::vector<int> lang_ids = merged.stats.LanguageIds();
  // Languages are independent dictionaries; merge each across all shards on
  // its own core. Counts are additive, so the fold order does not matter.
  // Merge is a two-pointer merge of the sorted entry arrays deserialization
  // read, and its result is the same sorted form the reducer re-serializes.
  ThreadPool::ParallelFor(lang_ids.size(), /*num_threads=*/0, [&](size_t li) {
    const int id = lang_ids[li];
    LanguageStats& dst = merged.stats.MutableForLanguage(id);
    for (size_t i = 1; i < shards.size(); ++i) {
      dst.Merge(shards[i].stats.ForLanguage(id));
    }
  });
  merged.provenance = std::move(provenance);
  return merged;
}

Result<StatsShard> MergeShardFiles(const std::vector<std::string>& paths) {
  std::vector<StatsShard> shards;
  shards.reserve(paths.size());
  for (const std::string& path : paths) {
    AD_ASSIGN_OR_RETURN(StatsShard shard, ReadShard(path));
    shards.push_back(std::move(shard));
  }
  return MergeShards(std::move(shards));
}

}  // namespace autodetect
