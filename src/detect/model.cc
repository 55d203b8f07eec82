#include "detect/model.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/xxhash64.h"

namespace autodetect {

namespace {

constexpr char kMagicV2[] = "ADMODEL2";
/// The retired streamed format opened with a serde string: a u64 length of
/// 8, then these bytes. Recognised only to reject it with a useful message.
constexpr char kRetiredMagic[] = "ADMODEL1";

/// ADMODEL2 fixed header: magic[8], u32 version, u32 native endian marker,
/// u64 alignment, u64 file_size, then (offset, length, xxhash64) for the
/// META and DATA sections. Header version 3 appends one more
/// (offset, length, xxhash64) triple for the SKCH section holding
/// page-aligned count-min sketch blobs; sketch-free models keep writing
/// version 2 so their bytes never change. Header is padded with zeros to
/// `alignment`.
constexpr uint32_t kV2Version = 2;
constexpr uint32_t kV3Version = 3;
constexpr uint64_t kV2Alignment = 4096;
constexpr size_t kV2HeaderBytes = 8 + 4 + 4 + 8 + 8 + 6 * 8;
constexpr size_t kV3HeaderBytes = kV2HeaderBytes + 3 * 8;

uint64_t RoundUp(uint64_t v, uint64_t alignment) {
  return (v + alignment - 1) / alignment * alignment;
}

/// Per-language blob locations inside the DATA (and, for sketched
/// languages in a version-3 file, SKCH) sections.
struct LangLocation {
  uint64_t curve_off = 0;
  uint64_t curve_len = 0;
  uint64_t stats_off = 0;
  uint64_t stats_len = 0;
  uint64_t skch_off = 0;  ///< v3 only; 0/0 = exact language
  uint64_t skch_len = 0;
};

}  // namespace

size_t Model::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& l : languages) bytes += l.stats.MemoryBytes();
  return bytes;
}

ModelSketchInfo Model::SketchInfo() const {
  ModelSketchInfo info;
  for (const auto& l : languages) {
    if (!l.stats.uses_sketch()) continue;
    ++info.languages;
    info.bytes += l.stats.CoMemoryBytes();
    info.width = std::max(info.width, l.stats.SketchWidth());
    info.depth = std::max(info.depth, l.stats.SketchDepth());
  }
  return info;
}

std::string Model::Summary() const {
  std::string out = StrFormat(
      "Auto-Detect model: %zu languages, %s, P>=%.2f, trained on %llu columns (%s)\n",
      languages.size(), HumanBytes(MemoryBytes()).c_str(), precision_target,
      static_cast<unsigned long long>(trained_columns), corpus_name.c_str());
  for (const auto& l : languages) {
    out += StrFormat("  [%3d] %-28s theta=%+.3f coverage=%llu size=%s%s\n", l.lang_id,
                     l.language().Name().c_str(), l.threshold,
                     static_cast<unsigned long long>(l.train_coverage),
                     HumanBytes(l.stats.MemoryBytes()).c_str(),
                     l.stats.uses_sketch() ? " (sketched)" : "");
  }
  return out;
}

Status Model::Save(const std::string& path, ModelFormat) const {
  // Sketched co-occurrence tables move out of DATA into the page-aligned
  // SKCH section (header version 3). A model with only exact languages
  // writes version 2, byte-identical to pre-sketch builds.
  bool any_sketch = false;
  for (const auto& l : languages) any_sketch |= l.stats.uses_sketch();

  // DATA: per-language frozen blobs, concatenated. Every blob is a multiple
  // of 8 bytes and DATA itself lands page-aligned, so each blob starts
  // 8-aligned — the invariant FrozenView::FromBytes enforces at load.
  // SKCH: per-sketched-language CountMinSketch frozen blobs, each a whole
  // multiple of CountMinSketch::kPlaneAlign, so every counter plane stays
  // cache-line-aligned once the section itself is page-aligned.
  std::string data;
  std::string skch;
  std::vector<LangLocation> locations;
  locations.reserve(languages.size());
  for (const auto& l : languages) {
    LangLocation loc;
    loc.curve_off = data.size();
    l.curve.AppendFrozen(&data);
    loc.curve_len = data.size() - loc.curve_off;
    loc.stats_off = data.size();
    l.stats.AppendFrozen(&data);
    loc.stats_len = data.size() - loc.stats_off;
    if (l.stats.uses_sketch()) {
      loc.skch_off = skch.size();
      l.stats.AppendSketchFrozen(&skch);
      loc.skch_len = skch.size() - loc.skch_off;
    }
    locations.push_back(loc);
  }

  // META: everything except the bulk tables, via the portable serde path.
  std::ostringstream meta_stream;
  BinaryWriter meta(&meta_stream);
  meta.WriteDouble(smoothing_factor);
  meta.WriteDouble(precision_target);
  meta.WriteString(corpus_name);
  meta.WriteU64(trained_columns);
  meta.WriteU64(languages.size());
  for (size_t i = 0; i < languages.size(); ++i) {
    const auto& l = languages[i];
    const auto& loc = locations[i];
    meta.WriteU32(static_cast<uint32_t>(l.lang_id));
    meta.WriteDouble(l.threshold);
    meta.WriteU64(l.train_coverage);
    meta.WriteU64(loc.curve_off);
    meta.WriteU64(loc.curve_len);
    meta.WriteU64(loc.stats_off);
    meta.WriteU64(loc.stats_len);
    if (any_sketch) {
      meta.WriteU64(loc.skch_off);
      meta.WriteU64(loc.skch_len);
    }
  }
  const std::string meta_bytes = std::move(meta_stream).str();

  const uint64_t meta_off = kV2Alignment;
  const uint64_t data_off = RoundUp(meta_off + meta_bytes.size(), kV2Alignment);
  const uint64_t skch_off =
      any_sketch ? RoundUp(data_off + data.size(), kV2Alignment) : 0;
  const uint64_t file_size =
      any_sketch ? skch_off + skch.size() : data_off + data.size();

  // Land by rename: truncating `path` in place would change the bytes under
  // any process that has it mapped (or raise SIGBUS there).
  const std::string tmp = StrFormat("%s.tmp.%ld", path.c_str(), static_cast<long>(getpid()));
  Status written = [&]() -> Status {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) return Status::IOError("cannot open " + tmp + " for writing");
    BinaryWriter w(&out);
    w.WriteRaw(kMagicV2, 8);
    w.WriteU32(any_sketch ? kV3Version : kV2Version);
    // Native endianness marker: frozen sections hold host-endian words, so
    // a reader on the other byte order must reject the file instead of
    // probing garbage. Written raw (not via the LE serde path) on purpose.
    const uint32_t endian_marker = 1;
    w.WriteRaw(&endian_marker, 4);
    w.WriteU64(kV2Alignment);
    w.WriteU64(file_size);
    w.WriteU64(meta_off);
    w.WriteU64(meta_bytes.size());
    w.WriteU64(XxHash64(meta_bytes.data(), meta_bytes.size()));
    w.WriteU64(data_off);
    w.WriteU64(data.size());
    w.WriteU64(XxHash64(data.data(), data.size()));
    if (any_sketch) {
      w.WriteU64(skch_off);
      w.WriteU64(skch.size());
      w.WriteU64(XxHash64(skch.data(), skch.size()));
    }
    w.AlignTo(kV2Alignment);
    w.WriteRaw(meta_bytes.data(), meta_bytes.size());
    w.AlignTo(kV2Alignment);
    w.WriteRaw(data.data(), data.size());
    if (any_sketch) {
      w.AlignTo(kV2Alignment);
      w.WriteRaw(skch.data(), skch.size());
    }
    AD_RETURN_NOT_OK(w.status());
    out.close();
    return out ? Status::OK() : Status::IOError("cannot finish writing " + tmp);
  }();
  if (written.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    written = Status::IOError("cannot rename " + tmp + " to " + path + ": " +
                              std::strerror(errno));
  }
  if (!written.ok()) std::remove(tmp.c_str());
  return written.WithContext("writing " + path);
}

Result<Model> Model::Load(const std::string& path) {
  AD_ASSIGN_OR_RETURN(MmapFile mapped, MmapFile::Open(path));
  auto backing = std::make_shared<MmapFile>(std::move(mapped));
  const uint8_t* base = backing->data();
  const size_t actual_size = backing->size();
  if (actual_size >= 16 && std::memcmp(base + 8, kRetiredMagic, 8) == 0) {
    return Status::Invalid(
        path + " is an ADMODEL1 model, a retired format this build no longer "
        "reads; retrain it (autodetect_cli train) to get an ADMODEL2 artifact");
  }
  // A short prefix of the magic is a truncated artifact; anything else is
  // not a model at all.
  if (actual_size > 0 &&
      std::memcmp(base, kMagicV2, std::min<size_t>(actual_size, 8)) != 0) {
    return Status::Corruption("not an ADMODEL2 file: " + path);
  }
  if (actual_size < kV2HeaderBytes) {
    return Status::IOError(StrFormat(
        "truncated model header in %s: needed %zu bytes, got %zu", path.c_str(),
        kV2HeaderBytes, actual_size));
  }
  uint32_t endian_marker;
  std::memcpy(&endian_marker, base + 12, 4);
  if (endian_marker != 1) {
    return Status::Corruption(
        "model file byte order does not match this host: " + path);
  }
  uint32_t version;
  std::memcpy(&version, base + 8, 4);
  if (version != kV2Version && version != kV3Version) {
    return Status::Corruption(StrFormat(
        "ADMODEL2 version mismatch in %s (header): expected %u or %u, found %u",
        path.c_str(), kV2Version, kV3Version, version));
  }
  const bool has_skch = version == kV3Version;
  const size_t header_bytes = has_skch ? kV3HeaderBytes : kV2HeaderBytes;
  if (actual_size < header_bytes) {
    return Status::IOError(StrFormat(
        "truncated model header in %s: needed %zu bytes, got %zu", path.c_str(),
        header_bytes, actual_size));
  }
  BinaryReader header(base + 8, header_bytes - 8);
  AD_RETURN_NOT_OK(header.ReadU32().status());  // version, checked above
  AD_RETURN_NOT_OK(header.ReadU32().status());  // endian marker, checked above
  AD_ASSIGN_OR_RETURN(uint64_t alignment, header.ReadU64());
  AD_ASSIGN_OR_RETURN(uint64_t file_size, header.ReadU64());
  AD_ASSIGN_OR_RETURN(uint64_t meta_off, header.ReadU64());
  AD_ASSIGN_OR_RETURN(uint64_t meta_len, header.ReadU64());
  AD_ASSIGN_OR_RETURN(uint64_t meta_checksum, header.ReadU64());
  AD_ASSIGN_OR_RETURN(uint64_t data_off, header.ReadU64());
  AD_ASSIGN_OR_RETURN(uint64_t data_len, header.ReadU64());
  AD_ASSIGN_OR_RETURN(uint64_t data_checksum, header.ReadU64());
  uint64_t skch_off = 0, skch_len = 0, skch_checksum = 0;
  if (has_skch) {
    AD_ASSIGN_OR_RETURN(skch_off, header.ReadU64());
    AD_ASSIGN_OR_RETURN(skch_len, header.ReadU64());
    AD_ASSIGN_OR_RETURN(skch_checksum, header.ReadU64());
  }

  if (alignment < 8 || alignment > (1ULL << 24) ||
      (alignment & (alignment - 1)) != 0) {
    return Status::Corruption("implausible section alignment in " + path);
  }
  if (actual_size < file_size) {
    // The one failure a half-copied file produces: the header promises more
    // bytes than arrived. Distinct from Corruption so operators know to
    // re-copy rather than re-train.
    return Status::IOError(StrFormat(
        "truncated model file %s: header declares %llu bytes, file has %zu",
        path.c_str(), static_cast<unsigned long long>(file_size), actual_size));
  }
  if (actual_size > file_size) {
    return Status::Corruption("model file has trailing bytes: " + path);
  }
  auto section_ok = [&](uint64_t off, uint64_t len) {
    return off >= header_bytes && off % 8 == 0 && off <= file_size &&
           len <= file_size - off;
  };
  if (!section_ok(meta_off, meta_len) || !section_ok(data_off, data_len)) {
    return Status::Corruption("section bounds out of range in " + path);
  }
  if (has_skch && !section_ok(skch_off, skch_len)) {
    return Status::Corruption("SKCH section bounds out of range in " + path);
  }

  // Integrity: one sequential pass over both sections. Fail closed — a bad
  // checksum never yields a model.
  backing->Advise(MmapFile::Advice::kSequential);
  // Chaos: pretend the artifact's bytes do not match its recorded digest —
  // the cheap way to prove loads fail closed on silent corruption.
  if (AD_FAILPOINT("model.load.corrupt")) {
    return Status::Corruption(
        "META section checksum mismatch in " + path +
        " (failpoint model.load.corrupt)");
  }
  if (XxHash64(base + meta_off, meta_len) != meta_checksum) {
    return Status::Corruption("META section checksum mismatch in " + path);
  }
  if (XxHash64(base + data_off, data_len) != data_checksum) {
    return Status::Corruption("DATA section checksum mismatch in " + path);
  }
  if (has_skch && XxHash64(base + skch_off, skch_len) != skch_checksum) {
    return Status::Corruption("SKCH section checksum mismatch in " + path);
  }
  // Detection probes the tables randomly; stop the kernel from read-ahead
  // faulting pages the knapsack said we cannot afford.
  backing->Advise(MmapFile::Advice::kRandom, data_off, data_len);
  if (has_skch) backing->Advise(MmapFile::Advice::kRandom, skch_off, skch_len);

  Model model;
  model.backing_ = backing;
  const uint8_t* data = base + data_off;
  BinaryReader meta(base + meta_off, meta_len);
  AD_ASSIGN_OR_RETURN(model.smoothing_factor, meta.ReadDouble());
  AD_ASSIGN_OR_RETURN(model.precision_target, meta.ReadDouble());
  AD_ASSIGN_OR_RETURN(model.corpus_name, meta.ReadString());
  AD_ASSIGN_OR_RETURN(model.trained_columns, meta.ReadU64());
  AD_ASSIGN_OR_RETURN(uint64_t n, meta.ReadU64());
  if (n > 10000) return meta.Corrupt("implausible language count");
  for (uint64_t i = 0; i < n; ++i) {
    ModelLanguage l;
    AD_ASSIGN_OR_RETURN(uint32_t id, meta.ReadU32());
    if (id >= static_cast<uint32_t>(LanguageSpace::kNumLanguages)) {
      return meta.Corrupt("language id out of range");
    }
    l.lang_id = static_cast<int>(id);
    AD_ASSIGN_OR_RETURN(l.threshold, meta.ReadDouble());
    AD_ASSIGN_OR_RETURN(l.train_coverage, meta.ReadU64());
    AD_ASSIGN_OR_RETURN(uint64_t curve_off, meta.ReadU64());
    AD_ASSIGN_OR_RETURN(uint64_t curve_len, meta.ReadU64());
    AD_ASSIGN_OR_RETURN(uint64_t stats_off, meta.ReadU64());
    AD_ASSIGN_OR_RETURN(uint64_t stats_len, meta.ReadU64());
    uint64_t lang_skch_off = 0, lang_skch_len = 0;
    if (has_skch) {
      AD_ASSIGN_OR_RETURN(lang_skch_off, meta.ReadU64());
      AD_ASSIGN_OR_RETURN(lang_skch_len, meta.ReadU64());
    }
    auto blob_ok = [&](uint64_t off, uint64_t len) {
      return off % 8 == 0 && off <= data_len && len <= data_len - off;
    };
    if (!blob_ok(curve_off, curve_len) || !blob_ok(stats_off, stats_len)) {
      return meta.Corrupt("language blob bounds out of range");
    }
    if (lang_skch_off % 8 != 0 || lang_skch_off > skch_len ||
        lang_skch_len > skch_len - lang_skch_off) {
      return meta.Corrupt("language sketch blob bounds out of range");
    }
    AD_ASSIGN_OR_RETURN(l.curve,
                        PrecisionCurve::FromFrozen(data + curve_off, curve_len));
    AD_ASSIGN_OR_RETURN(l.stats,
                        FrozenStats::FromFrozen(data + stats_off, stats_len, backing));
    // A stats blob declaring a sketch and a META row carrying one must
    // agree — a mismatch either way is structural corruption, never a
    // language silently served without its co-occurrence table.
    if (l.stats.uses_sketch() != (lang_skch_len > 0)) {
      return meta.Corrupt("language sketch flag / SKCH reference mismatch");
    }
    if (l.stats.uses_sketch()) {
      AD_ASSIGN_OR_RETURN(CountMinSketch::FrozenView view,
                          CountMinSketch::FrozenView::FromBytes(
                              base + skch_off + lang_skch_off, lang_skch_len));
      if (view.bytes() != lang_skch_len) {
        return meta.Corrupt("language sketch blob has trailing bytes");
      }
      l.stats.AttachSketch(std::move(view));
    }
    model.languages.push_back(std::move(l));
  }
  return model;
}

}  // namespace autodetect
