#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "detect/api.h"
#include "io/serde.h"

/// \file wire.h
/// ADWIRE1 — the length-prefixed binary protocol the network server
/// (net/server.h) speaks. It exists so streaming detection survives the
/// wire: each column's DetectReport is framed and sent the moment that
/// column's scan completes, not when the whole batch drains, so a client
/// scanning a 500-column table sees its first findings while the tail is
/// still queued.
///
/// Connection layout (client → server):
///   magic "ADWIRE1\n" (8 bytes, sent once)   — also how the server sniffs
///                                              binary vs HTTP on a shared
///                                              port (no HTTP method starts
///                                              with these bytes)
///   frame*                                    — any number of requests
///
/// Frame layout (both directions):
///   u32  payload_len   little-endian, counts only the payload bytes
///   u8   type          FrameType below
///   u8[payload_len]    payload, encoded with io/serde.h primitives
///
/// Per request the server answers with exactly
///   kColumnReport × columns  (one per column, arrival order unspecified)
///   kBatchDone × 1           (always last for that request_id)
/// or a single kError frame when the request payload itself was
/// undecodable. Multiple requests may be in flight on one connection;
/// request_id (chosen by the client) ties responses to requests.
///
/// Decoding fails closed: payloads larger than WireLimits::max_frame_bytes,
/// unknown frame types, and semantically invalid payloads (implausible
/// counts, truncated strings) all yield structured errors — never a crash,
/// never a partially-applied request. The error taxonomy follows io/serde.h:
/// IOError = truncated, Corruption = bytes present but invalid.
///
/// All doubles (finding confidences) travel as raw IEEE-754 bits via
/// BinaryWriter::WriteDouble, so a report decoded off the wire is
/// byte-identical to the in-process DetectReport — the loopback test in
/// tests/net_test.cc asserts exactly that.

namespace autodetect {

/// The 8-byte connection preamble. Chosen to be impossible as an HTTP
/// request prefix so one port can serve both protocols.
inline constexpr char kWireMagic[] = "ADWIRE1\n";
inline constexpr size_t kWireMagicLen = 8;

/// Frame header: u32 payload_len + u8 type.
inline constexpr size_t kWireHeaderLen = 5;

enum class FrameType : uint8_t {
  kDetectRequest = 1,  ///< client → server: one batch of columns
  kColumnReport = 2,   ///< server → client: one column's DetectReport
  kBatchDone = 3,      ///< server → client: request fully answered
  kError = 4,          ///< server → client: request-level failure
};

/// Decode-side guards against hostile or corrupt length prefixes.
struct WireLimits {
  size_t max_frame_bytes = 64u << 20;  ///< payload cap; larger = Corruption
  size_t max_string_bytes = 4u << 20;  ///< any single value/name/tag
  size_t max_columns = 64u << 10;      ///< columns per request
  size_t max_values = 4u << 20;        ///< values per column
};

/// One column of a wire request.
struct WireColumn {
  std::string name;
  std::vector<std::string> values;
};

/// Payload of a kDetectRequest frame. Maps 1:1 onto a batch of
/// DetectRequests with RequestContext{tenant, tag, deadline_ms}.
struct WireRequest {
  uint64_t request_id = 0;  ///< client-chosen; echoed on every response frame
  std::string tenant;
  std::string tag;
  uint64_t deadline_ms = 0;
  std::vector<WireColumn> columns;
};

/// Payload of a kColumnReport frame.
struct WireReport {
  uint64_t request_id = 0;
  uint64_t column_index = 0;  ///< position in the request's column list
  DetectReport report;
};

/// Payload of a kBatchDone frame.
struct WireBatchDone {
  uint64_t request_id = 0;
  uint64_t columns = 0;  ///< how many kColumnReport frames preceded it
};

/// Payload of a kError frame. request_id is 0 when the failure predates
/// decoding an id (e.g. an oversized frame header).
struct WireError {
  uint64_t request_id = 0;
  std::string message;
};

// --- Encoding (returns the complete frame: header + payload) ---

std::string EncodeRequestFrame(const WireRequest& request);
std::string EncodeReportFrame(const WireReport& report);
std::string EncodeBatchDoneFrame(const WireBatchDone& done);
std::string EncodeErrorFrame(const WireError& error);

/// Serializes one DetectReport (shared by the report frame and tests).
void EncodeDetectReport(BinaryWriter* writer, const DetectReport& report);
Result<DetectReport> DecodeDetectReport(BinaryReader* reader,
                                        const WireLimits& limits = {});

// --- Incremental framing ---

/// A complete frame found at the head of a receive buffer. `payload` points
/// into the buffer passed to PeekFrame — consume `frame_len` bytes only
/// after acting on it.
struct FrameView {
  FrameType type = FrameType::kError;
  std::string_view payload;
  size_t frame_len = 0;  ///< header + payload bytes to consume
};

/// Inspects the head of `buffer` for one frame.
///  * nullopt        — the buffer holds only a partial frame; read more.
///  * FrameView      — a complete frame (type validated, length within
///                     limits); payload still needs its own decode.
///  * error Status   — unrecoverable framing violation (oversized length
///                     prefix, unknown frame type). The connection cannot
///                     be resynchronized and must be closed after an error
///                     frame.
Result<std::optional<FrameView>> PeekFrame(std::string_view buffer,
                                           const WireLimits& limits = {});
/// A temporary buffer would leave the FrameView's payload dangling.
Result<std::optional<FrameView>> PeekFrame(std::string&&, const WireLimits& = {}) = delete;

// --- Payload decoding (the payload of a validated FrameView) ---

Result<WireRequest> DecodeRequestPayload(std::string_view payload,
                                         const WireLimits& limits = {});
Result<WireReport> DecodeReportPayload(std::string_view payload,
                                       const WireLimits& limits = {});
Result<WireBatchDone> DecodeBatchDonePayload(std::string_view payload);
Result<WireError> DecodeErrorPayload(std::string_view payload,
                                     const WireLimits& limits = {});

/// Converts a wire request into the engine's batch shape: one DetectRequest
/// per column, all sharing RequestContext{tenant, tag, deadline_ms}.
std::vector<DetectRequest> ToDetectBatch(const WireRequest& request);

/// Working-set bytes a decoded request holds in its strings — what
/// ToDetectBatch will copy. The serving layer charges this against the
/// MemoryBudget at column-materialization time.
size_t WireRequestBytes(const WireRequest& request);

}  // namespace autodetect
