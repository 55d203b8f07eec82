// Tests for the network front-end (src/net): ADWIRE1 framing round-trips
// and fail-closed decoding, the strict JSON parser and its /detect bridges,
// incremental HTTP parsing, per-tenant quota resolution — and the loopback
// acceptance tests against a live epoll server:
//
//  (a) reports read off the wire are byte-identical (hexfloat fingerprints)
//      to the same engine's in-process Detect;
//  (b) killing a client mid-batch cancels its in-flight columns while the
//      server keeps serving others;
//  (c) an over-quota tenant's batches are shed with per-tenant admission
//      attribution while a concurrent under-quota tenant sees all-kOk.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "corpus/corpus_generator.h"
#include "detect/trainer.h"
#include "net/client.h"
#include "net/http.h"
#include "net/json.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/detection_engine.h"
#include "serve/lifecycle.h"
#include "serve/resilience.h"

namespace autodetect {
namespace {

// ------------------------------------------------------------ wire framing

WireRequest SampleRequest() {
  WireRequest request;
  request.request_id = 0x1122334455667788ull;
  request.tenant = "acme";
  request.tag = "t1.csv";
  request.deadline_ms = 250;
  request.columns.push_back({"dates", {"2011-01-01", "2011-01-02", "x"}});
  request.columns.push_back({"empty", {}});
  request.columns.push_back({"unicode", {"a\"b\\c", "\n\t", std::string(1, '\0')}});
  return request;
}

DetectReport SampleReport() {
  DetectReport report;
  report.name = "dates";
  report.tag = "t1.csv";
  report.status = ColumnStatus::kDegraded;
  report.latency_us = 12345;
  report.column.distinct_values = 3;
  // Doubles chosen to catch any text round-trip: non-terminating binary
  // fractions, a denormal, extremes of the exponent range.
  report.column.cells.push_back({7, "x", 0.1, 2});
  report.column.cells.push_back({9, "y", 1.0 / 3.0, 1});
  report.column.pairs.push_back({"2011-01-01", "x", 5e-324});
  report.column.pairs.push_back({"2011-01-02", "x", 1.7976931348623157e308});
  return report;
}

bool BitIdentical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(WireTest, RequestRoundTrips) {
  WireRequest request = SampleRequest();
  std::string frame = EncodeRequestFrame(request);

  auto peeked = PeekFrame(frame);
  ASSERT_TRUE(peeked.ok()) << peeked.status().ToString();
  ASSERT_TRUE(peeked->has_value());
  EXPECT_EQ((*peeked)->type, FrameType::kDetectRequest);
  EXPECT_EQ((*peeked)->frame_len, frame.size());

  auto decoded = DecodeRequestPayload((*peeked)->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, request.request_id);
  EXPECT_EQ(decoded->tenant, request.tenant);
  EXPECT_EQ(decoded->tag, request.tag);
  EXPECT_EQ(decoded->deadline_ms, request.deadline_ms);
  ASSERT_EQ(decoded->columns.size(), request.columns.size());
  for (size_t i = 0; i < request.columns.size(); ++i) {
    EXPECT_EQ(decoded->columns[i].name, request.columns[i].name);
    EXPECT_EQ(decoded->columns[i].values, request.columns[i].values);
  }
}

TEST(WireTest, ReportRoundTripsDoublesBitExact) {
  WireReport report{42, 7, SampleReport()};
  std::string frame = EncodeReportFrame(report);

  auto peeked = PeekFrame(frame);
  ASSERT_TRUE(peeked.ok());
  ASSERT_TRUE(peeked->has_value());
  EXPECT_EQ((*peeked)->type, FrameType::kColumnReport);

  auto decoded = DecodeReportPayload((*peeked)->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->request_id, 42u);
  EXPECT_EQ(decoded->column_index, 7u);
  const DetectReport& got = decoded->report;
  const DetectReport& want = report.report;
  EXPECT_EQ(got.name, want.name);
  EXPECT_EQ(got.tag, want.tag);
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.latency_us, want.latency_us);
  EXPECT_EQ(got.column.distinct_values, want.column.distinct_values);
  ASSERT_EQ(got.column.cells.size(), want.column.cells.size());
  for (size_t i = 0; i < want.column.cells.size(); ++i) {
    EXPECT_EQ(got.column.cells[i].row, want.column.cells[i].row);
    EXPECT_EQ(got.column.cells[i].value, want.column.cells[i].value);
    EXPECT_EQ(got.column.cells[i].incompatible_with,
              want.column.cells[i].incompatible_with);
    EXPECT_TRUE(BitIdentical(got.column.cells[i].confidence,
                             want.column.cells[i].confidence));
  }
  ASSERT_EQ(got.column.pairs.size(), want.column.pairs.size());
  for (size_t i = 0; i < want.column.pairs.size(); ++i) {
    EXPECT_EQ(got.column.pairs[i].u, want.column.pairs[i].u);
    EXPECT_EQ(got.column.pairs[i].v, want.column.pairs[i].v);
    EXPECT_TRUE(BitIdentical(got.column.pairs[i].confidence,
                             want.column.pairs[i].confidence));
  }
}

TEST(WireTest, BatchDoneAndErrorRoundTrip) {
  std::string done_frame = EncodeBatchDoneFrame({99, 12});
  auto done_peek = PeekFrame(done_frame);
  ASSERT_TRUE(done_peek.ok());
  ASSERT_TRUE(done_peek->has_value());
  EXPECT_EQ((*done_peek)->type, FrameType::kBatchDone);
  auto done = DecodeBatchDonePayload((*done_peek)->payload);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->request_id, 99u);
  EXPECT_EQ(done->columns, 12u);

  std::string error_frame = EncodeErrorFrame({7, "bad payload"});
  auto error_peek = PeekFrame(error_frame);
  ASSERT_TRUE(error_peek.ok());
  ASSERT_TRUE(error_peek->has_value());
  EXPECT_EQ((*error_peek)->type, FrameType::kError);
  auto error = DecodeErrorPayload((*error_peek)->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->request_id, 7u);
  EXPECT_EQ(error->message, "bad payload");
}

TEST(WireTest, TruncationSweepFailsClosed) {
  std::string frame = EncodeRequestFrame(SampleRequest());

  // Every strict prefix of the frame is "keep reading", never a bogus parse.
  for (size_t n = 0; n < frame.size(); ++n) {
    auto peeked = PeekFrame(std::string_view(frame).substr(0, n));
    ASSERT_TRUE(peeked.ok()) << "prefix " << n;
    EXPECT_FALSE(peeked->has_value()) << "prefix " << n;
  }

  // Every strict prefix of the *payload* is a decode error — truncation can
  // never produce a silently-short request.
  std::string_view payload =
      std::string_view(frame).substr(kWireHeaderLen);
  for (size_t n = 0; n < payload.size(); ++n) {
    auto decoded = DecodeRequestPayload(payload.substr(0, n));
    EXPECT_FALSE(decoded.ok()) << "payload prefix " << n;
  }
}

TEST(WireTest, OversizedAndUnknownFramesRejected) {
  WireLimits limits;
  limits.max_frame_bytes = 64;

  // Length prefix larger than the cap: unrecoverable framing error.
  std::string huge(kWireHeaderLen, '\0');
  uint32_t len = 1000;
  std::memcpy(huge.data(), &len, sizeof(len));
  huge[4] = static_cast<char>(FrameType::kDetectRequest);
  auto oversized = PeekFrame(huge, limits);
  EXPECT_FALSE(oversized.ok());

  // Unknown frame type: same.
  std::string bad_type(kWireHeaderLen, '\0');
  bad_type[4] = 9;
  auto unknown = PeekFrame(bad_type, limits);
  EXPECT_FALSE(unknown.ok());
}

TEST(WireTest, GarbageAndHostileCountsFailClosed) {
  // Random-looking bytes as a request payload: must error, never crash.
  std::string garbage = "\xde\xad\xbe\xef not a payload \x01\x02\x03";
  EXPECT_FALSE(DecodeRequestPayload(garbage).ok());
  EXPECT_FALSE(DecodeReportPayload(garbage).ok());
  EXPECT_FALSE(DecodeErrorPayload(garbage).ok());

  // A column count past the limit is rejected before any allocation that
  // size: encode 2 columns, then decode under a 1-column limit.
  WireRequest request = SampleRequest();
  std::string frame = EncodeRequestFrame(request);
  WireLimits tight;
  tight.max_columns = 1;
  auto decoded =
      DecodeRequestPayload(std::string_view(frame).substr(kWireHeaderLen), tight);
  EXPECT_FALSE(decoded.ok());

  // Same for per-column value counts and string sizes.
  tight = WireLimits{};
  tight.max_values = 2;
  EXPECT_FALSE(
      DecodeRequestPayload(std::string_view(frame).substr(kWireHeaderLen), tight)
          .ok());
  tight = WireLimits{};
  tight.max_string_bytes = 3;
  EXPECT_FALSE(
      DecodeRequestPayload(std::string_view(frame).substr(kWireHeaderLen), tight)
          .ok());
}

TEST(WireTest, ToDetectBatchSharesContext) {
  WireRequest request = SampleRequest();
  std::vector<DetectRequest> batch = ToDetectBatch(request);
  ASSERT_EQ(batch.size(), request.columns.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].name, request.columns[i].name);
    EXPECT_EQ(batch[i].values, request.columns[i].values);
    EXPECT_EQ(batch[i].context.tenant, "acme");
    EXPECT_EQ(batch[i].context.tag, "t1.csv");
    EXPECT_EQ(batch[i].context.deadline_ms, 250u);
  }
}

// ------------------------------------------------------------ JSON

TEST(JsonTest, ParsesPrimitivesAndNesting) {
  auto parsed = ParseJson(
      R"({"a": [1, -2.5, 1e3], "s": "q\"\\\nA\ud83d\ude00", )"
      R"("t": true, "n": null, "o": {"k": "v"}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->IsObject());
  const JsonValue* a = parsed->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->IsArray());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a->array[1].number, -2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, 1000.0);
  const JsonValue* s = parsed->Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->str, "q\"\\\nA\xF0\x9F\x98\x80");  // surrogate pair -> UTF-8
  EXPECT_TRUE(parsed->Find("t")->boolean);
  EXPECT_EQ(parsed->Find("n")->type, JsonValue::Type::kNull);
  EXPECT_EQ(parsed->Find("o")->Find("k")->str, "v");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("\"bad \\q escape\"").ok());
  EXPECT_FALSE(ParseJson("01").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  // Depth bomb: 100 nested arrays against a 64-deep limit.
  std::string bomb(100, '[');
  bomb += std::string(100, ']');
  EXPECT_FALSE(ParseJson(bomb).ok());
  EXPECT_TRUE(ParseJson(std::string(60, '[') + std::string(60, ']')).ok());
}

TEST(JsonTest, DetectRequestBridge) {
  auto request = ParseJsonDetectRequest(
      R"({"tenant": "acme", "tag": "web", "deadline_ms": 99, "request_id": 5,)"
      R"( "columns": [{"name": "year", "values": ["1981", "1990"]},)"
      R"( {"name": "empty", "values": []}]})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->request_id, 5u);
  EXPECT_EQ(request->tenant, "acme");
  EXPECT_EQ(request->tag, "web");
  EXPECT_EQ(request->deadline_ms, 99u);
  ASSERT_EQ(request->columns.size(), 2u);
  EXPECT_EQ(request->columns[0].name, "year");
  EXPECT_EQ(request->columns[0].values,
            (std::vector<std::string>{"1981", "1990"}));

  // Optional fields default.
  auto minimal = ParseJsonDetectRequest(
      R"({"columns": [{"name": "c", "values": ["v"]}]})");
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal->tenant, "");
  EXPECT_EQ(minimal->deadline_ms, 0u);

  // Fail closed: no columns, wrong types, over-limit counts.
  EXPECT_FALSE(ParseJsonDetectRequest(R"({"tenant": "a"})").ok());
  EXPECT_FALSE(ParseJsonDetectRequest(R"({"columns": "nope"})").ok());
  WireLimits tight;
  tight.max_columns = 1;
  EXPECT_FALSE(ParseJsonDetectRequest(
                   R"({"columns": [{"name": "a", "values": []},)"
                   R"( {"name": "b", "values": []}]})",
                   tight)
                   .ok());
}

TEST(JsonTest, ResponseRoundTripsThroughParser) {
  std::vector<DetectReport> reports;
  reports.push_back(SampleReport());
  std::string body = DetectResponseToJson(31, reports);
  auto parsed = ParseJson(body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << body;
  EXPECT_DOUBLE_EQ(parsed->Find("request_id")->number, 31.0);
  const JsonValue* list = parsed->Find("reports");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->array.size(), 1u);
  const JsonValue& r = list->array[0];
  EXPECT_EQ(r.Find("name")->str, "dates");
  EXPECT_EQ(r.Find("status")->str, "degraded");
  // %.17g is enough for doubles to survive text round-trips exactly.
  EXPECT_DOUBLE_EQ(r.Find("cells")->array[1].Find("confidence")->number,
                   1.0 / 3.0);
}

// ------------------------------------------------------------ HTTP

TEST(HttpTest, ParsesIncrementally) {
  std::string full =
      "POST /detect HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n"
      "X-Mixed-Case: V\r\n\r\nbody";
  for (size_t n = 0; n < full.size(); ++n) {
    auto partial = ParseHttpRequest(full.substr(0, n));
    ASSERT_TRUE(partial.ok()) << "prefix " << n;
    EXPECT_FALSE(partial->has_value()) << "prefix " << n;
  }
  auto parsed = ParseHttpRequest(full);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->has_value());
  EXPECT_EQ((*parsed)->method, "POST");
  EXPECT_EQ((*parsed)->target, "/detect");
  EXPECT_EQ((*parsed)->body, "body");
  EXPECT_EQ((*parsed)->consumed, full.size());
  EXPECT_TRUE((*parsed)->keep_alive);
  ASSERT_NE((*parsed)->Header("x-mixed-case"), nullptr);
  EXPECT_EQ(*(*parsed)->Header("x-mixed-case"), "V");
}

TEST(HttpTest, ConnectionSemantics) {
  auto v10 = ParseHttpRequest("GET / HTTP/1.0\r\n\r\n");
  ASSERT_TRUE(v10.ok() && v10->has_value());
  EXPECT_FALSE((*v10)->keep_alive);
  auto close = ParseHttpRequest("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(close.ok() && close->has_value());
  EXPECT_FALSE((*close)->keep_alive);
}

TEST(HttpTest, RejectsBadInput) {
  EXPECT_FALSE(ParseHttpRequest("NOT-HTTP\r\n\r\n").ok());
  EXPECT_FALSE(ParseHttpRequest("GET / SPDY/9\r\n\r\n").ok());
  EXPECT_FALSE(
      ParseHttpRequest("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
          .ok());
  EXPECT_FALSE(
      ParseHttpRequest("GET / HTTP/1.1\r\nContent-Length: zebra\r\n\r\n").ok());

  HttpLimits limits;
  limits.max_head_bytes = 32;
  std::string long_head = "GET / HTTP/1.1\r\nX: " + std::string(100, 'a');
  auto oversized = ParseHttpRequest(long_head, limits);
  EXPECT_FALSE(oversized.ok());
  EXPECT_TRUE(oversized.status().IsCapacityExceeded());

  limits = HttpLimits{};
  limits.max_body_bytes = 8;
  auto big_body = ParseHttpRequest(
      "POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n", limits);
  EXPECT_FALSE(big_body.ok());
  EXPECT_TRUE(big_body.status().IsCapacityExceeded());
}

TEST(HttpTest, WireSniffAndResponseBuild) {
  EXPECT_TRUE(LooksLikeWirePreamble("ADWIRE1\nmore"));
  EXPECT_TRUE(LooksLikeWirePreamble("ADW"));  // still possible: keep reading
  EXPECT_TRUE(LooksLikeWirePreamble(""));
  EXPECT_FALSE(LooksLikeWirePreamble("GET / HTTP/1.1"));
  EXPECT_FALSE(LooksLikeWirePreamble("POST"));

  std::string response = BuildHttpResponse(200, "text/plain", "hi", false);
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(response.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(response.substr(response.size() - 2), "hi");
}

// ------------------------------------------------------------ tenants

TEST(TenantTest, ParsesSpecAndResolvesControllers) {
  MetricsRegistry registry;
  TenantTable table(&registry);
  ASSERT_TRUE(table.Parse("acme=512:block,free=64,*=4096:shed-oldest").ok());

  TenantSpec acme = table.SpecFor("acme");
  EXPECT_EQ(acme.queue_cap_columns, 512u);
  EXPECT_EQ(acme.policy, AdmissionPolicy::kBlock);
  EXPECT_EQ(table.SpecFor("free").policy, AdmissionPolicy::kReject);
  // Unlisted tenants resolve to the '*' default.
  EXPECT_EQ(table.SpecFor("stranger").queue_cap_columns, 4096u);
  EXPECT_EQ(table.SpecFor("stranger").policy, AdmissionPolicy::kShedOldest);

  AdmissionController* c1 = table.ControllerFor("acme");
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(table.ControllerFor("acme"), c1);  // cached, pointer-stable

  // A 0-cap tenant is unlimited: no controller at all.
  table.SetSpec("open", TenantSpec{});
  EXPECT_EQ(table.ControllerFor("open"), nullptr);

  EXPECT_EQ(table.ConfiguredTenants().size(), 3u);  // acme, free, open
}

TEST(TenantTest, UnlimitedByDefaultAndRejectsBadSpecs) {
  TenantTable table;
  EXPECT_EQ(table.SpecFor("anyone").queue_cap_columns, 0u);
  EXPECT_EQ(table.ControllerFor("anyone"), nullptr);

  EXPECT_FALSE(table.Parse("no-equals").ok());
  EXPECT_FALSE(table.Parse("a=notanumber").ok());
  EXPECT_FALSE(table.Parse("a=5:bogus-policy").ok());
  EXPECT_FALSE(table.Parse("=5").ok());
}

// ------------------------------------------------------------ decode fuzz

/// Structure-aware mutation for the decode fuzzers: 1-3 operations drawn
/// from byte flips, truncation, random splices, and length-prefix
/// tampering. Starting from VALID frames (rather than pure noise) keeps the
/// mutants deep in the decoders, where a lazy bounds check would hide.
std::string Mutate(std::string bytes, Pcg32* rng) {
  const int ops = 1 + static_cast<int>(rng->Uniform(0, 2));
  for (int op = 0; op < ops && !bytes.empty(); ++op) {
    switch (rng->Uniform(0, 3)) {
      case 0: {  // flip bits in one byte
        size_t i = static_cast<size_t>(
            rng->Uniform(0, static_cast<int64_t>(bytes.size()) - 1));
        bytes[i] = static_cast<char>(bytes[i] ^ (1 + rng->Uniform(0, 254)));
        break;
      }
      case 1:  // truncate at a random point
        bytes.resize(static_cast<size_t>(
            rng->Uniform(0, static_cast<int64_t>(bytes.size()))));
        break;
      case 2: {  // splice a run of junk into the middle
        size_t at = static_cast<size_t>(
            rng->Uniform(0, static_cast<int64_t>(bytes.size())));
        std::string junk;
        for (int64_t i = 0, n = rng->Uniform(1, 16); i < n; ++i) {
          junk.push_back(static_cast<char>(rng->Uniform(0, 255)));
        }
        bytes.insert(at, junk);
        break;
      }
      default:  // tamper the (little-endian) length prefix
        if (bytes.size() >= 4) {
          uint32_t len = static_cast<uint32_t>(rng->Uniform(0, 1 << 28));
          std::memcpy(bytes.data(), &len, sizeof(len));
        }
        break;
    }
  }
  return bytes;
}

TEST(WireFuzzTest, MutatedAndGarbageFramesFailClosed) {
  WireReport sample_report;
  sample_report.request_id = 7;
  sample_report.column_index = 1;
  sample_report.report = SampleReport();
  const std::vector<std::string> seeds = {
      EncodeRequestFrame(SampleRequest()),
      EncodeReportFrame(sample_report),
      EncodeBatchDoneFrame(WireBatchDone{7, 3}),
      EncodeErrorFrame(WireError{42, "boom"}),
  };
  WireLimits limits;  // stock limits: mutated prefixes can exceed them
  Pcg32 rng(0x20180610);
  size_t decoded_ok = 0, rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string frame;
    if (iter % 5 == 4) {  // pure-garbage leg alongside the mutants
      for (int64_t i = 0, n = rng.Uniform(0, 96); i < n; ++i) {
        frame.push_back(static_cast<char>(rng.Uniform(0, 255)));
      }
    } else {
      frame = Mutate(seeds[static_cast<size_t>(iter) % seeds.size()], &rng);
    }

    auto peeked = PeekFrame(frame, limits);
    if (!peeked.ok()) {
      // Framing damage is typed Corruption — never a crash, never a hang.
      EXPECT_TRUE(peeked.status().IsCorruption())
          << peeked.status().ToString();
      ++rejected;
      continue;
    }
    if (!peeked->has_value()) continue;  // incomplete: "read more", no parse

    const std::string_view payload = (*peeked)->payload;
    Status status = Status::OK();
    size_t decoded_bytes = 0;
    switch ((*peeked)->type) {
      case FrameType::kDetectRequest: {
        auto decoded = DecodeRequestPayload(payload, limits);
        if (decoded.ok()) {
          EXPECT_LE(decoded->columns.size(), limits.max_columns);
          decoded_bytes = decoded->tenant.size() + decoded->tag.size();
          for (const WireColumn& column : decoded->columns) {
            EXPECT_LE(column.values.size(), limits.max_values);
            decoded_bytes += column.name.size();
            for (const std::string& value : column.values) {
              decoded_bytes += value.size();
            }
          }
        } else {
          status = decoded.status();
        }
        break;
      }
      case FrameType::kColumnReport: {
        auto decoded = DecodeReportPayload(payload, limits);
        if (decoded.ok()) {
          decoded_bytes = decoded->report.name.size();
          for (const auto& cell : decoded->report.column.cells) {
            decoded_bytes += cell.value.size();
          }
          for (const auto& pair : decoded->report.column.pairs) {
            decoded_bytes += pair.u.size() + pair.v.size();
          }
        } else {
          status = decoded.status();
        }
        break;
      }
      case FrameType::kBatchDone: {
        auto decoded = DecodeBatchDonePayload(payload);
        if (!decoded.ok()) status = decoded.status();
        break;
      }
      case FrameType::kError: {
        auto decoded = DecodeErrorPayload(payload, limits);
        if (decoded.ok()) {
          decoded_bytes = decoded->message.size();
        } else {
          status = decoded.status();
        }
        break;
      }
    }
    if (status.ok()) {
      // No amplification: every decoded string was carved out of the
      // payload, so a hostile frame can never make the decoder allocate
      // more string bytes than it sent.
      EXPECT_LE(decoded_bytes, frame.size()) << "iteration " << iter;
      ++decoded_ok;
    } else {
      // Fail-closed taxonomy: truncation is IOError, damage is Corruption.
      EXPECT_TRUE(status.IsIOError() || status.IsCorruption())
          << status.ToString();
      ++rejected;
    }
  }
  // The fuzzer must exercise both outcomes, or the mutations are too tame
  // (everything surviving) or too wild (nothing reaching the decoders).
  EXPECT_GT(decoded_ok, 0u);
  EXPECT_GT(rejected, 100u);
}

TEST(HttpFuzzTest, MutatedRequestsParseOrFailCleanly) {
  const std::string seed =
      "POST /detect HTTP/1.1\r\nHost: fuzz\r\n"
      "Content-Type: application/json\r\nContent-Length: 17\r\n\r\n"
      "0123456789abcdefg";
  HttpLimits limits;
  limits.max_head_bytes = 4096;
  limits.max_body_bytes = 1 << 16;
  Pcg32 rng(0xF022);
  size_t parsed_ok = 0, rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string buffer = Mutate(seed, &rng);
    auto parsed = ParseHttpRequest(buffer, limits);
    if (!parsed.ok()) {
      ++rejected;
      continue;
    }
    if (!parsed->has_value()) continue;
    const HttpRequest& request = **parsed;
    EXPECT_LE(request.consumed, buffer.size());
    EXPECT_LE(request.body.size(), limits.max_body_bytes);
    ++parsed_ok;
  }
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(JsonFuzzTest, MutatedDocumentsParseOrFailCleanly) {
  const std::string seed =
      R"({"tenant":"acme","tag":"t.csv","columns":[)"
      R"({"name":"dates","values":["2011-01-01","x"]},)"
      R"({"name":"qty","values":["1","2","3"]}]})";
  Pcg32 rng(0x75);
  size_t parsed_ok = 0, rejected = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string doc = Mutate(seed, &rng);
    auto parsed = ParseJson(doc);
    if (parsed.ok()) {
      ++parsed_ok;
    } else {
      ++rejected;
    }
  }
  // Strictness both ways: some mutants survive (the fuzzer reaches deep
  // structure), many die (the parser is not sloppily permissive).
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_GT(rejected, parsed_ok);
}

// ------------------------------------------------------------ loopback

/// Byte-exact rendering of a report: doubles go through %a (hexfloat), so
/// two fingerprints match iff the reports are bit-identical.
std::string Fingerprint(const ColumnReport& report) {
  std::string out = StrFormat("d=%zu\n", report.distinct_values);
  for (const auto& c : report.cells) {
    out += StrFormat("c %u \"%s\" %a %u\n", c.row, c.value.c_str(),
                     c.confidence, c.incompatible_with);
  }
  for (const auto& p : report.pairs) {
    out += StrFormat("p \"%s\"|\"%s\" %a\n", p.u.c_str(), p.v.c_str(),
                     p.confidence);
  }
  return out;
}

/// A batch wide enough to exercise out-of-order streaming but cheap to scan.
WireRequest SmallBatch(uint64_t request_id, const std::string& tenant) {
  WireRequest request;
  request.request_id = request_id;
  request.tenant = tenant;
  request.tag = "loopback";
  request.columns.push_back(
      {"dates", {"2011-01-01", "2011-01-02", "2011-01-03", "2011/01/05"}});
  request.columns.push_back({"years", {"1962", "1981", "1974", "1865."}});
  request.columns.push_back({"qty", {"12", "15", "9", "twelve"}});
  request.columns.push_back({"tiny", {"x"}});
  request.columns.push_back({"empty", {}});
  return request;
}

/// Columns with enough distinct values that a single scan takes real time —
/// the raw material for the cancellation and deadline tests.
WireRequest HeavyBatch(uint64_t request_id, size_t columns, size_t values) {
  WireRequest request;
  request.request_id = request_id;
  request.tag = "heavy";
  for (size_t c = 0; c < columns; ++c) {
    WireColumn column;
    column.name = StrFormat("heavy%zu", c);
    column.values.reserve(values);
    for (size_t v = 0; v < values; ++v) {
      // Distinct within a column (131 is coprime to 9000): interning must
      // not collapse the scan, or "heavy" stops meaning slow.
      column.values.push_back(StrFormat("%04zu-%02zu-%02zu",
                                        1000 + (v * 131 + c) % 9000,
                                        1 + (v * 7 + c) % 12, 1 + v % 28));
    }
    request.columns.push_back(std::move(column));
  }
  return request;
}

class NetFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions gen;
    gen.num_columns = 1200;
    gen.inject_errors = false;
    gen.seed = 20180610;
    GeneratedColumnSource source(gen);
    TrainOptions train;
    train.memory_budget_bytes = 16ull << 20;
    train.stats.language_ids = {
        LanguageSpace::IdOf(LanguageSpace::CrudeG()),
        LanguageSpace::IdOf(LanguageSpace::PaperL1()),
        LanguageSpace::IdOf(LanguageSpace::PaperL2()),
        5, 40, 77, 120};
    train.supervision.target_positives = 3000;
    train.supervision.target_negatives = 3000;
    train.corpus_name = "net-test-web";
    auto model = TrainModel(&source, train);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = new Model(std::move(*model));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  static Model* model_;
};

Model* NetFixture::model_ = nullptr;

TEST_F(NetFixture, WireReportsByteIdenticalToInProcessDetect) {
  MetricsRegistry registry;
  EngineOptions opts;
  opts.metrics = &registry;
  DetectionEngine engine(model_, opts);

  ServerOptions server_opts;
  server_opts.metrics = &registry;
  Server server(&engine, server_opts);
  ASSERT_TRUE(server.Start().ok());

  WireRequest request = SmallBatch(1, "acme");
  std::vector<DetectReport> local = engine.Detect(ToDetectBatch(request));

  auto client = WireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->SendRequest(request).ok());
  auto batch = client->ReadBatch(1);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch->done);
  EXPECT_FALSE(batch->errored);
  ASSERT_EQ(batch->reports.size(), local.size());

  for (size_t i = 0; i < local.size(); ++i) {
    const DetectReport& wire = batch->reports[i].report;
    EXPECT_EQ(batch->reports[i].column_index, i);
    EXPECT_EQ(wire.name, local[i].name);
    EXPECT_EQ(wire.tag, local[i].tag);
    EXPECT_EQ(wire.status, ColumnStatus::kOk);
    EXPECT_EQ(local[i].status, ColumnStatus::kOk);
    // THE acceptance bar: the report off the wire is byte-identical to the
    // in-process one (latency_us is execution metadata and excluded).
    EXPECT_EQ(Fingerprint(wire.column), Fingerprint(local[i].column))
        << "column " << i << " (" << wire.name << ")";
  }

  server.Stop();
}

TEST_F(NetFixture, MultipleRequestsShareOneConnection) {
  DetectionEngine engine(model_, EngineOptions{});
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  auto client = WireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendRequest(SmallBatch(10, "a")).ok());
  ASSERT_TRUE(client->SendRequest(SmallBatch(11, "b")).ok());
  // Read in reverse send order: frames for 10 buffer while draining 11.
  auto second = client->ReadBatch(11);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->done);
  EXPECT_EQ(second->reports.size(), 5u);
  auto first = client->ReadBatch(10);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->done);
  EXPECT_EQ(first->reports.size(), 5u);

  server.Stop();
}

TEST_F(NetFixture, HttpDetectHealthzAndMetrics) {
  MetricsRegistry registry;
  EngineOptions opts;
  opts.metrics = &registry;
  DetectionEngine engine(model_, opts);
  ServerOptions server_opts;
  server_opts.metrics = &registry;
  Server server(&engine, server_opts);
  ASSERT_TRUE(server.Start().ok());

  auto health = HttpGet("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status_code, 200);

  std::string body =
      R"({"tenant": "acme", "tag": "web", "columns": [)"
      R"({"name": "dates", "values": ["2011-01-01", "2011-01-02", "x"]},)"
      R"({"name": "qty", "values": ["1", "2", "3"]}]})";
  auto response = HttpPost("127.0.0.1", server.port(), "/detect", body);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status_code, 200) << response->body;
  auto json = ParseJson(response->body);
  ASSERT_TRUE(json.ok()) << response->body;
  const JsonValue* reports = json->Find("reports");
  ASSERT_NE(reports, nullptr);
  ASSERT_EQ(reports->array.size(), 2u);
  EXPECT_EQ(reports->array[0].Find("name")->str, "dates");
  EXPECT_EQ(reports->array[0].Find("status")->str, "ok");

  // Unknown routes and methods fail without killing the server.
  auto missing = HttpGet("127.0.0.1", server.port(), "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status_code, 404);
  auto bad_json = HttpPost("127.0.0.1", server.port(), "/detect", "{nope");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json->status_code, 400);

  auto metrics = HttpGet("127.0.0.1", server.port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->status_code, 200);
  if (kMetricsEnabled) {
    EXPECT_NE(metrics->body.find("autodetect_serve_net_requests_total"),
              std::string::npos);
    EXPECT_NE(metrics->body.find("autodetect_serve_net_http_requests_total"),
              std::string::npos);
  }

  server.Stop();
}

TEST_F(NetFixture, DisconnectCancelsInflightWork) {
  // One worker serializes the heavy batch so it is guaranteed to still be
  // in flight when the client vanishes.
  EngineOptions opts;
  opts.num_threads = 1;
  DetectionEngine engine(model_, opts);
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  {
    auto doomed = WireClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(doomed->SendRequest(HeavyBatch(1, 16, 30000)).ok());
    // Wait for the first streamed report — proof the batch is mid-flight
    // with 15 columns still to scan — then vanish.
    char byte;
    ASSERT_GT(::recv(doomed->fd(), &byte, 1, MSG_PEEK), 0);
    doomed->Close();
  }

  // Acceptance (b): the drop fires the batch's CancelSource.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server.Stats().disconnect_cancels == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server.Stats().disconnect_cancels, 1u);

  // ...and the server keeps serving everyone else.
  auto survivor = WireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(survivor.ok());
  ASSERT_TRUE(survivor->SendRequest(SmallBatch(2, "ok")).ok());
  auto batch = survivor->ReadBatch(2);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch->done);
  for (const WireReport& report : batch->reports) {
    EXPECT_EQ(report.report.status, ColumnStatus::kOk);
  }

  server.Stop();
}

TEST_F(NetFixture, DeadlineBoundsBatchLatency) {
  EngineOptions opts;
  opts.num_threads = 1;
  DetectionEngine engine(model_, opts);
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  WireRequest request = HeavyBatch(3, 24, 1500);
  request.deadline_ms = 1;
  auto client = WireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendRequest(request).ok());
  auto batch = client->ReadBatch(3);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch->done);
  ASSERT_EQ(batch->reports.size(), request.columns.size());

  size_t expired = 0;
  for (const WireReport& report : batch->reports) {
    ASSERT_TRUE(report.report.status == ColumnStatus::kOk ||
                report.report.status == ColumnStatus::kDeadlineExceeded)
        << ColumnStatusName(report.report.status);
    if (report.report.status == ColumnStatus::kDeadlineExceeded) ++expired;
  }
  // A 1ms deadline against ~seconds of single-threaded work must expire.
  EXPECT_GE(expired, 1u);

  server.Stop();
}

TEST_F(NetFixture, TenantQuotaShedsOnlyTheOffender) {
  MetricsRegistry registry;
  TenantTable tenants(&registry);
  // "flood" may hold at most 4 columns in flight; everyone else unlimited.
  ASSERT_TRUE(tenants.Parse("flood=4:reject").ok());

  EngineOptions opts;
  opts.metrics = &registry;
  opts.tenants = &tenants;
  DetectionEngine engine(model_, opts);

  ServerOptions server_opts;
  server_opts.metrics = &registry;
  Server server(&engine, server_opts);
  ASSERT_TRUE(server.Start().ok());

  // The well-behaved tenant hammers away on its own thread the whole time.
  std::atomic<bool> good_failed{false};
  std::atomic<size_t> good_reports{0};
  std::thread good([&] {
    for (int i = 0; i < 5; ++i) {
      auto client = WireClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) { good_failed = true; return; }
      WireRequest request = SmallBatch(100 + i, "good");
      if (!client->SendRequest(request).ok()) { good_failed = true; return; }
      auto batch = client->ReadBatch(request.request_id);
      if (!batch.ok() || !batch->done) { good_failed = true; return; }
      for (const WireReport& report : batch->reports) {
        if (report.report.status != ColumnStatus::kOk) {
          good_failed = true;  // acceptance (c): bystander never sheds
          return;
        }
        ++good_reports;
      }
    }
  });

  // Occupy flood's whole quota by holding a live admission ticket, exactly
  // as an in-flight batch would. (A real wire batch can't occupy reliably:
  // the engine scans hundreds of columns in single-digit milliseconds, so
  // any racing second request may find the quota already released — and an
  // idle tenant's oversized batch is admitted alone anyway, since the cap
  // bounds backlog, not table width.)
  AdmissionController* flood_ctl = tenants.ControllerFor("flood");
  ASSERT_NE(flood_ctl, nullptr);
  auto occupancy = flood_ctl->Admit(4);
  ASSERT_NE(occupancy, nullptr);

  // While the quota is held, every further flood batch is over quota.
  size_t flood_shed = 0;
  for (int i = 0; i < 5; ++i) {
    auto client = WireClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    WireRequest request = SmallBatch(200 + i, "flood");
    ASSERT_TRUE(client->SendRequest(request).ok());
    auto batch = client->ReadBatch(request.request_id);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_TRUE(batch->done);
    ASSERT_EQ(batch->reports.size(), 5u);
    for (const WireReport& report : batch->reports) {
      EXPECT_EQ(report.report.status, ColumnStatus::kShed)
          << ColumnStatusName(report.report.status);
      if (report.report.status == ColumnStatus::kShed) ++flood_shed;
    }
  }

  good.join();
  EXPECT_FALSE(good_failed.load());
  EXPECT_EQ(good_reports.load(), 5u * 5u);
  EXPECT_EQ(flood_shed, 5u * 5u);

  if (kMetricsEnabled) {
    MetricsSnapshot snap = registry.Snapshot();
    // The shed work is attributed to the offending tenant, by name.
    EXPECT_GE(snap.counters.at("serve.admission.tenant.flood.rejected_total"),
              5u);
    EXPECT_GE(snap.counters.at("serve.admission.tenant.flood.shed_columns_total"),
              25u);
    EXPECT_EQ(snap.counters.count("serve.admission.tenant.good.rejected_total"),
              0u);
    // And the scans that did run are attributed per tenant too.
    EXPECT_GE(snap.counters.at("detect.tenant.good.columns_total"), 25u);
  }

  // Releasing the occupancy reopens the tenant: service resumes at once.
  flood_ctl->Release(occupancy);
  auto revived = WireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(revived.ok());
  WireRequest after = SmallBatch(300, "flood");
  ASSERT_TRUE(revived->SendRequest(after).ok());
  auto resumed = revived->ReadBatch(300);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->done);
  for (const WireReport& report : resumed->reports) {
    EXPECT_EQ(report.report.status, ColumnStatus::kOk)
        << ColumnStatusName(report.report.status);
  }

  server.Stop();
}

TEST_F(NetFixture, GarbageProtocolBytesGetErrorFrameAndClose) {
  DetectionEngine engine(model_, EngineOptions{});
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  auto fd = RawConnect("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  // Valid preamble, then an unknown frame type: the server must answer with
  // a kError frame and close — never hang, never crash.
  std::string bytes(kWireMagic, kWireMagicLen);
  std::string header(kWireHeaderLen, '\0');
  header[4] = 9;  // bogus type
  bytes += header;
  ASSERT_EQ(::write(*fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));

  std::string received;
  char buf[512];
  ssize_t n;
  while ((n = ::read(*fd, buf, sizeof(buf))) > 0) received.append(buf, n);
  ::close(*fd);

  auto peeked = PeekFrame(received);
  ASSERT_TRUE(peeked.ok());
  ASSERT_TRUE(peeked->has_value());
  EXPECT_EQ((*peeked)->type, FrameType::kError);
  EXPECT_GE(server.Stats().protocol_errors, 1u);

  // The next client is unaffected.
  auto client = WireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendRequest(SmallBatch(4, "after")).ok());
  auto batch = client->ReadBatch(4);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->done);

  server.Stop();
}

TEST_F(NetFixture, HostileFrameClaimRejectedBeforeBuffering) {
  DetectionEngine engine(model_, EngineOptions{});
  MemoryBudget budget({/*global_bytes=*/4u << 20, /*per_request_bytes=*/1u << 20});
  ServerOptions server_opts;
  server_opts.memory = &budget;
  Server server(&engine, server_opts);
  ASSERT_TRUE(server.Start().ok());

  auto fd = RawConnect("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());
  // Valid preamble, then ONLY a 5-byte header whose length prefix claims a
  // 32MB payload — far over the 1MB per-request budget. The server must
  // reject from the header alone: the payload is never sent, so a bounded
  // response proves nothing was buffered waiting for it.
  std::string bytes(kWireMagic, kWireMagicLen);
  std::string header(kWireHeaderLen, '\0');
  uint32_t claim = 32u << 20;
  std::memcpy(header.data(), &claim, sizeof(claim));
  header[4] = static_cast<char>(FrameType::kDetectRequest);
  bytes += header;
  ASSERT_EQ(::write(*fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));

  std::string received;
  char buf[512];
  ssize_t n;
  while ((n = ::read(*fd, buf, sizeof(buf))) > 0) received.append(buf, n);
  ::close(*fd);

  auto peeked = PeekFrame(received);
  ASSERT_TRUE(peeked.ok());
  ASSERT_TRUE(peeked->has_value());
  EXPECT_EQ((*peeked)->type, FrameType::kError);
  auto error = DecodeErrorPayload((*peeked)->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_NE(error->message.find("budget"), std::string::npos)
      << error->message;
  // RSS stays bounded: the hostile claim charged nothing, ever.
  EXPECT_EQ(budget.rejected_total(), 1u);
  EXPECT_EQ(budget.inflight_bytes(), 0u);
  EXPECT_EQ(budget.peak_bytes(), 0u);
  server.Stop();
}

TEST_F(NetFixture, GlobalBudgetRefusalIsRetryableOnTheSameConnection) {
  DetectionEngine engine(model_, EngineOptions{});
  // Global budget small enough that one chunky request cannot fit, with no
  // per-request cap — the refusal takes the "retry later" path.
  MemoryBudget budget({/*global_bytes=*/1024, /*per_request_bytes=*/0});
  ServerOptions server_opts;
  server_opts.memory = &budget;
  Server server(&engine, server_opts);
  ASSERT_TRUE(server.Start().ok());

  auto client = WireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  WireRequest fat;
  fat.request_id = 50;
  fat.tenant = "acme";
  fat.columns.push_back({"pad", {std::string(4096, 'x')}});
  ASSERT_TRUE(client->SendRequest(fat).ok());
  auto refused = client->ReadBatch(50);
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  ASSERT_TRUE(refused->errored);
  EXPECT_NE(refused->error.message.find("retry"), std::string::npos)
      << refused->error.message;
  EXPECT_EQ(budget.rejected_total(), 1u);

  // A request-scoped refusal, not a connection killer: the same socket
  // serves a within-budget batch immediately after.
  WireRequest thin;
  thin.request_id = 51;
  thin.tenant = "acme";
  thin.columns.push_back({"qty", {"1", "2", "3"}});
  ASSERT_TRUE(client->SendRequest(thin).ok());
  auto served = client->ReadBatch(51);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served->done);
  EXPECT_FALSE(served->errored);
  ASSERT_EQ(served->reports.size(), 1u);
  EXPECT_EQ(budget.inflight_bytes(), 0u);  // charge released with the batch
  server.Stop();
}

TEST_F(NetFixture, DrainCompletesInflightRefusesNewAndFlipsHealthz) {
  // One worker serializes the heavy batch so the drain reliably lands while
  // most of its columns are still queued.
  EngineOptions opts;
  opts.num_threads = 1;
  DetectionEngine engine(model_, opts);
  HealthLadder health;
  ServerOptions server_opts;
  server_opts.health = &health;
  Server server(&engine, server_opts);
  ASSERT_TRUE(server.Start().ok());

  WireRequest request = HeavyBatch(60, 6, 10000);
  std::vector<DetectReport> local = engine.Detect(ToDetectBatch(request));

  auto client = WireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendRequest(request).ok());
  // Wait for the first streamed report — the batch is mid-flight with five
  // columns to go — then drain via the HTTP control plane. The /drain and
  // /healthz exchange rides ONE keep-alive connection opened before the
  // drain: afterwards the listeners are closed, as the refusal probe shows.
  char byte;
  ASSERT_GT(::recv(client->fd(), &byte, 1, MSG_PEEK), 0);

  auto http = RawConnect("127.0.0.1", server.port());
  ASSERT_TRUE(http.ok());
  const std::string control =
      "POST /drain HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_EQ(::write(*http, control.data(), control.size()),
            static_cast<ssize_t>(control.size()));
  std::string control_response;
  auto control_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (control_response.find("\"state\":\"draining\",\"draining\":true") ==
             std::string::npos &&
         std::chrono::steady_clock::now() < control_deadline) {
    char buf[512];
    ssize_t got = ::read(*http, buf, sizeof(buf));
    if (got <= 0) break;
    control_response.append(buf, got);
  }
  ::close(*http);
  // The pipelined /healthz (a ladder-backed 503) reported draining.
  EXPECT_NE(control_response.find("HTTP/1.1 503"), std::string::npos)
      << control_response;
  EXPECT_NE(control_response.find("\"state\":\"draining\""), std::string::npos)
      << control_response;
  EXPECT_EQ(health.state(), HealthState::kDraining);
  EXPECT_TRUE(server.draining());

  // THE drain guarantee: every admitted in-flight column completes, and the
  // reports are byte-identical to an in-process detect of the same batch.
  auto batch = client->ReadBatch(request.request_id);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch->done);
  EXPECT_FALSE(batch->errored);
  ASSERT_EQ(batch->reports.size(), local.size());
  for (size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(batch->reports[i].report.status, ColumnStatus::kOk);
    EXPECT_EQ(Fingerprint(batch->reports[i].report.column),
              Fingerprint(local[i].column))
        << "column " << i;
  }

  // New work is refused: the drained listeners are closed, and any racing
  // connect that slipped into the backlog gets a typed refusal, not service.
  auto refusal_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool refused = false;
  while (!refused && std::chrono::steady_clock::now() < refusal_deadline) {
    auto probe = WireClient::Connect("127.0.0.1", server.port());
    if (!probe.ok()) {
      refused = true;
      break;
    }
    WireRequest tiny = SmallBatch(61, "late");
    if (!probe->SendRequest(tiny).ok()) {
      refused = true;
      break;
    }
    auto answer = probe->ReadBatch(61);
    if (!answer.ok() || answer->errored) {
      refused = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(refused);

  // In-flight work is done and flushed: the drain completes well inside the
  // timeout, and shutdown is orderly.
  EXPECT_TRUE(server.AwaitDrain(30000));
  server.Stop();
}

/// Writes `bytes` on a raw connection and reads until `want` responses'
/// worth of bodies arrived (each response here ends its JSON body with "}\n")
/// or the peer closes.
std::string RawHttpExchange(int fd, const std::string& bytes, size_t want) {
  if (::write(fd, bytes.data(), bytes.size()) !=
      static_cast<ssize_t>(bytes.size())) {
    return "";
  }
  std::string received;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto complete = [&] {
    size_t seen = 0;
    for (size_t at = received.find("}\n"); at != std::string::npos;
         at = received.find("}\n", at + 2)) {
      ++seen;
    }
    return seen >= want;
  };
  while (!complete() && std::chrono::steady_clock::now() < deadline) {
    char buf[1024];
    ssize_t got = ::read(fd, buf, sizeof(buf));
    if (got <= 0) break;
    received.append(buf, got);
  }
  return received;
}

bool WaitForNoCharge(const MemoryBudget& budget) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (budget.inflight_bytes() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return budget.inflight_bytes() == 0;
}

std::string PostDetect(const std::string& body) {
  return StrFormat(
      "POST /detect HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
      "Content-Length: %zu\r\n\r\n%s",
      body.size(), body.c_str());
}

TEST_F(NetFixture, HttpDetectDuringDrainIsRetryable503) {
  DetectionEngine engine(model_, EngineOptions{});
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // Connect before the drain, and see one response on the connection so the
  // loop has accepted it: the drain closes the listeners, and a connection
  // still in their backlog would be reset.
  auto http = RawConnect("127.0.0.1", server.port());
  ASSERT_TRUE(http.ok());
  std::string health =
      RawHttpExchange(*http, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", 1);
  ASSERT_EQ(health.rfind("HTTP/1.1 200", 0), 0u) << health;
  server.BeginDrain();

  std::string response = RawHttpExchange(
      *http, PostDetect(R"({"columns":[{"name":"q","values":["1","2"]}]})"), 1);
  ::close(*http);
  EXPECT_EQ(response.rfind("HTTP/1.1 503", 0), 0u) << response;
  EXPECT_NE(response.find("Retry-After: 1\r\n"), std::string::npos) << response;
  EXPECT_NE(response.find("draining"), std::string::npos) << response;
  EXPECT_EQ(server.Stats().requests, 0u);

  EXPECT_TRUE(server.AwaitDrain(10000));
  server.Stop();
}

TEST_F(NetFixture, HttpGlobalBudgetRefusalKeepsTheConnection) {
  DetectionEngine engine(model_, EngineOptions{});
  MemoryBudget budget({/*global_bytes=*/1024, /*per_request_bytes=*/0});
  ServerOptions server_opts;
  server_opts.memory = &budget;
  Server server(&engine, server_opts);
  ASSERT_TRUE(server.Start().ok());

  auto http = RawConnect("127.0.0.1", server.port());
  ASSERT_TRUE(http.ok());
  const std::string fat = "{\"columns\":[{\"name\":\"pad\",\"values\":[\"" +
                          std::string(4096, 'x') + "\"]}]}";
  // The refusal and a pipelined /healthz ride one keep-alive connection.
  std::string response = RawHttpExchange(
      *http, PostDetect(fat) + "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", 2);
  ::close(*http);

  EXPECT_EQ(response.rfind("HTTP/1.1 503", 0), 0u) << response;
  EXPECT_NE(response.find("Retry-After: 1\r\n"), std::string::npos) << response;
  EXPECT_NE(response.find("retry later"), std::string::npos) << response;
  size_t second = response.find("HTTP/1.1 ", 1);
  ASSERT_NE(second, std::string::npos) << response;
  EXPECT_EQ(response.compare(second, 12, "HTTP/1.1 200"), 0) << response;
  EXPECT_NE(response.find("\"state\":\"healthy\"", second), std::string::npos)
      << response;
  EXPECT_EQ(budget.rejected_total(), 1u);
  EXPECT_EQ(budget.inflight_bytes(), 0u);
  EXPECT_EQ(server.Stats().requests, 0u);
  server.Stop();
}

TEST_F(NetFixture, HttpMaterializationRefusalIs503) {
  DetectionEngine engine(model_, EngineOptions{});
  // Many one-byte values: the JSON body (~4 bytes a value) fits the
  // per-request budget, but materializing them (one std::string each) does
  // not, so the refusal comes from Extend on the dispatch side.
  MemoryBudget budget({/*global_bytes=*/0, /*per_request_bytes=*/2048});
  ServerOptions server_opts;
  server_opts.memory = &budget;
  Server server(&engine, server_opts);
  ASSERT_TRUE(server.Start().ok());

  std::string body = R"({"columns":[{"name":"q","values":[)";
  for (int i = 0; i < 200; ++i) body += i == 0 ? "\"1\"" : ",\"1\"";
  body += "]}]}";
  ASSERT_LT(body.size(), 2048u);

  auto http = RawConnect("127.0.0.1", server.port());
  ASSERT_TRUE(http.ok());
  std::string response = RawHttpExchange(*http, PostDetect(body), 1);
  ::close(*http);
  EXPECT_EQ(response.rfind("HTTP/1.1 503", 0), 0u) << response;
  EXPECT_NE(response.find("Retry-After: 1\r\n"), std::string::npos) << response;
  EXPECT_NE(response.find("\r\n\r\n{\"error\":\"column materialization exceeds "
                          "the memory budget\"}\n"),
            std::string::npos)
      << response;
  EXPECT_EQ(budget.rejected_total(), 1u);
  // The dispatch thread drops the admitted charge just after it hands over
  // the response.
  EXPECT_TRUE(WaitForNoCharge(budget));
  EXPECT_EQ(server.Stats().requests, 0u);
  server.Stop();
}

TEST_F(NetFixture, TenantShedChargesExactlyOnce) {
  MetricsRegistry registry;
  TenantTable tenants(&registry);
  ASSERT_TRUE(tenants.Parse("flood=4:reject").ok());
  EngineOptions opts;
  opts.metrics = &registry;
  opts.tenants = &tenants;
  DetectionEngine engine(model_, opts);
  ServerOptions server_opts;
  server_opts.metrics = &registry;
  Server server(&engine, server_opts);
  ASSERT_TRUE(server.Start().ok());

  // Pin the tenant's whole quota so the next batch is deterministically
  // refused at admission.
  AdmissionController* flood_ctl = tenants.ControllerFor("flood");
  ASSERT_NE(flood_ctl, nullptr);
  auto occupancy = flood_ctl->Admit(4);
  ASSERT_NE(occupancy, nullptr);

  auto client = WireClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  WireRequest request = SmallBatch(80, "flood");
  ASSERT_TRUE(client->SendRequest(request).ok());
  auto batch = client->ReadBatch(80);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->reports.size(), 5u);
  for (const WireReport& report : batch->reports) {
    EXPECT_EQ(report.report.status, ColumnStatus::kShed);
  }

  if (kMetricsEnabled) {
    MetricsSnapshot snap = registry.Snapshot();
    // Exact equality, not >=: 5 kShed reports, 5 shed-column charges, one
    // rejected batch. Any relabel-plus-recount bug breaks the equality.
    EXPECT_EQ(snap.counters.at("serve.admission.tenant.flood.shed_columns_total"),
              5u);
    EXPECT_EQ(snap.counters.at("serve.admission.tenant.flood.rejected_total"),
              1u);
  }
  flood_ctl->Release(occupancy);
  server.Stop();
}

}  // namespace
}  // namespace autodetect
