#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "detect/api.h"
#include "net/http.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/lifecycle.h"

/// \file server.h
/// The asynchronous network front-end: `autodetect serve`. Thread-per-core
/// epoll event loops accept connections on one port shared via SO_REUSEPORT
/// and sniff the first bytes to pick the protocol — the ADWIRE1 binary
/// protocol (net/wire.h) or an HTTP/1.1 JSON fallback (net/http.h) for
/// curl/browser/Prometheus clients. Detection work never runs on an event
/// loop: complete requests are handed to a dispatch pool that drives the
/// DetectionExecutor's *streaming* API, so every column's report frame hits
/// the wire the moment that column finishes scanning — a client scanning a
/// wide table sees findings while the tail is still queued. (The HTTP
/// surface buffers one JSON response per request; streaming delivery is the
/// binary protocol's contract.)
///
/// Once decoded, requests of both protocols share one lifecycle (drain
/// check, budget admit, cancel registration and dispatch on the loop; the
/// watchdog scope, materialization charge and detect on a dispatch thread);
/// only the encoding of refusals and responses differs (Server::Reply).
///
/// Endpoints (HTTP): POST /detect (JSON body, see net/json.h),
/// GET /metrics (Prometheus text), GET /healthz.
///
/// Isolation and resilience:
///  * Per-tenant admission happens inside the executor: a DetectionEngine
///    built with EngineOptions::tenants resolves each request's tenant
///    (carried on RequestContext::tenant) to its own AdmissionController,
///    so an over-quota tenant's batches come back kShed — counted under
///    serve.admission.tenant.<name>.* — while other tenants' capacity is
///    untouched. The server itself holds no admission state.
///  * Disconnect-as-cancel: every in-flight request holds a CancelSource;
///    when the client drops, the server fires it and the engine abandons
///    the batch's unscanned columns at the next poll. A dead client stops
///    costing CPU within one column's latency.
///  * Per-request deadlines: a wire/JSON `deadline_ms` becomes a
///    CancelSource::WithDeadline on the same token, so deadline expiry and
///    disconnect share one cooperative mechanism.
///  * Slow-loris defense: a sweeper closes connections that sit on a
///    partial request (or the protocol preamble) past
///    partial_timeout_ms — trickling one byte per second never parks a
///    connection slot. Idle keep-alive connections get the separate,
///    longer idle_timeout_ms.
///  * Write backpressure: a client that stops reading while reports
///    stream at it is disconnected once its output buffer passes
///    max_outbuf_bytes.
///  * Memory budgets: with a MemoryBudget wired in, a frame whose length
///    prefix alone exceeds the per-request budget is refused from the
///    5-byte header — the payload is never buffered — and admitted
///    requests charge decode + materialization bytes, so overload is a
///    typed kResourceExhausted error (wire kError / HTTP 503 +
///    Retry-After), never an OOM.
///  * Lifecycle: BeginDrain() (SIGTERM, POST /drain) closes the
///    listeners, refuses new requests with a typed error, flips /healthz
///    to draining and lets in-flight batches finish; AwaitDrain() waits
///    for them (bounded by drain_timeout_ms), after which Stop() cancels
///    stragglers through the normal CancelSource path. A Watchdog, when
///    attached, sees every dispatch task and acceptor-loop heartbeat.
///
/// Metrics (serve.net.*): connections_total, active_connections,
/// bytes_read_total, bytes_written_total, frames_in_total,
/// frames_out_total, http_requests_total, requests_total,
/// request_latency_us, protocol_errors_total, disconnect_cancels_total,
/// timeout_closes_total, overflow_closes_total.

namespace autodetect {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;        ///< 0 = ephemeral; read the chosen one off port()
  size_t num_acceptors = 2; ///< event-loop threads (each its own listener)
  size_t dispatch_threads = 0;  ///< blocking-detect pool; 0 = hw concurrency
  WireLimits wire_limits;
  HttpLimits http_limits;
  /// Longest a connection may sit on an incomplete request (or an
  /// unfinished protocol preamble) before it is closed.
  uint64_t partial_timeout_ms = 5000;
  /// Longest an idle keep-alive connection (no buffered bytes, no in-flight
  /// requests) is kept open.
  uint64_t idle_timeout_ms = 120000;
  uint64_t sweep_interval_ms = 100;  ///< sweeper granularity
  /// Disconnect clients whose unread response backlog passes this.
  size_t max_outbuf_bytes = 64u << 20;
  /// Registry for serve.net.* metrics and GET /metrics; null = process
  /// default.
  MetricsRegistry* metrics = nullptr;
  /// Byte budget charged at wire decode and column materialization; not
  /// owned, may be null (no budget). Must outlive the server.
  MemoryBudget* memory = nullptr;
  /// Health ladder surfaced via /healthz and driven by drain; not owned,
  /// may be null (/healthz then degrades to plain "ok" / 503 draining).
  HealthLadder* health = nullptr;
  /// Watchdog fed by dispatch TaskScopes and acceptor-loop heartbeats; not
  /// owned, may be null. Register/Start happens inside Server::Start.
  Watchdog* watchdog = nullptr;
  /// Default bound for AwaitDrain(0): how long a drain waits for in-flight
  /// batches before the caller falls through to Stop()'s cancellation.
  uint64_t drain_timeout_ms = 10000;
};

/// Point-in-time server counters (mirrors the serve.net.* metrics so tests
/// and operators can assert without a registry scrape).
struct ServerStats {
  uint64_t connections = 0;
  uint64_t requests = 0;
  uint64_t http_requests = 0;
  uint64_t protocol_errors = 0;
  uint64_t disconnect_cancels = 0;
  uint64_t timeout_closes = 0;
};

class Server {
 public:
  /// \param executor not owned; must outlive the server. Any
  /// DetectionExecutor works; production wiring passes a DetectionEngine.
  Server(DetectionExecutor* executor, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners and starts the event loops, dispatch pool and
  /// sweeper. Returns the error (address in use, bad host) without any
  /// thread started on failure.
  Status Start();

  /// Stops accepting, cancels in-flight work, closes every connection and
  /// joins all threads. Idempotent; also run by the destructor.
  void Stop();

  /// Enters graceful drain: every loop closes its listener, new requests on
  /// existing connections get a typed "draining" error, /healthz flips to
  /// 503 draining, and in-flight batches keep running. Idempotent,
  /// irreversible, safe from any thread (including signal-driven CLI code
  /// calling it off the main thread).
  void BeginDrain();

  /// Blocks until every admitted request has completed AND its response
  /// bytes have left the output buffers, or `timeout_ms` elapsed (0 = the
  /// options' drain_timeout_ms). Returns true when the server drained
  /// clean; false on timeout — the caller then invokes Stop(), which
  /// cancels the stragglers through the existing CancelSource path.
  bool AwaitDrain(uint64_t timeout_ms = 0);

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// The bound port (after Start); useful with port 0.
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  ServerStats Stats() const;

 private:
  struct Conn;
  struct Loop;

  // --- event-loop side (single-threaded per Loop; the timeout sweep runs
  // inside each loop on its own connections, so no cross-thread state) ---
  void RunLoop(Loop& loop);
  void AcceptNew(Loop& loop);
  void HandleReadable(Loop& loop, const std::shared_ptr<Conn>& conn);
  void ProcessInbuf(Loop& loop, const std::shared_ptr<Conn>& conn);
  void ProcessWire(Loop& loop, const std::shared_ptr<Conn>& conn);
  void ProcessHttp(Loop& loop, const std::shared_ptr<Conn>& conn);
  void SendInline(Loop& loop, const std::shared_ptr<Conn>& conn,
                  std::string&& bytes, bool close_after);
  void FlushConn(Loop& loop, const std::shared_ptr<Conn>& conn);
  void CloseConn(Loop& loop, const std::shared_ptr<Conn>& conn,
                 bool cancel_inflight);

  // --- the detect request lifecycle, shared by ADWIRE1 and HTTP /detect ---

  /// The per-protocol part of the lifecycle: how a refusal and the final
  /// response are encoded. Wire refusals are kError frames tagged with
  /// `request_id`; HTTP refusals are 503 + Retry-After, and the connection
  /// closes after the response unless `keep_alive`.
  struct Reply {
    enum class Protocol : uint8_t { kWire, kHttp } protocol;
    uint64_t request_id = 0;
    bool keep_alive = true;
    std::string Refusal(std::string_view message) const;
    bool close_after() const { return protocol == Protocol::kHttp && !keep_alive; }
  };
  /// Loop side: the drain check, then the budget charge of `bytes`; false,
  /// with the refusal already sent, when either refuses.
  bool AdmitRequest(Loop& loop, const std::shared_ptr<Conn>& conn,
                    const Reply& reply, size_t bytes,
                    MemoryBudget::Charge* charge);
  /// Loop side: registers the request's CancelSource and submits it.
  void SubmitRequest(const std::shared_ptr<Conn>& conn, const Reply& reply,
                     WireRequest&& request, MemoryBudget::Charge&& charge);
  /// Dispatch side: watchdog scope, materialization charge, RunDetect, then
  /// the terminal response (batch-done frame / HTTP response).
  void ServeRequest(const std::shared_ptr<Conn>& conn, const Reply& reply,
                    uint64_t local_id, const WireRequest& request,
                    const CancelSource& source, MemoryBudget::Charge& charge);
  /// Runs one decoded request through the executor, streaming every
  /// column's report (including admission-shed ones) into `sink`.
  void RunDetect(const WireRequest& request, const CancelSource& source,
                 ReportSink& sink);

  /// Appends bytes to the connection's output buffer (closing it once they
  /// are flushed if `close_after`) and wakes its loop. Safe from any thread;
  /// a no-op once the connection closed.
  void SendToConn(const std::shared_ptr<Conn>& conn, std::string&& bytes,
                  bool close_after = false);
  void WakeLoop(Loop& loop);

  class WireSink;

  DetectionExecutor* executor_;
  ServerOptions options_;
  MetricsRegistry* registry_;

  struct Metrics {
    Counter* connections = nullptr;
    Gauge* active_connections = nullptr;
    Counter* bytes_read = nullptr;
    Counter* bytes_written = nullptr;
    Counter* frames_in = nullptr;
    Counter* frames_out = nullptr;
    Counter* http_requests = nullptr;
    Counter* requests = nullptr;
    Histogram* request_latency_us = nullptr;
    Counter* protocol_errors = nullptr;
    Counter* disconnect_cancels = nullptr;
    Counter* timeout_closes = nullptr;
    Counter* overflow_closes = nullptr;
  };
  Metrics metrics_;

  std::vector<std::unique_ptr<Loop>> loops_;
  std::unique_ptr<ThreadPool> dispatch_;

  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  bool started_ = false;

  /// Requests admitted to dispatch and not yet fully answered; paired with
  /// outbuf_bytes_ (unsent response bytes) these are the two quantities
  /// AwaitDrain waits to see hit zero.
  std::atomic<int64_t> inflight_requests_{0};
  std::atomic<int64_t> outbuf_bytes_{0};

  std::atomic<uint64_t> stat_connections_{0};
  std::atomic<uint64_t> stat_requests_{0};
  std::atomic<uint64_t> stat_http_requests_{0};
  std::atomic<uint64_t> stat_protocol_errors_{0};
  std::atomic<uint64_t> stat_disconnect_cancels_{0};
  std::atomic<uint64_t> stat_timeout_closes_{0};
};

}  // namespace autodetect
