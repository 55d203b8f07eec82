#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "net/json.h"

namespace autodetect {

namespace {

uint64_t ElapsedUs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

bool CaseInsensitiveContains(std::string_view haystack, std::string_view lower_needle) {
  if (lower_needle.empty()) return true;
  for (size_t i = 0; i + lower_needle.size() <= haystack.size(); ++i) {
    size_t j = 0;
    while (j < lower_needle.size() &&
           std::tolower(static_cast<unsigned char>(haystack[i + j])) ==
               lower_needle[j]) {
      ++j;
    }
    if (j == lower_needle.size()) return true;
  }
  return false;
}

/// The `{"error":...}` body every JSON error response carries.
std::string JsonError(std::string_view message) {
  std::string body = "{\"error\":";
  AppendJsonString(&body, message);
  body.append("}\n");
  return body;
}

}  // namespace

/// One accepted connection. The event loop owns reads, protocol parsing and
/// the socket itself; dispatch threads only ever append to `outbuf` (under
/// `mu`) and wake the loop to flush — single-writer discipline on the fd.
struct Server::Conn {
  int fd = -1;
  Loop* loop = nullptr;
  enum class Mode { kSniff, kWire, kHttp };

  // Loop-thread-only state.
  Mode mode = Mode::kSniff;
  std::string inbuf;
  std::chrono::steady_clock::time_point last_rx;
  bool sent_continue = false;  ///< HTTP 100-continue already answered

  // Cross-thread state, under `mu`.
  std::mutex mu;
  std::string outbuf;
  bool close_after_flush = false;
  bool kill = false;    ///< loop must close without waiting for a flush
  bool closed = false;  ///< fd closed; all sends drop
  uint64_t next_local_id = 1;
  std::unordered_map<uint64_t, CancelSource> inflight;

  std::atomic<size_t> inflight_count{0};  ///< lock-free view for the sweeper
};

/// One event-loop thread: its own SO_REUSEPORT listener, epoll set and
/// eventfd; the kernel spreads incoming connections across the listeners.
struct Server::Loop {
  int epoll_fd = -1;
  int listen_fd = -1;
  int wake_fd = -1;
  size_t heartbeat_id = 0;  ///< watchdog slot, valid when a watchdog is set
  std::thread thread;
  std::unordered_map<int, std::shared_ptr<Conn>> conns;  // loop thread only
  std::mutex pending_mu;
  std::vector<std::shared_ptr<Conn>> pending;  ///< conns with fresh outbuf/kill
};

/// Streams ADWIRE1 report frames as the executor delivers columns.
/// Thread-safe (called concurrently from engine workers).
class Server::WireSink : public ReportSink {
 public:
  WireSink(Server* server, std::shared_ptr<Conn> conn, uint64_t request_id)
      : server_(server), conn_(std::move(conn)), request_id_(request_id) {}

  void OnReport(size_t index, DetectReport&& report) override {
    WireReport wire;
    wire.request_id = request_id_;
    wire.column_index = index;
    wire.report = std::move(report);
    std::string frame = EncodeReportFrame(wire);
    server_->metrics_.frames_out->Add(1);
    server_->SendToConn(conn_, std::move(frame));
  }

 private:
  Server* server_;
  std::shared_ptr<Conn> conn_;
  uint64_t request_id_;
};

namespace {

/// Collects reports into index order for the buffered HTTP response.
/// Disjoint-slot writes; the executor's completion barrier publishes them.
class CollectSink : public ReportSink {
 public:
  explicit CollectSink(size_t columns) : reports_(columns) {}
  void OnReport(size_t index, DetectReport&& report) override {
    if (index < reports_.size()) reports_[index] = std::move(report);
  }
  std::vector<DetectReport>& reports() { return reports_; }

 private:
  std::vector<DetectReport> reports_;
};

}  // namespace

Server::Server(DetectionExecutor* executor, ServerOptions options)
    : executor_(executor),
      options_(std::move(options)),
      registry_(OrDefaultRegistry(options_.metrics)) {
  if (options_.num_acceptors == 0) options_.num_acceptors = 1;
  metrics_.connections = registry_->GetCounter("serve.net.connections_total");
  metrics_.active_connections = registry_->GetGauge("serve.net.active_connections");
  metrics_.bytes_read = registry_->GetCounter("serve.net.bytes_read_total");
  metrics_.bytes_written = registry_->GetCounter("serve.net.bytes_written_total");
  metrics_.frames_in = registry_->GetCounter("serve.net.frames_in_total");
  metrics_.frames_out = registry_->GetCounter("serve.net.frames_out_total");
  metrics_.http_requests = registry_->GetCounter("serve.net.http_requests_total");
  metrics_.requests = registry_->GetCounter("serve.net.requests_total");
  metrics_.request_latency_us =
      registry_->GetHistogram("serve.net.request_latency_us");
  metrics_.protocol_errors =
      registry_->GetCounter("serve.net.protocol_errors_total");
  metrics_.disconnect_cancels =
      registry_->GetCounter("serve.net.disconnect_cancels_total");
  metrics_.timeout_closes =
      registry_->GetCounter("serve.net.timeout_closes_total");
  metrics_.overflow_closes =
      registry_->GetCounter("serve.net.overflow_closes_total");
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::Invalid("server already started");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  std::string host = options_.host == "localhost" ? "127.0.0.1" : options_.host;
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::Invalid("unparseable IPv4 listen address '" + host + "'");
  }

  uint16_t bound_port = options_.port;
  auto cleanup = [this] {
    for (auto& loop : loops_) {
      if (loop->listen_fd >= 0) ::close(loop->listen_fd);
      if (loop->wake_fd >= 0) ::close(loop->wake_fd);
      if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
    }
    loops_.clear();
  };

  for (size_t i = 0; i < options_.num_acceptors; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (loop->listen_fd < 0) {
      cleanup();
      return Status::IOError(StrFormat("socket: %s", std::strerror(errno)));
    }
    int one = 1;
    ::setsockopt(loop->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    ::setsockopt(loop->listen_fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
    addr.sin_port = htons(bound_port);
    if (::bind(loop->listen_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      Status err = Status::IOError(StrFormat("bind %s:%u: %s", host.c_str(),
                                             unsigned{bound_port},
                                             std::strerror(errno)));
      ::close(loop->listen_fd);
      loop->listen_fd = -1;
      loops_.push_back(std::move(loop));
      cleanup();
      return err;
    }
    if (bound_port == 0) {
      // First listener picked the ephemeral port; the rest share it via
      // SO_REUSEPORT so the kernel load-balances accepts across loops.
      sockaddr_in actual{};
      socklen_t len = sizeof(actual);
      ::getsockname(loop->listen_fd, reinterpret_cast<sockaddr*>(&actual), &len);
      bound_port = ntohs(actual.sin_port);
    }
    if (::listen(loop->listen_fd, 256) != 0) {
      Status err = Status::IOError(StrFormat("listen: %s", std::strerror(errno)));
      loops_.push_back(std::move(loop));
      cleanup();
      return err;
    }
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->wake_fd < 0 || loop->epoll_fd < 0) {
      loops_.push_back(std::move(loop));
      cleanup();
      return Status::IOError("eventfd/epoll_create1 failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->listen_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->listen_fd, &ev);
    ev.data.fd = loop->wake_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    loops_.push_back(std::move(loop));
  }

  port_ = bound_port;
  stopping_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  if (options_.watchdog != nullptr) {
    // Register every loop's heartbeat slot before any loop thread runs, so
    // the watchdog's slot vector is stable while Beat races CheckNow.
    for (size_t i = 0; i < loops_.size(); ++i) {
      loops_[i]->heartbeat_id =
          options_.watchdog->RegisterHeartbeat(StrFormat("acceptor-%zu", i));
    }
  }
  dispatch_ = std::make_unique<ThreadPool>(options_.dispatch_threads);
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, raw = loop.get()] { RunLoop(*raw); });
  }
  started_ = true;
  running_.store(true, std::memory_order_release);
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& loop : loops_) WakeLoop(*loop);
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Loop exit closed every connection, which cancelled all in-flight
  // batches — the dispatch pool drains quickly, its sends dropping on the
  // closed connections. Only then is it safe to tear down the fds the
  // dispatch threads could still wake.
  dispatch_.reset();
  for (auto& loop : loops_) {
    if (loop->listen_fd >= 0) ::close(loop->listen_fd);
    if (loop->wake_fd >= 0) ::close(loop->wake_fd);
    if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
    loop->listen_fd = loop->wake_fd = loop->epoll_fd = -1;
  }
  loops_.clear();
  started_ = false;
  running_.store(false, std::memory_order_release);
}

void Server::BeginDrain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    return;  // already draining
  }
  if (options_.health != nullptr) options_.health->SetDraining();
  // Each loop notices the flag on its next wakeup and closes its own
  // listener (listen_fd is loop-thread state; poking it cross-thread would
  // race the event dispatch).
  for (auto& loop : loops_) WakeLoop(*loop);
}

bool Server::AwaitDrain(uint64_t timeout_ms) {
  if (timeout_ms == 0) timeout_ms = options_.drain_timeout_ms;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (inflight_requests_.load(std::memory_order_acquire) == 0 &&
        outbuf_bytes_.load(std::memory_order_acquire) == 0) {
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void Server::WakeLoop(Loop& loop) {
  if (loop.wake_fd < 0) return;
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(loop.wake_fd, &one, sizeof(one));
}

void Server::SendToConn(const std::shared_ptr<Conn>& conn, std::string&& bytes,
                        bool close_after) {
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed || conn->kill) return;
    conn->outbuf.append(bytes);
    outbuf_bytes_.fetch_add(static_cast<int64_t>(bytes.size()),
                            std::memory_order_acq_rel);
    if (close_after) conn->close_after_flush = true;
    if (conn->outbuf.size() > options_.max_outbuf_bytes) {
      // The client stopped reading while reports stream at it; holding the
      // backlog for a dead reader starves everyone else's memory.
      conn->kill = true;
      overflow = true;
    }
  }
  if (overflow) metrics_.overflow_closes->Add(1);
  Loop& loop = *conn->loop;
  {
    std::lock_guard<std::mutex> lock(loop.pending_mu);
    loop.pending.push_back(conn);
  }
  WakeLoop(loop);
}

void Server::RunLoop(Loop& loop) {
  std::vector<epoll_event> events(128);
  auto last_sweep = std::chrono::steady_clock::now();
  const auto sweep_every =
      std::chrono::milliseconds(std::max<uint64_t>(options_.sweep_interval_ms, 1));

  while (!stopping_.load(std::memory_order_acquire)) {
    if (options_.watchdog != nullptr) {
      options_.watchdog->Beat(loop.heartbeat_id);
    }
    if (draining_.load(std::memory_order_acquire) && loop.listen_fd >= 0) {
      // Drain: this loop stops accepting. Closing our SO_REUSEPORT listener
      // makes fresh connects fail fast at the TCP layer; requests already
      // buffered on live connections keep flowing to completion.
      ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, loop.listen_fd, nullptr);
      ::close(loop.listen_fd);
      loop.listen_fd = -1;
    }
    int n = ::epoll_wait(loop.epoll_fd, events.data(),
                         static_cast<int>(events.size()),
                         static_cast<int>(sweep_every.count()));
    if (n < 0 && errno != EINTR) break;

    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == loop.wake_fd) {
        uint64_t drained;
        while (::read(loop.wake_fd, &drained, sizeof(drained)) > 0) {}
        continue;
      }
      if (fd == loop.listen_fd) {
        AcceptNew(loop);
        continue;
      }
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      uint32_t mask = events[i].events;
      if (mask & (EPOLLHUP | EPOLLERR)) {
        CloseConn(loop, conn, /*cancel_inflight=*/true);
        continue;
      }
      if (mask & EPOLLIN) HandleReadable(loop, conn);
      if ((mask & EPOLLOUT) && loop.conns.count(fd)) FlushConn(loop, conn);
    }

    // Dispatch threads queued fresh output (or kill orders) and woke us.
    std::vector<std::shared_ptr<Conn>> pending;
    {
      std::lock_guard<std::mutex> lock(loop.pending_mu);
      pending.swap(loop.pending);
    }
    for (auto& conn : pending) {
      bool kill;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->closed) continue;
        kill = conn->kill;
      }
      if (kill) {
        CloseConn(loop, conn, /*cancel_inflight=*/true);
      } else {
        FlushConn(loop, conn);
      }
    }

    // Timeout sweep: slow-loris partial requests get the short timeout,
    // idle keep-alive connections the long one.
    auto now = std::chrono::steady_clock::now();
    if (now - last_sweep >= sweep_every) {
      last_sweep = now;
      std::vector<std::shared_ptr<Conn>> victims;
      for (auto& [fd, conn] : loop.conns) {
        auto idle_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           now - conn->last_rx)
                           .count();
        // A connection that has bytes of an incomplete request buffered —
        // or never finished the protocol preamble — is "partial": a
        // legitimate client finishes a request quickly, a slow-loris
        // trickles forever.
        bool partial = !conn->inbuf.empty() || conn->mode == Conn::Mode::kSniff;
        bool busy = conn->inflight_count.load(std::memory_order_relaxed) > 0;
        if (partial && !busy &&
            idle_ms > static_cast<int64_t>(options_.partial_timeout_ms)) {
          victims.push_back(conn);
        } else if (!partial && !busy &&
                   idle_ms > static_cast<int64_t>(options_.idle_timeout_ms)) {
          victims.push_back(conn);
        }
      }
      for (auto& conn : victims) {
        metrics_.timeout_closes->Add(1);
        stat_timeout_closes_.fetch_add(1, std::memory_order_relaxed);
        CloseConn(loop, conn, /*cancel_inflight=*/true);
      }
    }
  }

  // Shutdown: close every connection, cancelling what is in flight so the
  // dispatch pool can drain fast.
  std::vector<std::shared_ptr<Conn>> all;
  all.reserve(loop.conns.size());
  for (auto& [fd, conn] : loop.conns) all.push_back(conn);
  for (auto& conn : all) CloseConn(loop, conn, /*cancel_inflight=*/true);
}

void Server::AcceptNew(Loop& loop) {
  while (true) {
    if (AD_FAILPOINT("net.accept.fail")) return;  // simulated accept() error
    int fd = ::accept4(loop.listen_fd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error; epoll will re-arm
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->loop = &loop;
    conn->last_rx = std::chrono::steady_clock::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    loop.conns.emplace(fd, std::move(conn));
    metrics_.connections->Add(1);
    metrics_.active_connections->Add(1);
    stat_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::HandleReadable(Loop& loop, const std::shared_ptr<Conn>& conn) {
  char buf[65536];
  while (true) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (AD_FAILPOINT("net.read.oom")) {
        // Simulated allocation failure growing the receive buffer: the
        // connection fails closed instead of the process dying.
        CloseConn(loop, conn, /*cancel_inflight=*/true);
        return;
      }
      conn->inbuf.append(buf, static_cast<size_t>(n));
      conn->last_rx = std::chrono::steady_clock::now();
      metrics_.bytes_read->Add(static_cast<uint64_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) {
      // Client hung up: whatever it had in flight is work nobody will read.
      CloseConn(loop, conn, /*cancel_inflight=*/true);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(loop, conn, /*cancel_inflight=*/true);
    return;
  }
  ProcessInbuf(loop, conn);
}

void Server::ProcessInbuf(Loop& loop, const std::shared_ptr<Conn>& conn) {
  if (conn->mode == Conn::Mode::kSniff) {
    if (LooksLikeWirePreamble(conn->inbuf)) {
      if (conn->inbuf.size() < kWireMagicLen) return;  // partial preamble
      conn->inbuf.erase(0, kWireMagicLen);
      conn->mode = Conn::Mode::kWire;
    } else if (!conn->inbuf.empty()) {
      conn->mode = Conn::Mode::kHttp;
    } else {
      return;
    }
  }
  if (conn->mode == Conn::Mode::kWire) return ProcessWire(loop, conn);
  ProcessHttp(loop, conn);
}

/// Appends bytes from the loop thread and flushes immediately (same-thread
/// fast path for inline responses and error frames).
void Server::SendInline(Loop& loop, const std::shared_ptr<Conn>& conn,
                        std::string&& bytes, bool close_after) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->outbuf.append(bytes);
    outbuf_bytes_.fetch_add(static_cast<int64_t>(bytes.size()),
                            std::memory_order_acq_rel);
    if (close_after) conn->close_after_flush = true;
  }
  FlushConn(loop, conn);
}

void Server::ProcessWire(Loop& loop, const std::shared_ptr<Conn>& conn) {
  // A framing or decode failure is unrecoverable: answer with one error
  // frame and close — never crash, never guess.
  auto fail = [&](std::string message) {
    metrics_.protocol_errors->Add(1);
    stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendInline(loop, conn, EncodeErrorFrame(WireError{0, std::move(message)}),
               /*close_after=*/true);
  };
  while (true) {
    // Budget check straight off the length prefix: a hostile frame claiming
    // more than the per-request budget is refused from the 5-byte header
    // alone — its payload is never buffered, so resident memory stays
    // bounded no matter what the prefix claims.
    if (options_.memory != nullptr && conn->inbuf.size() >= kWireHeaderLen) {
      uint32_t claim = static_cast<uint8_t>(conn->inbuf[0]) |
                       (static_cast<uint32_t>(static_cast<uint8_t>(conn->inbuf[1])) << 8) |
                       (static_cast<uint32_t>(static_cast<uint8_t>(conn->inbuf[2])) << 16) |
                       (static_cast<uint32_t>(static_cast<uint8_t>(conn->inbuf[3])) << 24);
      if (options_.memory->WouldExceedPerRequest(claim)) {
        // Run the claim through Admit so the rejection is counted and the
        // error message is the budget's own typed kResourceExhausted text.
        Status refused = options_.memory->Admit(claim).status();
        WireError error{0, std::string(refused.message())};
        SendInline(loop, conn, EncodeErrorFrame(error), /*close_after=*/true);
        return;
      }
    }
    auto peeked = PeekFrame(conn->inbuf, options_.wire_limits);
    if (!peeked.ok()) {  // oversized prefix / unknown type
      fail(std::string(peeked.status().message()));
      return;
    }
    if (!peeked.ValueOrDie().has_value()) return;  // partial frame
    FrameView frame = *peeked.ValueOrDie();
    metrics_.frames_in->Add(1);

    if (frame.type != FrameType::kDetectRequest) {
      const unsigned type = static_cast<uint8_t>(frame.type);
      conn->inbuf.erase(0, frame.frame_len);
      fail(StrFormat("unexpected client frame type %u", type));
      return;
    }

    const size_t payload_bytes = frame.payload.size();
    auto decoded = DecodeRequestPayload(frame.payload, options_.wire_limits);
    conn->inbuf.erase(0, frame.frame_len);
    if (!decoded.ok()) {
      fail(std::string(decoded.status().message()));
      return;
    }
    WireRequest request = std::move(decoded).ValueOrDie();
    // The frame was intact, so a refusal leaves the connection usable for
    // the client's earlier in-flight responses and for a retry.
    const Reply reply{Reply::Protocol::kWire, request.request_id};
    MemoryBudget::Charge charge;
    if (AdmitRequest(loop, conn, reply, payload_bytes, &charge)) {
      SubmitRequest(conn, reply, std::move(request), std::move(charge));
    }
  }
}

void Server::ProcessHttp(Loop& loop, const std::shared_ptr<Conn>& conn) {
  while (true) {
    // curl waits on "Expect: 100-continue" before sending larger bodies;
    // acknowledge as soon as the header block is complete.
    if (!conn->sent_continue) {
      size_t head_end = conn->inbuf.find("\r\n\r\n");
      if (head_end != std::string::npos &&
          CaseInsensitiveContains(
              std::string_view(conn->inbuf).substr(0, head_end),
              "100-continue")) {
        conn->sent_continue = true;
        SendInline(loop, conn, "HTTP/1.1 100 Continue\r\n\r\n",
                   /*close_after=*/false);
      }
    }

    auto parsed = ParseHttpRequest(conn->inbuf, options_.http_limits);
    if (!parsed.ok()) {
      metrics_.protocol_errors->Add(1);
      stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      int code = parsed.status().IsCapacityExceeded() ? 413 : 400;
      SendInline(loop, conn,
                 BuildHttpResponse(code, "application/json",
                                   JsonError(parsed.status().message()),
                                   /*keep_alive=*/false),
                 /*close_after=*/true);
      return;
    }
    if (!parsed.ValueOrDie().has_value()) return;  // incomplete
    HttpRequest request = std::move(*parsed.ValueOrDie());
    conn->inbuf.erase(0, request.consumed);
    conn->sent_continue = false;
    metrics_.http_requests->Add(1);
    stat_http_requests_.fetch_add(1, std::memory_order_relaxed);
    auto respond = [&](int code, std::string_view content_type,
                       std::string_view body) {
      SendInline(loop, conn,
                 BuildHttpResponse(code, content_type, body, request.keep_alive),
                 /*close_after=*/!request.keep_alive);
    };

    if (request.method == "GET" && request.target == "/metrics") {
      respond(200, "text/plain; version=0.0.4", registry_->ToPrometheus());
    } else if (request.method == "GET" && request.target == "/healthz") {
      // With a ladder: JSON state, 200 while serving (healthy/degraded),
      // 503 otherwise. Without one the endpoint still tells load balancers
      // about drain.
      if (options_.health != nullptr) {
        respond(options_.health->Serving() ? 200 : 503, "application/json",
                options_.health->ToJson() + "\n");
      } else if (draining_.load(std::memory_order_acquire)) {
        respond(503, "application/json",
                "{\"state\":\"draining\",\"draining\":true,\"conditions\":[]}\n");
      } else {
        respond(200, "application/json",
                "{\"state\":\"healthy\",\"draining\":false,\"conditions\":[]}\n");
      }
    } else if (request.method == "POST" && request.target == "/drain") {
      BeginDrain();
      respond(200, "application/json", "{\"state\":\"draining\"}\n");
    } else if (request.target == "/detect" && request.method != "POST") {
      respond(405, "application/json", JsonError("POST required"));
    } else if (request.target == "/detect") {
      // The body is charged before it is parsed; a parse failure releases
      // the charge with the 400.
      const Reply reply{Reply::Protocol::kHttp, 0, request.keep_alive};
      MemoryBudget::Charge charge;
      if (!AdmitRequest(loop, conn, reply, request.body.size(), &charge)) {
        continue;
      }
      auto detect = ParseJsonDetectRequest(request.body, options_.wire_limits);
      if (!detect.ok()) {
        metrics_.protocol_errors->Add(1);
        stat_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        respond(400, "application/json", JsonError(detect.status().message()));
        continue;
      }
      SubmitRequest(conn, reply, std::move(detect).ValueOrDie(),
                    std::move(charge));
    } else {
      respond(404, "application/json", JsonError("unknown endpoint"));
    }
  }
}

std::string Server::Reply::Refusal(std::string_view message) const {
  if (protocol == Protocol::kWire) {
    return EncodeErrorFrame(WireError{request_id, std::string(message)});
  }
  return BuildHttpResponse(503, "application/json", JsonError(message),
                           keep_alive, {{"Retry-After", "1"}});
}

bool Server::AdmitRequest(Loop& loop, const std::shared_ptr<Conn>& conn,
                          const Reply& reply, size_t bytes,
                          MemoryBudget::Charge* charge) {
  if (draining_.load(std::memory_order_acquire)) {
    SendInline(loop, conn,
               reply.Refusal("server draining; not accepting new requests"),
               reply.close_after());
    return false;
  }
  // Decode charge: the request's bytes are alive from here until the batch
  // completes. A global-budget refusal is request-scoped and retryable.
  if (options_.memory != nullptr) {
    auto admitted = options_.memory->Admit(bytes);
    if (!admitted.ok()) {
      SendInline(loop, conn, reply.Refusal(admitted.status().message()),
                 reply.close_after());
      return false;
    }
    *charge = std::move(admitted).ValueOrDie();
  }
  return true;
}

void Server::SubmitRequest(const std::shared_ptr<Conn>& conn,
                           const Reply& reply, WireRequest&& request,
                           MemoryBudget::Charge&& charge) {
  // Register the request's cancellation scope before dispatch so a
  // disconnect observed by this loop reaches the batch immediately.
  CancelSource source =
      request.deadline_ms > 0
          ? CancelSource::WithDeadline(
                std::chrono::milliseconds(request.deadline_ms))
          : CancelSource();
  uint64_t local_id;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    local_id = conn->next_local_id++;
    conn->inflight.emplace(local_id, source);
  }
  conn->inflight_count.fetch_add(1, std::memory_order_relaxed);
  inflight_requests_.fetch_add(1, std::memory_order_acq_rel);
  // Submit takes a copyable std::function; the move-only charge rides in a
  // shared_ptr.
  auto charge_box = std::make_shared<MemoryBudget::Charge>(std::move(charge));
  dispatch_->Submit([this, conn, reply, request = std::move(request), local_id,
                     source = std::move(source), charge_box] {
    ServeRequest(conn, reply, local_id, request, source, *charge_box);
  });
}

void Server::ServeRequest(const std::shared_ptr<Conn>& conn, const Reply& reply,
                          uint64_t local_id, const WireRequest& request,
                          const CancelSource& source,
                          MemoryBudget::Charge& charge) {
  const bool wire = reply.protocol == Reply::Protocol::kWire;
  Watchdog::TaskScope watched(options_.watchdog, wire ? "wire" : "http");
  if (AD_FAILPOINT("serve.worker.wedge")) {
    // Chaos hook: park this worker long enough for the watchdog to flag it.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  }
  std::string response;
  // Materialization charge: RunDetect's ToDetectBatch copies every column
  // string. Refusal is the same typed error the admission path produces.
  if (!charge.Extend(WireRequestBytes(request))) {
    response = reply.Refusal(
        wire ? "ResourceExhausted: column materialization exceeds the "
               "memory budget"
             : "column materialization exceeds the memory budget");
  } else if (wire) {
    WireSink sink(this, conn, request.request_id);
    RunDetect(request, source, sink);
    metrics_.frames_out->Add(1);
    response = EncodeBatchDoneFrame({request.request_id, request.columns.size()});
  } else {
    CollectSink sink(request.columns.size());
    RunDetect(request, source, sink);
    std::string body = DetectResponseToJson(request.request_id, sink.reports());
    body.push_back('\n');
    response = BuildHttpResponse(200, "application/json", body, reply.keep_alive);
  }
  // Return the charge and deregister before the terminal bytes go out: a
  // client that has read them must find the budget already free, and one
  // that closes instantly must not race CloseConn into counting a spurious
  // disconnect-cancel for an already-finished request. The drain-visible
  // in-flight count drops only after the bytes are buffered, so AwaitDrain
  // can never observe "nothing in flight, nothing buffered" while the
  // terminal response is still in this thread's hands.
  charge.Release();
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->inflight.erase(local_id);
  }
  conn->inflight_count.fetch_sub(1, std::memory_order_relaxed);
  SendToConn(conn, std::move(response), reply.close_after());
  inflight_requests_.fetch_sub(1, std::memory_order_acq_rel);
}

void Server::RunDetect(const WireRequest& request, const CancelSource& source,
                       ReportSink& sink) {
  const auto start = std::chrono::steady_clock::now();
  metrics_.requests->Add(1);
  stat_requests_.fetch_add(1, std::memory_order_relaxed);

  std::vector<DetectRequest> batch = ToDetectBatch(request);
  for (auto& r : batch) r.cancel = source.token();
  executor_->Detect(batch, sink);
  metrics_.request_latency_us->Record(ElapsedUs(start));
}

void Server::FlushConn(Loop& loop, const std::shared_ptr<Conn>& conn) {
  bool close_now = false;
  bool want_out = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    while (!conn->outbuf.empty()) {
      ssize_t n = ::send(conn->fd, conn->outbuf.data(), conn->outbuf.size(),
                         MSG_NOSIGNAL);
      if (n > 0) {
        metrics_.bytes_written->Add(static_cast<uint64_t>(n));
        conn->outbuf.erase(0, static_cast<size_t>(n));
        outbuf_bytes_.fetch_sub(n, std::memory_order_acq_rel);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // Hard write error — peer vanished.
      close_now = true;
      break;
    }
    if (!close_now) {
      want_out = !conn->outbuf.empty();
      if (!want_out && conn->close_after_flush) close_now = true;
    }
  }
  if (close_now) {
    CloseConn(loop, conn, /*cancel_inflight=*/true);
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

void Server::CloseConn(Loop& loop, const std::shared_ptr<Conn>& conn,
                       bool cancel_inflight) {
  std::vector<CancelSource> sources;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    sources.reserve(conn->inflight.size());
    for (auto& [id, source] : conn->inflight) sources.push_back(source);
    conn->inflight.clear();
    // Whatever never reached the wire is dropped with the connection; the
    // drain accounting must not wait for bytes nobody can flush.
    outbuf_bytes_.fetch_sub(static_cast<int64_t>(conn->outbuf.size()),
                            std::memory_order_acq_rel);
    conn->outbuf.clear();
  }
  if (cancel_inflight && !sources.empty()) {
    // Disconnect-as-cancel: nobody will read these reports, so the engine
    // should stop scanning them at its next poll.
    for (auto& source : sources) source.Cancel();
    metrics_.disconnect_cancels->Add(sources.size());
    stat_disconnect_cancels_.fetch_add(sources.size(),
                                       std::memory_order_relaxed);
  }
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  loop.conns.erase(conn->fd);
  metrics_.active_connections->Add(-1);
}

ServerStats Server::Stats() const {
  ServerStats stats;
  stats.connections = stat_connections_.load(std::memory_order_relaxed);
  stats.requests = stat_requests_.load(std::memory_order_relaxed);
  stats.http_requests = stat_http_requests_.load(std::memory_order_relaxed);
  stats.protocol_errors = stat_protocol_errors_.load(std::memory_order_relaxed);
  stats.disconnect_cancels =
      stat_disconnect_cancels_.load(std::memory_order_relaxed);
  stats.timeout_closes = stat_timeout_closes_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace autodetect
