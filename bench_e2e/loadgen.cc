#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "bench_e2e.h"
#include "common/random.h"
#include "common/string_util.h"
#include "net/client.h"
#include "net/json.h"

namespace autodetect::bench {

namespace {

/// Every kSampleEvery-th request's reports are checked against the
/// in-process reference.
constexpr uint64_t kSampleEvery = 64;
/// A response later than this is a failed request, not a slow one.
constexpr auto kResponseTimeout = std::chrono::seconds(10);
constexpr size_t kMaxErrorMessages = 8;

Status SendAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd p{fd, POLLOUT, 0};
        ::poll(&p, 1, 1000);
        continue;
      }
      return Status::IOError(StrFormat("send: %s", std::strerror(errno)));
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

/// Index of the measured round `t` falls in: -1 before it (warm-up), and
/// `rounds` or more after the last.
int RoundIndex(Clock::time_point t, Clock::time_point begin, double round_s) {
  if (t < begin) return -1;
  return static_cast<int>(Sec(t - begin) / round_s);
}

}  // namespace

void Tally::Fail(const std::string& message) {
  ++failed;
  if (errors.size() < kMaxErrorMessages) errors.push_back(message);
}

// -------------------------------------------------------------- wire closed

Status RunWireClosed(uint16_t port, RequestPool* pool, double warmup_s, int rounds,
                     double round_s, std::vector<Round>* out, Tally* tally) {
  AD_ASSIGN_OR_RETURN(int fd, RawConnect("127.0.0.1", port));
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};
  timeval timeout{static_cast<time_t>(kResponseTimeout.count()), 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  AD_RETURN_NOT_OK(SendAll(fd, std::string_view(kWireMagic, kWireMagicLen)));

  struct Slot {
    bool busy = false;
    std::string bad;  ///< why the request failed; empty while it is fine
    uint64_t id = 0;
    size_t pool_index = 0;
    size_t reports = 0;
    Clock::time_point ready, sent, first;  ///< free slot, send, first report
    std::vector<std::string> prints;  ///< sampled requests only
  };
  Slot slots[2];
  const size_t pool_size = pool->requests.size();
  size_t next_pool = 0;
  uint64_t next_id = 0;

  const auto start = Clock::now();
  const auto measure_begin = start + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(warmup_s));
  const auto measure_end = measure_begin + std::chrono::duration_cast<Clock::duration>(
                                               std::chrono::duration<double>(rounds * round_s));
  out->assign(static_cast<size_t>(rounds), Round{});
  for (Round& r : *out) r.seconds = round_s;
  double cpu_at_begin = -1;

  auto send = [&](Slot& slot, Clock::time_point ready) -> Status {
    slot = Slot{};
    slot.busy = true;
    slot.id = ++next_id;
    slot.pool_index = next_pool;
    next_pool = (next_pool + 1) % pool_size;
    std::string& frame = pool->frames[slot.pool_index];
    PatchWireId(&frame, slot.id);
    if (slot.id % kSampleEvery == 0) {
      slot.prints.resize(pool->requests[slot.pool_index].columns.size());
    }
    ++tally->attempted;
    slot.ready = ready;
    slot.sent = Clock::now();
    return SendAll(fd, frame);
  };
  auto finish = [&](Slot& slot, Clock::time_point now, bool ok) {
    slot.busy = false;
    const size_t columns = pool->requests[slot.pool_index].columns.size();
    if (!ok) return;
    if (!slot.prints.empty()) tally->samples.emplace_back(slot.pool_index, std::move(slot.prints));
    const int r = RoundIndex(slot.sent, measure_begin, round_s);
    if (r < 0 || r >= rounds || now > measure_end) return;
    Round& round = (*out)[static_cast<size_t>(r)];
    round.columns += columns;
    round.latency_ms.push_back(Ms(now - slot.sent));
    round.first_ms.push_back(Ms(slot.first - slot.sent));
    round.late_ms.push_back(Ms(slot.sent - slot.ready));
  };

  const auto now0 = Clock::now();
  for (Slot& slot : slots) AD_RETURN_NOT_OK(send(slot, now0));

  std::string buffer;
  size_t offset = 0;
  char chunk[1 << 16];
  while (slots[0].busy || slots[1].busy) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IOError(n == 0 ? "server closed the connection"
                                    : StrFormat("recv: %s", std::strerror(errno)));
    }
    const auto now = Clock::now();
    if (cpu_at_begin < 0 && now >= measure_begin) cpu_at_begin = ThreadCpuSeconds();
    buffer.append(chunk, static_cast<size_t>(n));
    while (true) {
      AD_ASSIGN_OR_RETURN(std::optional<FrameView> frame,
                          PeekFrame(std::string_view(buffer).substr(offset)));
      if (!frame.has_value()) break;
      offset += frame->frame_len;
      uint64_t id = 0;
      bool done = false, ok = true;
      switch (frame->type) {
        case FrameType::kColumnReport: {
          AD_ASSIGN_OR_RETURN(WireReport report, DecodeReportPayload(frame->payload));
          id = report.request_id;
          for (Slot& slot : slots) {
            if (!slot.busy || slot.id != id) continue;
            if (slot.reports++ == 0) slot.first = now;
            if (report.report.status != ColumnStatus::kOk) {
              slot.bad = StrFormat("request %llu column %llu came back %s",
                                   static_cast<unsigned long long>(id),
                                   static_cast<unsigned long long>(report.column_index),
                                   std::string(ColumnStatusName(report.report.status)).c_str());
            }
            if (!slot.prints.empty() && report.column_index < slot.prints.size()) {
              slot.prints[report.column_index] = Fingerprint(report.report);
            }
          }
          break;
        }
        case FrameType::kBatchDone: {
          AD_ASSIGN_OR_RETURN(WireBatchDone batch, DecodeBatchDonePayload(frame->payload));
          id = batch.request_id;
          done = true;
          break;
        }
        case FrameType::kError: {
          AD_ASSIGN_OR_RETURN(WireError error, DecodeErrorPayload(frame->payload));
          if (error.request_id == 0) return Status::IOError("connection error: " + error.message);
          id = error.request_id;
          done = true;
          ok = false;
          tally->Fail("kError frame: " + error.message);
          break;
        }
        case FrameType::kDetectRequest:
          return Status::Corruption("server sent a request frame");
      }
      if (!done) continue;
      for (Slot& slot : slots) {
        if (!slot.busy || slot.id != id) continue;
        const size_t columns = pool->requests[slot.pool_index].columns.size();
        if (ok && slot.bad.empty() && slot.reports != columns) {
          slot.bad = StrFormat("request %llu: %zu reports for %zu columns",
                               static_cast<unsigned long long>(id), slot.reports, columns);
        }
        if (ok && !slot.bad.empty()) {
          tally->Fail(slot.bad);
          ok = false;
        }
        finish(slot, now, ok);
        if (now < measure_end) AD_RETURN_NOT_OK(send(slot, now));
      }
    }
    if (offset > (1u << 20)) {
      buffer.erase(0, offset);
      offset = 0;
    }
  }
  if (cpu_at_begin >= 0) {
    tally->client_cpu_s += ThreadCpuSeconds() - cpu_at_begin;
    tally->client_wall_s += Sec(Clock::now() - measure_begin);
  }
  return Status::OK();
}

// ------------------------------------------------------------------- HTTP

Result<std::unique_ptr<HttpLoad>> HttpLoad::Connect(uint16_t port, RequestPool* pool) {
  constexpr size_t kConnections = 4;
  std::unique_ptr<HttpLoad> load(new HttpLoad(pool));
  for (size_t i = 0; i < kConnections; ++i) {
    AD_ASSIGN_OR_RETURN(int fd, RawConnect("127.0.0.1", port));
    load->conns_.emplace_back().fd = fd;
  }
  return load;
}

HttpLoad::~HttpLoad() {
  for (const Conn& conn : conns_) ::close(conn.fd);
}

Status HttpLoad::Send(size_t conn, Clock::time_point due, Round* round, Tally* tally) {
  const uint64_t id = ++sends_;
  InFlight f;
  f.pool_index = next_pool_;
  next_pool_ = (next_pool_ + 1) % pool_->requests.size();
  f.conn = conn;
  f.due = due;
  f.round = round;
  f.pending = true;
  std::string& message = pool_->http[f.pool_index];
  PatchHttpId(&message, pool_->http_id_offsets[f.pool_index], id);
  ++tally->attempted;
  f.sent = Clock::now();
  if (round != nullptr) round->late_ms.push_back(Ms(f.sent - due));
  inflight_.push_back(f);
  ++outstanding_;
  ++conns_[conn].outstanding;
  return SendAll(conns_[conn].fd, message);
}

void HttpLoad::Complete(size_t conn, int status, std::string_view body, Round* round,
                        Tally* tally, bool closed_loop) {
  const auto now = Clock::now();
  // The body opens with {"request_id":<id>, — the id this response answers.
  uint64_t id = 0;
  size_t pos = body.find(':');
  if (pos != std::string_view::npos) {
    for (++pos; pos < body.size() && (body[pos] == ' ' || (body[pos] >= '0' && body[pos] <= '9'));
         ++pos) {
      if (body[pos] != ' ') id = id * 10 + static_cast<uint64_t>(body[pos] - '0');
    }
  }
  if (id == 0 || id > inflight_.size() || !inflight_[id - 1].pending) {
    tally->Fail(StrFormat("HTTP %d response for unknown request id %llu", status,
                          static_cast<unsigned long long>(id)));
    return;
  }
  InFlight& f = inflight_[id - 1];
  f.pending = false;
  --outstanding_;
  --conns_[f.conn].outstanding;
  if (f.conn != conn) {
    tally->Fail(StrFormat("request %llu answered on another connection",
                          static_cast<unsigned long long>(id)));
    return;
  }
  const size_t columns = pool_->requests[f.pool_index].columns.size();
  if (status != 200) {
    tally->Fail(StrFormat("request %llu: HTTP %d", static_cast<unsigned long long>(id), status));
    return;
  }
  // Cheap per-response check: one "status" per column, all "ok". Sampled
  // responses get the full parse and the reference comparison.
  size_t statuses = 0, ok = 0;
  for (size_t at = body.find("\"status\":\""); at != std::string_view::npos;
       at = body.find("\"status\":\"", at + 1)) {
    ++statuses;
    if (body.compare(at + 10, 3, "ok\"") == 0) ++ok;
  }
  if (statuses != columns || ok != columns) {
    tally->Fail(StrFormat("request %llu: %zu of %zu columns ok",
                          static_cast<unsigned long long>(id), ok, columns));
    return;
  }
  if (id % kSampleEvery == 0) {
    auto prints = HttpReportPrints(body, columns);
    if (!prints.ok()) {
      tally->Fail(prints.status().ToString());
      return;
    }
    tally->samples.emplace_back(f.pool_index, std::move(*prints));
  }
  Round* target = closed_loop ? round : f.round;
  if (target == nullptr) return;
  const Clock::time_point from = closed_loop ? f.sent : f.due;
  target->columns += columns;
  target->latency_ms.push_back(Ms(now - from));
}

Status HttpLoad::Pump(int timeout_us, Round* round, Tally* tally, bool closed_loop) {
  std::vector<pollfd> fds;
  for (const Conn& conn : conns_) fds.push_back({conn.fd, POLLIN, 0});
  timespec ts{timeout_us / 1000000, static_cast<long>(timeout_us % 1000000) * 1000};
  int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (n < 0) {
    if (errno == EINTR) return Status::OK();
    return Status::IOError(StrFormat("ppoll: %s", std::strerror(errno)));
  }
  char chunk[1 << 16];
  for (size_t c = 0; c < conns_.size(); ++c) {
    if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    Conn& conn = conns_[c];
    ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
    if (got <= 0) return Status::IOError("server closed an HTTP connection");
    conn.in.append(chunk, static_cast<size_t>(got));
    while (true) {
      std::string_view rest = std::string_view(conn.in).substr(conn.in_offset);
      const size_t head_end = rest.find("\r\n\r\n");
      if (head_end == std::string_view::npos) break;
      const std::string_view head = rest.substr(0, head_end);
      const size_t cl = head.find("Content-Length: ");
      if (!StartsWith(head, "HTTP/1.1 ") || cl == std::string_view::npos) {
        return Status::Corruption("malformed HTTP response head");
      }
      const int status = std::atoi(head.data() + 9);
      const size_t length = std::strtoull(head.data() + cl + 16, nullptr, 10);
      if (rest.size() < head_end + 4 + length) break;
      Complete(c, status, rest.substr(head_end + 4, length), round, tally, closed_loop);
      conn.in_offset += head_end + 4 + length;
    }
    if (conn.in_offset == conn.in.size()) {
      conn.in.clear();
      conn.in_offset = 0;
    }
  }
  return Status::OK();
}

Status HttpLoad::Closed(double seconds, Round* round, Tally* tally) {
  const auto begin = Clock::now();
  const auto end = begin + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  const double cpu_before = ThreadCpuSeconds();
  Round* target = round;
  for (size_t c = 0; c < conns_.size(); ++c) AD_RETURN_NOT_OK(Send(c, begin, nullptr, tally));
  while (true) {
    const auto now = Clock::now();
    if (now >= end) target = nullptr;  // drain: late completions are not measured
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (conns_[c].outstanding == 0 && now < end) {
        AD_RETURN_NOT_OK(Send(c, now, nullptr, tally));
      }
    }
    if (outstanding_ == 0) break;
    if (now > end + kResponseTimeout) return Status::IOError("HTTP responses timed out");
    AD_RETURN_NOT_OK(Pump(20000, target, tally, /*closed_loop=*/true));
  }
  if (round != nullptr) round->seconds = seconds;
  tally->client_cpu_s += ThreadCpuSeconds() - cpu_before;
  tally->client_wall_s += Sec(Clock::now() - begin);
  return Status::OK();
}

Status HttpLoad::Open(double seconds, double rate, uint64_t seed, Round* round, Tally* tally) {
  Pcg32 rng(seed);
  const auto begin = Clock::now();
  const auto end = begin + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  const double cpu_before = ThreadCpuSeconds();
  auto due = begin;
  size_t next_conn = 0;
  auto next_gap = [&] {
    // Exponential inter-arrival gap of a Poisson process at `rate`.
    const double u = 1.0 - rng.NextDouble();
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(u) / rate));
  };
  due += next_gap();
  while (true) {
    auto now = Clock::now();
    while (due < end && due <= now) {
      AD_RETURN_NOT_OK(Send(next_conn, due, round, tally));
      next_conn = (next_conn + 1) % conns_.size();
      due += next_gap();
      now = Clock::now();
    }
    if (due >= end && outstanding_ == 0) break;
    if (now > end + kResponseTimeout) return Status::IOError("HTTP responses timed out");
    const auto wake = due < end ? due : now + std::chrono::milliseconds(20);
    const int timeout_us = static_cast<int>(std::max<double>(0.0, Us(wake - now)));
    AD_RETURN_NOT_OK(Pump(timeout_us, round, tally, /*closed_loop=*/false));
  }
  if (round != nullptr) round->seconds = seconds;
  tally->client_cpu_s += ThreadCpuSeconds() - cpu_before;
  tally->client_wall_s += Sec(Clock::now() - begin);
  return Status::OK();
}

Result<std::vector<std::string>> HttpReportPrints(std::string_view body, size_t columns) {
  AD_ASSIGN_OR_RETURN(JsonValue root, ParseJson(body));
  const JsonValue* reports = root.Find("reports");
  if (reports == nullptr || !reports->IsArray() || reports->array.size() != columns) {
    return Status::Corruption("response lacks one report per column");
  }
  auto number = [](const JsonValue& obj, std::string_view key) {
    const JsonValue* v = obj.Find(key);
    return v != nullptr && v->IsNumber() ? v->number : -1.0;
  };
  auto text = [](const JsonValue& obj, std::string_view key) {
    const JsonValue* v = obj.Find(key);
    return v != nullptr && v->IsString() ? v->str : std::string();
  };
  std::vector<std::string> prints(columns);
  for (const JsonValue& r : reports->array) {
    const double index = number(r, "index");
    if (index < 0 || index >= static_cast<double>(columns)) {
      return Status::Corruption("report index out of range");
    }
    if (text(r, "status") != "ok") return Status::Corruption("report status is not ok");
    DetectReport report;
    report.column.distinct_values = static_cast<size_t>(number(r, "distinct_values"));
    const JsonValue* cells = r.Find("cells");
    const JsonValue* pairs = r.Find("pairs");
    if (cells == nullptr || pairs == nullptr || !cells->IsArray() || !pairs->IsArray()) {
      return Status::Corruption("report lacks cells/pairs arrays");
    }
    for (const JsonValue& c : cells->array) {
      report.column.cells.push_back(
          CellFinding{static_cast<uint32_t>(number(c, "row")), text(c, "value"),
                      number(c, "confidence"),
                      static_cast<uint32_t>(number(c, "incompatible_with"))});
    }
    for (const JsonValue& p : pairs->array) {
      report.column.pairs.push_back(
          PairFinding{text(p, "u"), text(p, "v"), number(p, "confidence")});
    }
    prints[static_cast<size_t>(index)] = Fingerprint(report);
  }
  return prints;
}

}  // namespace autodetect::bench
