#include "server/query_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <system_error>
#include <utility>

#include "geometry/wkt.h"
#include "planner/planned_area_query.h"

namespace vaq {

namespace {

/// Reads exactly `n` bytes; false on orderly EOF at a frame boundary
/// (n == 0 read on the first byte), throws on a mid-frame EOF or error.
/// EINTR retries; everything else is fatal for the connection.
bool ReadFull(int fd, std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (got == 0) return false;  // Clean close between frames.
      throw std::runtime_error("connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    throw std::runtime_error(std::string("read failed: ") +
                             std::strerror(errno));
  }
  return true;
}

void WriteFull(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a peer that vanished mid-response is this
    // connection's problem (EPIPE, handled by the caller), never a
    // process-wide SIGPIPE.
    const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    throw std::runtime_error(std::string("write failed: ") +
                             std::strerror(errno));
  }
}

std::vector<std::uint8_t> ErrorFrame(WireErrorCode code,
                                     const std::string& detail) {
  std::vector<std::uint8_t> out;
  AppendFrame(out, Opcode::kError, EncodeErrorPayload({code, detail}));
  return out;
}

}  // namespace

/// Per-connection state: the socket, the serving thread and the
/// connection's own stats slice (reported via the STATS opcode).
struct QueryServer::Connection {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> done{false};
  std::uint64_t requests = 0;  // Touched only by the serving thread.
  std::uint64_t errors = 0;
};

QueryServer::QueryServer(DynamicPointDatabase* db, Options options)
    : db_(db),
      options_(options),
      engine_(EngineOptions{
          .num_threads = options.engine_threads,
          .queue_capacity = options.engine_queue_capacity,
          // Admission control IS the protocol's backpressure story: a
          // full slot wait must surface as a typed kRetryLater, not as a
          // connection thread blocked inside Run.
          .shed_on_full = true,
      }) {
  method_ = engine_.RegisterMethod(db_->PlannedQuery());

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::system_error(err, std::generic_category(), "bind");
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::system_error(err, std::generic_category(), "listen");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

QueryServer::~QueryServer() { Stop(); }

void QueryServer::Start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  accept_thread_ = std::thread(&QueryServer::AcceptLoop, this);
}

void QueryServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;

  // Abort in-flight and waiting queries: every request token is chained
  // under this one, so one cancel fans out to all of them. Their
  // handlers turn the aborts into typed kCancelled responses before the
  // sockets close — drain, not drop.
  shutdown_.Cancel();

  // Unblock the accept loop.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Unblock connection reads, then join. Joining drains: each handler
  // finishes (and answers) the request it is processing first.
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (const std::unique_ptr<Connection>& c : conns) {
    if (c->fd >= 0) ::shutdown(c->fd, SHUT_RD);
  }
  for (const std::unique_ptr<Connection>& c : conns) {
    if (c->thread.joinable()) c->thread.join();
    if (c->fd >= 0) ::close(c->fd);
  }
  engine_.Stop();
}

void QueryServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener shut down (or fatally broken): stop accepting.
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    // Reap finished connections so a long-lived server's bookkeeping
    // tracks the active set, not its connection history.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        if ((*it)->fd >= 0) ::close((*it)->fd);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> clock(counters_mu_);
      ++counters_.connections_total;
      ++counters_.connections_active;
    }
    conn->thread = std::thread(&QueryServer::ServeConnection, this, raw);
    conns_.push_back(std::move(conn));
  }
}

void QueryServer::ServeConnection(Connection* conn) {
  std::uint8_t header[kFrameHeaderBytes];
  std::vector<std::uint8_t> payload;
  try {
    while (ReadFull(conn->fd, header, sizeof(header))) {
      ++conn->requests;
      {
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.requests_total;
      }
      FrameHeader fh;
      try {
        fh = DecodeFrameHeader({header, sizeof(header)});
        if (!IsRequestOpcode(static_cast<std::uint8_t>(fh.opcode))) {
          throw ProtocolError(ProtocolError::Kind::kBadOpcode,
                              "response opcode in a request frame");
        }
      } catch (const ProtocolError& e) {
        // A malformed header means framing is lost: answer once, then
        // close — resynchronising an untrusted byte stream is a guess.
        // Bad magic gets no answer at all: the peer is not speaking this
        // protocol, and our error frame would be noise to it.
        ++conn->errors;
        if (e.kind() != ProtocolError::Kind::kBadMagic) {
          const auto frame = ErrorFrame(WireErrorCode::kBadRequest, e.what());
          WriteFull(conn->fd, frame.data(), frame.size());
        }
        break;
      }
      // Header validated (length bounded) — the payload allocation is
      // safe now, and reuses the connection's buffer across requests.
      payload.resize(fh.payload_len);
      if (fh.payload_len > 0 &&
          !ReadFull(conn->fd, payload.data(), payload.size())) {
        break;  // EOF inside the payload: peer vanished; nothing to say.
      }
      const std::vector<std::uint8_t> response =
          HandleRequest(conn, fh.opcode, payload);
      WriteFull(conn->fd, response.data(), response.size());
    }
  } catch (...) {
    // IO failure (peer reset, shutdown during a blocking read/write):
    // the connection is over; server-wide state is untouched.
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    --counters_.connections_active;
  }
  conn->done.store(true, std::memory_order_release);
}

std::vector<std::uint8_t> QueryServer::HandleRequest(
    Connection* conn, Opcode opcode, std::span<const std::uint8_t> payload) {
  if (stopping_.load(std::memory_order_relaxed)) {
    ++conn->errors;
    return ErrorFrame(WireErrorCode::kShuttingDown,
                      "server is shutting down");
  }
  try {
    switch (opcode) {
      case Opcode::kQuery:
        return HandleQuery(payload);
      case Opcode::kInsert: {
        double x = 0.0, y = 0.0;
        DecodeInsertRequest(payload, &x, &y);
        const std::optional<PointId> id = db_->Insert({x, y});
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.mutations_total;
        std::vector<std::uint8_t> out;
        AppendFrame(out, Opcode::kMutated,
                    EncodeMutationPayload(
                        {id.has_value(), id.has_value() ? *id : 0u}));
        return out;
      }
      case Opcode::kErase: {
        const PointId id = DecodeEraseRequest(payload);
        const bool ok = db_->Erase(id);
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.mutations_total;
        std::vector<std::uint8_t> out;
        AppendFrame(out, Opcode::kMutated, EncodeMutationPayload({ok, 0}));
        return out;
      }
      case Opcode::kCompact: {
        // Rebuilds outside the database's reader lock; queries keep
        // running on their pinned snapshots meanwhile.
        db_->Compact();
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.mutations_total;
        ++counters_.compacts_completed;
        std::vector<std::uint8_t> out;
        AppendFrame(out, Opcode::kMutated, EncodeMutationPayload({true, 0}));
        return out;
      }
      case Opcode::kStats: {
        const EngineStats es = engine_.Stats();
        WireServerStats s;
        s.queries_completed = es.queries_completed;
        s.throughput_qps = es.throughput_qps;
        s.latency_p50_ms = es.latency_p50_ms;
        s.latency_p95_ms = es.latency_p95_ms;
        s.latency_p99_ms = es.latency_p99_ms;
        {
          std::lock_guard<std::mutex> lock(counters_mu_);
          s.connections_total = counters_.connections_total;
          s.connections_active = counters_.connections_active;
          s.requests_total = counters_.requests_total;
          s.queries_ok = counters_.queries_ok;
          s.queries_shed = counters_.queries_shed;
          s.queries_rejected = counters_.queries_rejected;
          s.queries_aborted = counters_.queries_aborted;
          s.mutations_total = counters_.mutations_total;
          s.compacts_completed = counters_.compacts_completed;
        }
        const ResultCache& cache = db_->PlannedQuery()->cache();
        s.result_cache_hits = cache.hits();
        s.result_cache_misses = cache.misses();
        s.client_requests = conn->requests;
        s.client_errors = conn->errors;
        std::vector<std::uint8_t> out;
        AppendFrame(out, Opcode::kStatsReply, EncodeServerStatsPayload(s));
        return out;
      }
      case Opcode::kPing: {
        std::vector<std::uint8_t> out;
        AppendFrame(out, Opcode::kPong, payload);
        return out;
      }
      default:
        break;
    }
    throw ProtocolError(ProtocolError::Kind::kBadOpcode,
                        "unhandled request opcode");
  } catch (const ProtocolError& e) {
    ++conn->errors;
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.queries_rejected;
    return ErrorFrame(WireErrorCode::kBadRequest, e.what());
  }
}

std::vector<std::uint8_t> QueryServer::HandleQuery(
    std::span<const std::uint8_t> payload) {
  // Throws ProtocolError up to HandleRequest's kBadRequest mapping.
  const WireQueryRequest req = DecodeQueryRequest(payload);

  Polygon area;
  try {
    area = ParseWktPolygon(req.wkt, options_.max_wkt_vertices);
  } catch (const WktParseError& e) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.queries_rejected;
    return ErrorFrame(WireErrorCode::kBadWkt, e.what());
  }

  SubmitOptions opts;
  opts.deadline_ms = req.deadline_ms;
  if (options_.max_deadline_ms > 0.0 &&
      (opts.deadline_ms == 0.0 || opts.deadline_ms > options_.max_deadline_ms))
    opts.deadline_ms = options_.max_deadline_ms;
  opts.hints.force_method = req.force_method;
  opts.hints.use_cache = req.use_cache;
  opts.hints.allow_scatter = req.allow_scatter;
  // Chain under the shutdown token so Stop() aborts this query promptly
  // (the engine adds the per-request deadline onto the same token).
  opts.cancel = std::make_shared<CancelToken>();
  opts.cancel->set_parent(&shutdown_);

  QueryResult result;
  try {
    result = engine_.Run(std::move(area), method_, std::move(opts));
  } catch (const EngineOverloadedError& e) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.queries_shed;
    return ErrorFrame(WireErrorCode::kRetryLater, e.what());
  } catch (const QueryAbortedError& e) {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.queries_aborted;
    return ErrorFrame(e.reason() == QueryAbortedError::Reason::kDeadline
                          ? WireErrorCode::kDeadline
                          : WireErrorCode::kCancelled,
                      e.what());
  } catch (const EngineStoppedError& e) {
    return ErrorFrame(WireErrorCode::kShuttingDown, e.what());
  } catch (const std::exception& e) {
    return ErrorFrame(WireErrorCode::kInternal, e.what());
  }

  // Stream the ids in fixed-size frames, then the terminal stats frame.
  // One reservation covers every id frame; the stats frame is small.
  const std::span<const PointId> ids(result.ids);
  const std::size_t id_frames = (ids.size() + kIdsPerFrame - 1) / kIdsPerFrame;
  std::vector<std::uint8_t> out;
  out.reserve(ids.size() * 8 + id_frames * (kFrameHeaderBytes + 8) +
              kFrameHeaderBytes + 256);
  for (std::size_t at = 0; at < ids.size(); at += kIdsPerFrame) {
    AppendFrame(out, Opcode::kResultIds,
                EncodeResultIdsPayload(
                    ids.subspan(at, std::min(kIdsPerFrame, ids.size() - at))));
  }
  WireQueryStats stats = SummarizeQueryStats(result.stats);
  stats.results = result.ids.size();
  AppendFrame(out, Opcode::kQueryDone, EncodeQueryStatsPayload(stats));
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    ++counters_.queries_ok;
  }
  return out;
}

QueryServer::Counters QueryServer::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

}  // namespace vaq
