#include "server/query_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <optional>
#include <system_error>
#include <utility>

#include "geometry/wkt.h"
#include "planner/planned_area_query.h"
#include "server/frame_io.h"

namespace vaq {

namespace {

void Bump(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Load(const std::atomic<std::uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

void AppendErrorFrame(std::vector<std::uint8_t>& out, WireErrorCode code,
                      const std::string& detail) {
  AppendFrame(out, Opcode::kError, EncodeErrorPayload({code, detail}));
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
    Bump(counters_.connections_total);
    Bump(counters_.connections_active);
    conn->thread = std::thread(&QueryServer::ServeConnection, this, raw);
    conns_.push_back(std::move(conn));
  }
}

void QueryServer::ServeConnection(Connection* conn) {
  FrameReader reader(conn->fd, FrameReader::Accept::kRequests);
  std::vector<std::uint8_t> out;  // Reused for every response.
  try {
    for (;;) {
      std::optional<FrameReader::Frame> frame;
      try {
        frame = reader.Next();
      } catch (const ProtocolError& e) {
        // A malformed header means framing is lost: answer once, then
        // close — resynchronising an untrusted byte stream is a guess.
        // Bad magic gets no answer at all: the peer is not speaking this
        // protocol, and our error frame would be noise to it.
        ++conn->requests;
        ++conn->errors;
        Bump(counters_.requests_total);
        if (e.kind() != ProtocolError::Kind::kBadMagic) {
          AppendErrorFrame(out, WireErrorCode::kBadRequest, e.what());
          SendAll(conn->fd, out);
        }
        break;
      }
      if (!frame) break;  // Clean close between frames.
      ++conn->requests;
      Bump(counters_.requests_total);
      HandleRequest(conn, frame->opcode, frame->payload, out);
      SendAll(conn->fd, out);
      // Emptied before the next read blocks, so an idle connection does
      // not hold a large response's buffer.
      ResetSendBuffer(out);
    }
  } catch (...) {
    // IO failure (peer reset or gone mid-frame, shutdown during a blocking
    // read/write): the connection is over; server-wide state is untouched.
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  counters_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  conn->done.store(true, std::memory_order_release);
}

void QueryServer::HandleRequest(Connection* conn, Opcode opcode,
                                std::span<const std::uint8_t> payload,
                                std::vector<std::uint8_t>& out) {
  if (stopping_.load(std::memory_order_relaxed)) {
    ++conn->errors;
    AppendErrorFrame(out, WireErrorCode::kShuttingDown,
                     "server is shutting down");
    return;
  }
  try {
    switch (opcode) {
      case Opcode::kQuery:
        HandleQuery(payload, out);
        return;
      case Opcode::kInsert: {
        double x = 0.0, y = 0.0;
        DecodeInsertRequest(payload, &x, &y);
        const std::optional<PointId> id = db_->Insert({x, y});
        Bump(counters_.mutations_total);
        AppendFrame(out, Opcode::kMutated,
                    EncodeMutationPayload(
                        {id.has_value(), id.has_value() ? *id : 0u}));
        return;
      }
      case Opcode::kErase: {
        const PointId id = DecodeEraseRequest(payload);
        const bool ok = db_->Erase(id);
        Bump(counters_.mutations_total);
        AppendFrame(out, Opcode::kMutated, EncodeMutationPayload({ok, 0}));
        return;
      }
      case Opcode::kCompact: {
        // Rebuilds outside the database's reader lock; queries keep
        // running on their pinned snapshots meanwhile.
        db_->Compact();
        Bump(counters_.mutations_total);
        Bump(counters_.compacts_completed);
        AppendFrame(out, Opcode::kMutated, EncodeMutationPayload({true, 0}));
        return;
      }
      case Opcode::kStats: {
        const EngineStats es = engine_.Stats();
        const Counters c = counters();
        WireServerStats s;
        s.queries_completed = es.queries_completed;
        s.throughput_qps = es.throughput_qps;
        s.latency_p50_ms = es.latency_p50_ms;
        s.latency_p95_ms = es.latency_p95_ms;
        s.latency_p99_ms = es.latency_p99_ms;
        s.connections_total = c.connections_total;
        s.connections_active = c.connections_active;
        s.requests_total = c.requests_total;
        s.queries_ok = c.queries_ok;
        s.queries_shed = c.queries_shed;
        s.queries_rejected = c.queries_rejected;
        s.queries_aborted = c.queries_aborted;
        s.mutations_total = c.mutations_total;
        s.compacts_completed = c.compacts_completed;
        const ResultCache& cache = db_->PlannedQuery()->cache();
        s.result_cache_hits = cache.hits();
        s.result_cache_misses = cache.misses();
        s.client_requests = conn->requests;
        s.client_errors = conn->errors;
        AppendFrame(out, Opcode::kStatsReply, EncodeServerStatsPayload(s));
        return;
      }
      case Opcode::kPing:
        AppendFrame(out, Opcode::kPong, payload);
        return;
      default:
        break;
    }
    throw ProtocolError(ProtocolError::Kind::kBadOpcode,
                        "unhandled request opcode");
  } catch (const ProtocolError& e) {
    ++conn->errors;
    Bump(counters_.queries_rejected);
    out.clear();
    AppendErrorFrame(out, WireErrorCode::kBadRequest, e.what());
  }
}

void QueryServer::HandleQuery(std::span<const std::uint8_t> payload,
                              std::vector<std::uint8_t>& out) {
  // Throws ProtocolError up to HandleRequest's kBadRequest mapping. The
  // WKT is parsed where it lies, in the connection's receive buffer.
  const WireQueryRequestView req = DecodeQueryRequestView(payload);

  Polygon area;
  try {
    area = ParseWktPolygon(req.wkt, options_.max_wkt_vertices);
  } catch (const WktParseError& e) {
    Bump(counters_.queries_rejected);
    AppendErrorFrame(out, WireErrorCode::kBadWkt, e.what());
    return;
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
    Bump(counters_.queries_shed);
    AppendErrorFrame(out, WireErrorCode::kRetryLater, e.what());
    return;
  } catch (const QueryAbortedError& e) {
    Bump(counters_.queries_aborted);
    AppendErrorFrame(out,
                     e.reason() == QueryAbortedError::Reason::kDeadline
                         ? WireErrorCode::kDeadline
                         : WireErrorCode::kCancelled,
                     e.what());
    return;
  } catch (const EngineStoppedError& e) {
    AppendErrorFrame(out, WireErrorCode::kShuttingDown, e.what());
    return;
  } catch (const std::exception& e) {
    AppendErrorFrame(out, WireErrorCode::kInternal, e.what());
    return;
  }

  // Stream the ids in fixed-size frames, then the terminal stats frame,
  // each encoded in place. One reservation covers the whole response.
  const std::span<const PointId> ids(result.ids);
  const std::size_t id_frames = (ids.size() + kIdsPerFrame - 1) / kIdsPerFrame;
  out.reserve(ids.size() * 8 + id_frames * (kFrameHeaderBytes + 8) +
              kFrameHeaderBytes + 80);
  for (std::size_t at = 0; at < ids.size(); at += kIdsPerFrame) {
    const std::size_t frame_at = BeginFrame(out, Opcode::kResultIds);
    AppendResultIdsPayload(
        out, ids.subspan(at, std::min(kIdsPerFrame, ids.size() - at)));
    EndFrame(out, frame_at);
  }
  WireQueryStats stats = SummarizeQueryStats(result.stats);
  stats.results = result.ids.size();
  const std::size_t done_at = BeginFrame(out, Opcode::kQueryDone);
  AppendQueryStatsPayload(out, stats);
  EndFrame(out, done_at);
  Bump(counters_.queries_ok);
}

QueryServer::Counters QueryServer::counters() const {
  Counters c;
  c.connections_total = Load(counters_.connections_total);
  c.connections_active = Load(counters_.connections_active);
  c.requests_total = Load(counters_.requests_total);
  c.queries_ok = Load(counters_.queries_ok);
  c.queries_shed = Load(counters_.queries_shed);
  c.queries_rejected = Load(counters_.queries_rejected);
  c.queries_aborted = Load(counters_.queries_aborted);
  c.mutations_total = Load(counters_.mutations_total);
  c.compacts_completed = Load(counters_.compacts_completed);
  return c;
}

}  // namespace vaq
