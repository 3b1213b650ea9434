#ifndef VAQ_SERVER_QUERY_SERVER_H_
#define VAQ_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/cancel.h"
#include "core/dynamic_point_database.h"
#include "engine/query_engine.h"
#include "geometry/wkt.h"
#include "server/protocol.h"

namespace vaq {

/// The network front door (ROADMAP item 1): a long-running TCP service
/// that exposes one `DynamicPointDatabase` over the `VQRY` framed
/// protocol (see `protocol.h`). Untrusted clients send WKT polygons and
/// mutations; the server runs them through one shared `QueryEngine` and
/// streams results back.
///
/// **Threading model.** One accept thread plus one thread per connection.
/// A connection thread parses, runs its query itself through
/// `QueryEngine::Run` once it holds one of the engine's
/// `Options::engine_threads` execution slots, and writes the response —
/// no queue hop, no hand-off to a pool thread. CPU parallelism is still
/// bounded by the slot count regardless of connection count, and engine
/// statistics stay in units of client queries.
///
/// **Planner routing.** The engine method the server registers is the
/// database's `PlannedQuery()` — every network query plans (lock-free,
/// from the static cost model) and hits the result cache. Per-request
/// `PlanHints` ride in on `SubmitOptions::hints`.
///
/// **Backpressure.** The engine runs with `shed_on_full`: when every slot
/// is busy and `engine_queue_capacity` requests already wait for one,
/// `Run` throws `EngineOverloadedError`, which the server maps to a typed
/// `kRetryLater` response. An overloaded server answers *something* for
/// every request — load shedding is visible, never a silent drop or
/// unbounded queueing.
///
/// **Deadlines.** A request's `deadline_ms` becomes the entry-relative
/// engine deadline (slot wait counts); expiry surfaces as a
/// typed `kDeadline` response. Every request token is also chained under
/// a server-wide shutdown token, so `Stop()` aborts in-flight queries
/// promptly with `kCancelled` instead of waiting them out.
///
/// **Mutations.** INSERT/ERASE are cheap COW publications. COMPACT runs
/// `DynamicPointDatabase::Compact` on the request's connection thread:
/// the rebuild happens outside the database's reader lock and queries
/// keep running on their pinned snapshots, so a COMPACT never stalls,
/// rejects or drops a query. Concurrent INSERT/ERASE requests wait on
/// the database's writer mutex until the rebuild is published.
class QueryServer {
 public:
  struct Options {
    /// TCP port to bind on 127.0.0.1; 0 = ephemeral (see `port()`).
    std::uint16_t port = 0;
    /// Listen backlog.
    int backlog = 64;
    /// Engine configuration. `engine_threads` (the execution slot count)
    /// 0 = hardware concurrency. The queue bound is the admission-control
    /// knob: a request that finds every slot busy and this many requests
    /// already waiting sheds with `kRetryLater` instead of waiting too.
    int engine_threads = 0;
    std::size_t engine_queue_capacity = 256;
    /// Vertex bound handed to the WKT parser per request.
    std::size_t max_wkt_vertices = kDefaultMaxWktVertices;
    /// Ceiling applied to client-requested deadlines (0 = no ceiling):
    /// an operator cap so one client cannot park work on the pool for
    /// minutes by asking politely.
    double max_deadline_ms = 0.0;
  };

  /// Counters of `Stop()`-time and STATS-opcode reporting. All since
  /// construction; see `WireServerStats` for field meanings.
  struct Counters {
    std::uint64_t connections_total = 0;
    std::uint64_t connections_active = 0;
    std::uint64_t requests_total = 0;
    std::uint64_t queries_ok = 0;
    std::uint64_t queries_shed = 0;
    std::uint64_t queries_rejected = 0;
    std::uint64_t queries_aborted = 0;
    std::uint64_t mutations_total = 0;
    std::uint64_t compacts_completed = 0;
  };

  /// Serves `db` (not owned; must outlive the server). The constructor
  /// binds and listens — a bind failure throws `std::system_error` — but
  /// accepts nothing until `Start()`.
  QueryServer(DynamicPointDatabase* db, Options options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Starts the accept loop. Idempotent.
  void Start();

  /// Graceful shutdown: stop accepting, cancel in-flight queries through
  /// the shutdown token (clients get typed `kCancelled` / `kShuttingDown`
  /// responses, never a silent close mid-response), join every
  /// connection thread, stop the engine. Idempotent; the destructor
  /// calls it.
  void Stop();

  /// The bound port (resolves an ephemeral `Options::port = 0`).
  std::uint16_t port() const { return port_; }

  Counters counters() const;
  EngineStats engine_stats() const { return engine_.Stats(); }
  /// Resets the engine's stats window (benches time cells back to back).
  void ResetEngineStats() { engine_.ResetStats(); }

 private:
  struct Connection;

  /// `Counters` as relaxed atomics: every connection thread bumps them
  /// without a lock, and `counters()` reads each field once.
  struct AtomicCounters {
    std::atomic<std::uint64_t> connections_total{0};
    std::atomic<std::uint64_t> connections_active{0};
    std::atomic<std::uint64_t> requests_total{0};
    std::atomic<std::uint64_t> queries_ok{0};
    std::atomic<std::uint64_t> queries_shed{0};
    std::atomic<std::uint64_t> queries_rejected{0};
    std::atomic<std::uint64_t> queries_aborted{0};
    std::atomic<std::uint64_t> mutations_total{0};
    std::atomic<std::uint64_t> compacts_completed{0};
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  /// Handles one decoded request frame: appends the response (one or more
  /// frames, the last terminal) to the empty `out`.
  void HandleRequest(Connection* conn, Opcode opcode,
                     std::span<const std::uint8_t> payload,
                     std::vector<std::uint8_t>& out);
  void HandleQuery(std::span<const std::uint8_t> payload,
                   std::vector<std::uint8_t>& out);

  DynamicPointDatabase* db_;
  Options options_;
  QueryEngine engine_;
  int method_ = -1;  // The registered planned method.

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  /// Parent of every request token: `Stop()` cancels it once and every
  /// waiting/running query aborts at its next block boundary.
  CancelToken shutdown_;

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;

  AtomicCounters counters_;
};

}  // namespace vaq

#endif  // VAQ_SERVER_QUERY_SERVER_H_
