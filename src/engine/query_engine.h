#ifndef VAQ_ENGINE_QUERY_ENGINE_H_
#define VAQ_ENGINE_QUERY_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/area_query.h"
#include "core/cancel.h"
#include "core/query_context.h"
#include "engine/bounded_queue.h"
#include "engine/errors.h"
#include "geometry/polygon.h"
#include "planner/query_plan.h"

namespace vaq {

struct EngineOptions {
  /// Execution slot count — the most queries that run at once, and the
  /// size of the worker pool; 0 means `std::thread::hardware_concurrency()`.
  int num_threads = 0;
  /// Bound of the MPMC work queue; `Submit` blocks (backpressure) when the
  /// queue is full. Also the bound on queries waiting for a slot that a
  /// `Run` under `shed_on_full` sheds at.
  std::size_t queue_capacity = 1024;
  /// Admission control: when true, a `Submit` against a full queue — or a
  /// `Run` that finds every slot busy and `queue_capacity` queries already
  /// waiting for one — throws `EngineOverloadedError` instead of
  /// blocking: the engine sheds load so a saturating client observes a
  /// typed overload signal rather than unbounded latency. Off by default
  /// (blocking backpressure, the batch benches' behaviour).
  bool shed_on_full = false;
};

/// Per-submission controls (deadline / cancellation); default = none.
struct SubmitOptions {
  /// Abort the query once this many ms have elapsed *from submission*
  /// (queue or slot wait included — a waiting query past its deadline
  /// fails fast without running). 0 = no deadline.
  double deadline_ms = 0.0;
  /// External cancellation handle: the caller keeps a reference and may
  /// `Cancel()` it anytime; the query observes it at its next block
  /// boundary. Created internally when only a deadline is requested.
  std::shared_ptr<CancelToken> cancel;
  /// Planner hints of this submission (forced method, cache/scatter
  /// opt-outs). The engine installs them on the slot's `QueryContext`
  /// around the query — like the cancel token — so a registered
  /// `db.PlannedQuery()` picks them up through the hint-less
  /// `AreaQuery::Run` interface; `force_method` is how engine traffic
  /// runs one fixed method over a database. Query objects registered
  /// directly (a base method over a `PointDatabase`) ignore them.
  /// Defaults = automatic.
  PlanHints hints{};
};

/// Outcome of one engine-executed query.
struct QueryResult {
  std::vector<PointId> ids;
  QueryStats stats;
};

/// Aggregated counters for one registered query method. The per-query
/// `QueryStats` records merge via `QueryStats::MergeFrom` — the same
/// merge the sharded gather uses — so every stats field (including ones
/// added later) aggregates here without a hand-written summation to keep
/// in sync. `totals.elapsed_ms` is the summed per-query execution time;
/// the mask fields (`kernel_kind`, `plan_method`, `plan_reason`) OR
/// across queries.
struct MethodEngineStats {
  std::string name;
  std::uint64_t queries = 0;
  /// Merged per-query stats of every completed query of this method.
  QueryStats totals;
};

/// Snapshot of engine-level statistics since construction or the last
/// `ResetStats()`.
struct EngineStats {
  std::uint64_t queries_completed = 0;
  double wall_ms = 0.0;
  double throughput_qps = 0.0;
  /// End-to-end latency (submission to completion, including queue wait),
  /// nearest-rank percentiles over all completed queries in the window.
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  /// Per-method IO and work counters, indexed by registration order.
  std::vector<MethodEngineStats> methods;
};

/// Nearest-rank percentile of an ascending-sorted sample vector: the
/// smallest sample whose rank is >= q * n (so p50 of [1..100] is 50, p99
/// is 99); 0.0 on an empty vector. This is the estimator behind
/// `EngineStats::latency_p50_ms`/`p95`/`p99`, exposed so its order
/// statistics are testable against known distributions directly.
double NearestRankPercentile(const std::vector<double>& sorted, double q);

/// Executes area queries in a fixed number of execution slots.
///
/// The engine is the concurrency boundary of the library: query objects
/// are stateless and the `PointDatabase` is immutable after construction,
/// so the only mutable per-query state is the `QueryContext` scratch arena
/// — and the engine owns exactly one per slot. A query runs only while it
/// holds a slot, so at most `num_threads()` queries execute at once, and
/// a context is reused across every query its slot executes, so
/// steady-state execution allocates only result vectors.
///
/// Two ways in, one execution path:
///  - `Run` executes on the *calling* thread once a slot is free — no
///    queue, no hand-off, no future. The server's connection threads use
///    it.
///  - `Submit`/`SubmitWith`/`RunBatch` enqueue onto a worker pool that
///    takes a slot per task. The pool starts on the first enqueue, so an
///    engine that only ever sees `Run` keeps no idle threads.
/// Both record into the same per-slot stats shards, so `Stats()` is one
/// window over all client queries whichever way they came in.
///
/// Usage:
///   QueryEngine engine({.num_threads = 4});
///   const int voronoi = engine.RegisterMethod(&voronoi_query);
///   auto results = engine.RunBatch(polygons, voronoi);   // blocking
///   auto future  = engine.Submit(polygon, voronoi);      // async
///   auto result  = engine.Run(polygon, voronoi);         // caller's thread
///
/// Thread safety: `Run`/`Submit`/`RunBatch`/`Stats` may be called from
/// any thread. `RegisterMethod` must complete before queries that use the
/// new method id are submitted. Do not call `Run`, `RunBatch` or
/// `Submit(...).wait()` from inside a query of the same engine (queries
/// never enqueue queries): it would wait for a slot it may itself hold.
class QueryEngine {
 public:
  explicit QueryEngine(EngineOptions options = {});
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Registers a query implementation (which must outlive the engine) and
  /// returns its method id for `Submit`/`RunBatch`.
  int RegisterMethod(const AreaQuery* query);

  /// Enqueues one query; the future resolves with its result and stats.
  /// Blocks while the work queue is full (unless
  /// `EngineOptions::shed_on_full`, which throws `EngineOverloadedError`
  /// instead). Throws `EngineStoppedError` after `Stop()`. With a
  /// deadline or cancel token in `opts`, the query aborts cooperatively
  /// — a queued task past its deadline fails fast without running, a
  /// running one observes the token at its next block boundary — and the
  /// future delivers `QueryAbortedError`.
  std::future<QueryResult> Submit(Polygon area, int method = 0,
                                  SubmitOptions opts = {});

  /// Runs one query on the calling thread and returns its result — the
  /// synchronous twin of `Submit(...).get()` without the queue hop. Waits
  /// while every slot is busy; under `EngineOptions::shed_on_full` it
  /// throws `EngineOverloadedError` instead once `queue_capacity` queries
  /// are already waiting for a slot. The deadline in `opts` runs from
  /// entry, so slot wait counts against it: a caller whose deadline
  /// passes while waiting gets `QueryAbortedError` (kDeadline) without
  /// the query running.
  /// Cancellation is checked once the slot is held, before the query
  /// starts, and then at the query's block boundaries. Throws
  /// `EngineStoppedError` after `Stop()`, including to callers still
  /// waiting for a slot when it is called.
  QueryResult Run(Polygon area, int method = 0, SubmitOptions opts = {});

  /// Enqueues one query against an ad-hoc query object that was never
  /// registered — the scatter path of `RunShardedSnapshotQuery`, whose
  /// per-shard legs are ephemeral objects bound to a pinned snapshot.
  /// `query` must stay alive until the returned future resolves (the
  /// caller waits on it before destroying the object). Ad-hoc executions
  /// are internal fan-out legs of one client query: they are excluded
  /// from `Stats()` (completed counts, latency percentiles, per-method
  /// counters), which keeps engine statistics in units of client queries.
  /// `cancel` (may be null) is the leg's token — typically chained to the
  /// parent query's token so cancelling the parent aborts every leg.
  std::future<QueryResult> SubmitWith(const AreaQuery* query, Polygon area,
                                      std::shared_ptr<CancelToken> cancel =
                                          nullptr);

  /// Stops the engine: releases `Run` callers still waiting for a slot
  /// with `EngineStoppedError`, closes the work queue (queued tasks still
  /// run to completion; to abort them too, cancel their tokens first),
  /// joins the workers and waits for `Run` calls already executing to
  /// return. Idempotent; racing `Submit`s either enqueue before the
  /// close or throw `EngineStoppedError` — no submission is silently
  /// dropped with a stranded future. The destructor calls it.
  void Stop();

  /// Runs every polygon through `method` across the pool and returns the
  /// results in input order — identical to running them sequentially,
  /// whatever the thread interleaving (each query is independent and the
  /// ids of each result are sorted).
  std::vector<QueryResult> RunBatch(std::span<const Polygon> areas,
                                    int method = 0);

  /// Aggregated statistics since construction / last `ResetStats()`.
  EngineStats Stats() const;
  void ResetStats();

  /// The execution slot count: the bound on concurrently running queries.
  int num_threads() const { return static_cast<int>(states_.size()); }

  /// True when called from inside a query this engine is executing, on a
  /// pool worker or a `Run` caller. The self-submission guard: a query
  /// that blocks on futures of its own engine can deadlock it (slot
  /// holders waiting on work only those same slots could run), so
  /// composite queries check this and fall back to inline execution (see
  /// `RunShardedSnapshotQuery`).
  bool OnWorkerThread() const;

 private:
  /// One query as `Run` and the pool execute it.
  struct Job {
    Polygon area;
    const AreaQuery* query = nullptr;
    int method = -1;  // Registered method id, or < 0 for an ad-hoc SubmitWith.
    std::chrono::steady_clock::time_point submitted;
    /// Deadline/cancellation handle (null = none). Shared: the submitter
    /// may hold it to cancel, the slot holder polls it during execution.
    std::shared_ptr<CancelToken> cancel;
    /// Planner hints, installed on the slot's context around the run.
    PlanHints hints{};
  };

  struct Task {
    Job job;
    std::promise<QueryResult> promise;
  };

  /// One execution slot: the scratch context of the query holding it and
  /// the stats shard that query records into — folded into EngineStats
  /// under the slot's own mutex so `Stats()` never blocks the whole
  /// engine.
  ///
  /// Latency samples are decimated once they reach a cap (keep every
  /// other sample, double the recording stride), so an open-ended query
  /// stream holds percentile memory bounded while the samples stay
  /// uniformly spread over the stats window.
  struct WorkerState {
    std::mutex mu;
    QueryContext ctx;  // Touched only by the slot's current holder.
    std::uint64_t completed = 0;
    std::uint64_t latency_stride = 1;  // Record every stride-th query.
    std::vector<double> latencies_ms;
    std::vector<MethodEngineStats> methods;
  };

  /// Builds the job of a registered-method query: method lookup, entry
  /// timestamp and the entry-relative deadline.
  Job MakeJob(Polygon area, int method, SubmitOptions opts,
              const char* site);
  std::future<QueryResult> Enqueue(Task task, const char* site);
  void StartPool();
  void WorkerLoop();

  /// A thread waiting for a slot. Waiters are served in arrival order: a
  /// released slot passes straight to the oldest one, so later arrivals
  /// cannot barge past a caller whose deadline is burning down.
  struct SlotWaiter {
    std::condition_variable cv;
    WorkerState* slot = nullptr;  // Set by the hand-off.
  };

  /// Takes a free slot, waiting in line while none is. `run_caller` marks
  /// a `Run` caller, which sheds under `shed_on_full` and gives up on
  /// `Stop()`; pool workers always wait, since they drain what was queued
  /// before the stop. A deadline on the job bounds the wait either way.
  WorkerState* AcquireSlot(const Job& job, bool run_caller);
  void ReleaseSlot(WorkerState* slot);
  /// Hands `slot` to the oldest waiter, or frees it. Requires `slots_mu_`.
  void ReturnSlotLocked(WorkerState* slot);
  /// The one execute-and-record path of `Run` and the pool: runs `job` in
  /// a slot and records it in that slot's stats shard.
  QueryResult RunInSlot(const Job& job, bool run_caller);

  EngineOptions options_;

  std::mutex methods_mu_;
  std::vector<const AreaQuery*> methods_;

  BoundedQueue<Task> queue_;
  std::vector<std::unique_ptr<WorkerState>> states_;
  std::vector<std::thread> workers_;  // Empty until the first enqueue.
  std::atomic<bool> pool_started_{false};

  /// Slot pool: the free slots (non-empty only while nobody waits), the
  /// waiters not yet handed a slot in arrival order, and whether `Stop()`
  /// has closed `Run` admission. `waiting_` also counts waiters handed a
  /// slot that have not woken up yet — like a queued task its worker has
  /// not popped — and is what `shed_on_full` compares with
  /// `queue_capacity`.
  std::mutex slots_mu_;
  std::condition_variable slots_drained_;  // Stop() waits on it.
  std::vector<WorkerState*> free_slots_;
  std::list<SlotWaiter*> slot_waiters_;
  std::size_t waiting_ = 0;
  bool run_closed_ = false;

  std::mutex stop_mu_;
  bool stopped_ = false;

  mutable std::mutex window_mu_;
  std::chrono::steady_clock::time_point window_start_;
};

}  // namespace vaq

#endif  // VAQ_ENGINE_QUERY_ENGINE_H_
