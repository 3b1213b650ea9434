#include "engine/query_engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace vaq {

namespace {

/// Per-slot cap on retained latency samples; reaching it halves the
/// samples and doubles the recording stride (see WorkerState).
constexpr std::size_t kMaxLatencySamples = 1 << 16;

/// The engine executing a query on this thread, if any (see
/// `OnWorkerThread`).
thread_local const QueryEngine* current_engine = nullptr;

}  // namespace

double NearestRankPercentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

QueryEngine::QueryEngine(EngineOptions options)
    : options_(options),
      queue_(options.queue_capacity == 0 ? 1 : options.queue_capacity) {
  int n = options.num_threads;
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 1;

  window_start_ = std::chrono::steady_clock::now();
  states_.reserve(n);
  free_slots_.reserve(n);
  for (int i = 0; i < n; ++i) {
    states_.push_back(std::make_unique<WorkerState>());
    free_slots_.push_back(states_.back().get());
  }
}

QueryEngine::~QueryEngine() { Stop(); }

void QueryEngine::Stop() {
  // Serialise concurrent Stop()s; Close() is idempotent and a Submit
  // racing the close either wins the queue's internal lock first (its
  // task drains normally) or observes closed and throws the typed error.
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  {
    // Waiting Run callers leave typed; waiting workers go back to sleep.
    std::lock_guard<std::mutex> slots(slots_mu_);
    run_closed_ = true;
    for (SlotWaiter* w : slot_waiters_) w->cv.notify_one();
  }
  queue_.Close();
  for (std::thread& t : workers_) t.join();
  // Run callers still executing (or leaving the wait) hold engine state:
  // return only once every slot is back and nobody waits for one.
  std::unique_lock<std::mutex> slots(slots_mu_);
  slots_drained_.wait(slots, [this] {
    return free_slots_.size() == states_.size() && waiting_ == 0;
  });
}

int QueryEngine::RegisterMethod(const AreaQuery* query) {
  std::lock_guard<std::mutex> lock(methods_mu_);
  methods_.push_back(query);
  return static_cast<int>(methods_.size()) - 1;
}

void QueryEngine::StartPool() {
  // After Stop() the queue is closed and the enqueue that called this
  // reports it; no pool starts.
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopped_ || pool_started_.load(std::memory_order_relaxed)) return;
  workers_.reserve(states_.size());
  for (std::size_t i = 0; i < states_.size(); ++i) {
    workers_.emplace_back(&QueryEngine::WorkerLoop, this);
  }
  pool_started_.store(true, std::memory_order_release);
}

std::future<QueryResult> QueryEngine::Enqueue(Task task, const char* site) {
  if (!pool_started_.load(std::memory_order_acquire)) StartPool();
  std::future<QueryResult> future = task.promise.get_future();
  if (options_.shed_on_full) {
    switch (queue_.TryPush(std::move(task))) {
      case BoundedQueue<Task>::PushResult::kPushed:
        return future;
      case BoundedQueue<Task>::PushResult::kFull:
        throw EngineOverloadedError(options_.queue_capacity);
      case BoundedQueue<Task>::PushResult::kClosed:
        break;
    }
    throw EngineStoppedError(std::string(site) + ": engine is shut down");
  }
  if (!queue_.Push(std::move(task))) {
    throw EngineStoppedError(std::string(site) + ": engine is shut down");
  }
  return future;
}

QueryEngine::Job QueryEngine::MakeJob(Polygon area, int method,
                                      SubmitOptions opts, const char* site) {
  Job job;
  {
    std::lock_guard<std::mutex> lock(methods_mu_);
    if (method < 0 || method >= static_cast<int>(methods_.size())) {
      throw std::out_of_range(std::string(site) + ": unknown method id");
    }
    job.query = methods_[method];
  }
  job.area = std::move(area);
  job.method = method;
  job.submitted = std::chrono::steady_clock::now();
  job.cancel = std::move(opts.cancel);
  job.hints = opts.hints;
  if (opts.deadline_ms > 0.0) {
    // The deadline clock starts at submission, so queue and slot wait
    // count against it — an overloaded engine fails stale waiting work
    // fast instead of running it late.
    if (job.cancel == nullptr) job.cancel = std::make_shared<CancelToken>();
    job.cancel->SetDeadline(job.submitted +
                            std::chrono::duration_cast<
                                std::chrono::steady_clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    opts.deadline_ms)));
  }
  return job;
}

std::future<QueryResult> QueryEngine::Submit(Polygon area, int method,
                                             SubmitOptions opts) {
  Task task;
  task.job = MakeJob(std::move(area), method, std::move(opts),
                     "QueryEngine::Submit");
  return Enqueue(std::move(task), "QueryEngine::Submit");
}

QueryResult QueryEngine::Run(Polygon area, int method, SubmitOptions opts) {
  return RunInSlot(
      MakeJob(std::move(area), method, std::move(opts), "QueryEngine::Run"),
      /*run_caller=*/true);
}

std::future<QueryResult> QueryEngine::SubmitWith(
    const AreaQuery* query, Polygon area,
    std::shared_ptr<CancelToken> cancel) {
  Task task;
  task.job.area = std::move(area);
  task.job.query = query;
  task.job.method = -1;  // Ad-hoc: excluded from engine statistics.
  task.job.submitted = std::chrono::steady_clock::now();
  task.job.cancel = std::move(cancel);
  return Enqueue(std::move(task), "QueryEngine::SubmitWith");
}

std::vector<QueryResult> QueryEngine::RunBatch(std::span<const Polygon> areas,
                                               int method) {
  std::vector<std::future<QueryResult>> futures;
  futures.reserve(areas.size());
  for (const Polygon& area : areas) futures.push_back(Submit(area, method));
  std::vector<QueryResult> results;
  results.reserve(areas.size());
  for (std::future<QueryResult>& f : futures) results.push_back(f.get());
  return results;
}

bool QueryEngine::OnWorkerThread() const {
  return current_engine == this;
}

void QueryEngine::WorkerLoop() {
  while (std::optional<Task> task = queue_.Pop()) {
    try {
      task->promise.set_value(RunInSlot(task->job, /*run_caller=*/false));
    } catch (...) {
      // A throwing query must not take down the pool (std::terminate) or
      // strand the caller on an unset future.
      task->promise.set_exception(std::current_exception());
    }
  }
}

QueryEngine::WorkerState* QueryEngine::AcquireSlot(const Job& job,
                                                   bool run_caller) {
  std::unique_lock<std::mutex> lock(slots_mu_);
  if (run_caller && run_closed_) {
    throw EngineStoppedError("QueryEngine::Run: engine is shut down");
  }
  if (!free_slots_.empty()) {
    WorkerState* slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (run_caller && options_.shed_on_full &&
      waiting_ >= options_.queue_capacity) {
    throw EngineOverloadedError(options_.queue_capacity);
  }
  SlotWaiter self;
  const auto pos = slot_waiters_.insert(slot_waiters_.end(), &self);
  ++waiting_;
  const auto done = [&] {
    return self.slot != nullptr || (run_caller && run_closed_);
  };
  if (job.cancel != nullptr && job.cancel->has_deadline()) {
    self.cv.wait_until(lock, job.cancel->deadline(), done);
  } else {
    self.cv.wait(lock, done);
  }
  --waiting_;
  if (self.slot == nullptr) slot_waiters_.erase(pos);  // Not handed one.
  if (run_caller && run_closed_) {
    if (self.slot != nullptr) ReturnSlotLocked(self.slot);
    slots_drained_.notify_all();
    throw EngineStoppedError("QueryEngine::Run: engine is shut down");
  }
  // The deadline passed while waiting: fail fast without running.
  if (self.slot == nullptr) {
    throw QueryAbortedError(QueryAbortedError::Reason::kDeadline);
  }
  return self.slot;
}

void QueryEngine::ReleaseSlot(WorkerState* slot) {
  std::lock_guard<std::mutex> lock(slots_mu_);
  ReturnSlotLocked(slot);
}

void QueryEngine::ReturnSlotLocked(WorkerState* slot) {
  if (slot_waiters_.empty()) {
    free_slots_.push_back(slot);
  } else {
    SlotWaiter* next = slot_waiters_.front();
    slot_waiters_.pop_front();
    next->slot = slot;
    // Notified under the lock: `next` lives on its waiter's stack.
    next->cv.notify_one();
  }
  if (run_closed_) slots_drained_.notify_all();
}

QueryResult QueryEngine::RunInSlot(const Job& job, bool run_caller) {
  WorkerState* const slot = AcquireSlot(job, run_caller);
  QueryContext& ctx = slot->ctx;
  const QueryEngine* const outer = current_engine;
  // Hands the slot back and clears the per-query context state on every
  // exit, so a throwing query cannot leak its slot or its token.
  struct SlotScope {
    QueryEngine* engine;
    WorkerState* slot;
    const QueryEngine* outer;
    ~SlotScope() {
      slot->ctx.set_cancel(nullptr);
      slot->ctx.set_plan_hints(nullptr);
      current_engine = outer;
      engine->ReleaseSlot(slot);
    }
  } scope{this, slot, outer};

  // A query whose deadline passed (or that was cancelled) while it waited
  // for a queue pop or a slot fails fast here without running — what lets
  // an overloaded engine shed stale work.
  if (job.cancel != nullptr) job.cancel->Check();
  current_engine = this;
  ctx.set_cancel(job.cancel.get());
  ctx.set_plan_hints(&job.hints);
  QueryResult result;
  result.ids = job.query->Run(job.area, ctx);
  result.stats = ctx.stats;
  // Ad-hoc fan-out legs (SubmitWith) stay out of the engine's
  // client-query statistics.
  if (job.method < 0) return result;

  const double latency_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() -
                                job.submitted)
                                .count();
  std::lock_guard<std::mutex> lock(slot->mu);
  ++slot->completed;
  if (slot->completed % slot->latency_stride == 0) {
    slot->latencies_ms.push_back(latency_ms);
    if (slot->latencies_ms.size() >= kMaxLatencySamples) {
      // Decimate: keep every other sample, record half as often.
      std::vector<double>& samples = slot->latencies_ms;
      for (std::size_t i = 1; 2 * i < samples.size(); ++i) {
        samples[i] = samples[2 * i];
      }
      samples.resize(samples.size() / 2);
      slot->latency_stride *= 2;
    }
  }
  if (slot->methods.size() <= static_cast<std::size_t>(job.method)) {
    slot->methods.resize(job.method + 1);
  }
  MethodEngineStats& m = slot->methods[job.method];
  if (m.name.empty()) m.name = std::string(job.query->Name());
  ++m.queries;
  m.totals.MergeFrom(result.stats);
  return result;
}

EngineStats QueryEngine::Stats() const {
  EngineStats out;
  std::vector<double> latencies;
  for (const std::unique_ptr<WorkerState>& state : states_) {
    std::lock_guard<std::mutex> lock(state->mu);
    out.queries_completed += state->completed;
    latencies.insert(latencies.end(), state->latencies_ms.begin(),
                     state->latencies_ms.end());
    if (out.methods.size() < state->methods.size()) {
      out.methods.resize(state->methods.size());
    }
    for (std::size_t i = 0; i < state->methods.size(); ++i) {
      const MethodEngineStats& m = state->methods[i];
      MethodEngineStats& agg = out.methods[i];
      if (agg.name.empty()) agg.name = m.name;
      agg.queries += m.queries;
      agg.totals.MergeFrom(m.totals);
    }
  }
  {
    std::lock_guard<std::mutex> lock(window_mu_);
    out.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - window_start_)
                      .count();
  }
  if (out.wall_ms > 0.0) {
    out.throughput_qps =
        static_cast<double>(out.queries_completed) / (out.wall_ms / 1000.0);
  }
  std::sort(latencies.begin(), latencies.end());
  out.latency_p50_ms = NearestRankPercentile(latencies, 0.50);
  out.latency_p95_ms = NearestRankPercentile(latencies, 0.95);
  out.latency_p99_ms = NearestRankPercentile(latencies, 0.99);
  return out;
}

void QueryEngine::ResetStats() {
  for (const std::unique_ptr<WorkerState>& state : states_) {
    std::lock_guard<std::mutex> lock(state->mu);
    state->completed = 0;
    state->latency_stride = 1;
    state->latencies_ms.clear();
    state->methods.clear();
  }
  std::lock_guard<std::mutex> lock(window_mu_);
  window_start_ = std::chrono::steady_clock::now();
}

}  // namespace vaq
