// Failure-domain hardening (DESIGN.md §12): the deterministic fault
// layer, the storage retry/backoff/quarantine policy, engine deadlines,
// cancellation and shutdown semantics, and the sharded all-or-nothing
// failure contract. The permanent-vs-transient error classification is
// pinned here by exact `io_retries` counts: open-time `PageFileError`
// kinds must never be retried, injected read faults must be retried
// exactly as many times as the policy says.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/cancel.h"
#include "core/point_database.h"
#include "engine/query_engine.h"
#include "fault/fault.h"
#include "shard/sharded_area_query.h"
#include "shard/sharded_database.h"
#include "storage/page_format.h"
#include "storage/page_store.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

// ---------------------------------------------------------------------------
// FaultSpec parsing
// ---------------------------------------------------------------------------

TEST(FaultSpecTest, ParsesFullSpec) {
  const FaultSpec spec = FaultSpec::Parse(
      "seed=42,read_error=0.01,corrupt=0.005,slow=0.02,spike_ms=5,"
      "fetch_spike=0.1,retries=7,backoff_ms=0.5,backoff_max_ms=8");
  EXPECT_TRUE(spec.enabled);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_DOUBLE_EQ(spec.read_error_rate, 0.01);
  EXPECT_DOUBLE_EQ(spec.corrupt_rate, 0.005);
  EXPECT_DOUBLE_EQ(spec.slow_page_rate, 0.02);
  EXPECT_DOUBLE_EQ(spec.spike_ms, 5.0);
  EXPECT_DOUBLE_EQ(spec.fetch_spike_rate, 0.1);
  EXPECT_EQ(spec.max_read_retries, 7);
  EXPECT_DOUBLE_EQ(spec.backoff_initial_ms, 0.5);
  EXPECT_DOUBLE_EQ(spec.backoff_max_ms, 8.0);
}

TEST(FaultSpecTest, EmptyStringParsesDisabled) {
  EXPECT_FALSE(FaultSpec::Parse("").enabled);
}

TEST(FaultSpecTest, RejectsMalformedInput) {
  EXPECT_THROW(FaultSpec::Parse("bogus_key=1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("read_error"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("read_error=abc"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("read_error=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("read_error=-0.1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("retries=-1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("torn=0.5"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FaultInjector determinism
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, DecisionsAreDeterministicAndSiteIndependent) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 7;
  spec.read_error_rate = 0.5;
  spec.corrupt_rate = 0.5;
  const FaultInjector a(spec);
  const FaultInjector b(spec);
  int read_faults = 0;
  int divergences = 0;
  for (std::uint64_t page = 0; page < 512; ++page) {
    // Same spec, same inputs => same answer, whoever asks.
    ASSERT_EQ(a.ReadFails(page, 0), b.ReadFails(page, 0));
    ASSERT_EQ(a.CorruptsFrame(page, 3), b.CorruptsFrame(page, 3));
    read_faults += a.ReadFails(page, 0) ? 1 : 0;
    // Independent per-site streams: read and corrupt decisions must not
    // be the same bit for the same (page, attempt).
    divergences += a.ReadFails(page, 0) != a.CorruptsFrame(page, 0) ? 1 : 0;
  }
  // rate=0.5 over 512 pages: a degenerate all-or-nothing stream would be
  // a hash bug. Loose bounds — this is a sanity check, not a chi-square.
  EXPECT_GT(read_faults, 512 / 4);
  EXPECT_LT(read_faults, 512 * 3 / 4);
  EXPECT_GT(divergences, 512 / 8);
}

TEST(FaultInjectorTest, RateEndpointsAreExact) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 9;
  spec.read_error_rate = 0.0;
  FaultInjector never(spec);
  spec.read_error_rate = 1.0;
  FaultInjector always(spec);
  for (std::uint64_t page = 0; page < 256; ++page) {
    ASSERT_FALSE(never.ReadFails(page, 0));
    ASSERT_TRUE(always.ReadFails(page, 0));
  }
}

TEST(FaultInjectorTest, BackoffDoublesAndCaps) {
  FaultSpec spec;
  spec.enabled = true;
  spec.backoff_initial_ms = 1.0;
  spec.backoff_max_ms = 5.0;
  const FaultInjector inj(spec);
  EXPECT_DOUBLE_EQ(inj.BackoffMs(1), 1.0);
  EXPECT_DOUBLE_EQ(inj.BackoffMs(2), 2.0);
  EXPECT_DOUBLE_EQ(inj.BackoffMs(3), 4.0);
  EXPECT_DOUBLE_EQ(inj.BackoffMs(4), 5.0);  // Capped.
  EXPECT_DOUBLE_EQ(inj.BackoffMs(9), 5.0);
}

// ---------------------------------------------------------------------------
// PageStore retry / quarantine under injected faults
// ---------------------------------------------------------------------------

class FaultedPageStoreTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kPageSize = 512;
  static constexpr std::size_t kPpp = 32;
  static constexpr std::size_t kPages = 64;

  void SetUp() override {
    const std::size_t count = kPages * kPpp;
    std::vector<Point> points(count);
    for (std::size_t i = 0; i < count; ++i) {
      points[i] = {static_cast<double>(i), -static_cast<double>(i)};
    }
    path_ = (std::filesystem::temp_directory_path() /
             ("vaq_fault_store_test_" + std::to_string(::getpid()) + ".vpag"))
                .string();
    WritePageFile(path_, points, kPageSize);
  }

  void TearDown() override { std::filesystem::remove(path_); }

  std::unique_ptr<PageStore> OpenFaulted(const FaultSpec& fault,
                                         std::size_t cache_pages = 8) {
    PageStore::Options options;
    options.cache_pages = cache_pages;
    options.fault = fault;
    return PageStore::Open(path_, options);
  }

  static PointId IdOnPage(std::size_t page) {
    return static_cast<PointId>(page * kPpp);
  }

  std::string path_;
};

TEST_F(FaultedPageStoreTest, TransientReadFaultRetriedWithExactCount) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 17;
  spec.read_error_rate = 0.5;
  spec.max_read_retries = 3;
  const FaultInjector inj(spec);
  // The injector is a pure hash, so the test can find a page whose first
  // attempt faults and whose second succeeds — and then assert the store
  // spent *exactly one* retry on it.
  std::int64_t page = -1;
  for (std::size_t p = 0; p < kPages; ++p) {
    if (inj.ReadFails(p, 0) && !inj.ReadFails(p, 1)) {
      page = static_cast<std::int64_t>(p);
      break;
    }
  }
  ASSERT_GE(page, 0) << "no page with fail-then-succeed pattern; seed bug?";

  const auto store = OpenFaulted(spec);
  QueryStats stats;
  const Point pt = store->GetPoint(IdOnPage(page), &stats);
  EXPECT_EQ(pt.x, static_cast<double>(IdOnPage(page)));
  EXPECT_EQ(stats.io_retries, 1u);
  EXPECT_EQ(stats.pages_quarantined, 0u);
  EXPECT_EQ(store->counters().io_retries, 1u);

  // A clean page (no fault on attempt 0) must cost zero retries.
  std::int64_t clean = -1;
  for (std::size_t p = 0; p < kPages; ++p) {
    if (!inj.ReadFails(p, 0)) {
      clean = static_cast<std::int64_t>(p);
      break;
    }
  }
  ASSERT_GE(clean, 0);
  QueryStats clean_stats;
  store->GetPoint(IdOnPage(clean), &clean_stats);
  EXPECT_EQ(clean_stats.io_retries, 0u);
}

TEST_F(FaultedPageStoreTest, ExhaustedRetriesThrowTypedReadError) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 1;
  spec.read_error_rate = 1.0;  // Every attempt of every page faults.
  spec.max_read_retries = 2;
  const auto store = OpenFaulted(spec);
  QueryStats stats;
  try {
    store->GetPoint(IdOnPage(5), &stats);
    FAIL() << "expected PageReadError";
  } catch (const PageReadError& e) {
    EXPECT_EQ(e.kind(), PageReadError::Kind::kReadFailed);
    EXPECT_EQ(e.page(), 5u);
    EXPECT_EQ(e.offset(),
              kPageFileHeaderBytes + 5ull * kPageSize);
    EXPECT_EQ(e.attempts(), 3);  // 1 initial + 2 retries, all faulted.
  }
  EXPECT_EQ(stats.io_retries, 2u);  // Exactly the retry budget.
  // The store survives: a different spec-free access path still works —
  // the failure never crashes the process or poisons the cache.
  EXPECT_EQ(store->counters().pages_quarantined, 0u);
}

TEST_F(FaultedPageStoreTest, TwoConsecutiveChecksumFailuresQuarantine) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 3;
  spec.corrupt_rate = 1.0;  // Every delivery corrupt: strike, strike, out.
  spec.max_read_retries = 5;
  const auto store = OpenFaulted(spec);
  QueryStats stats;
  try {
    store->GetPoint(IdOnPage(2), &stats);
    FAIL() << "expected PageReadError";
  } catch (const PageReadError& e) {
    EXPECT_EQ(e.kind(), PageReadError::Kind::kQuarantined);
    EXPECT_EQ(e.page(), 2u);
  }
  EXPECT_EQ(stats.pages_quarantined, 1u);
  EXPECT_EQ(stats.io_retries, 1u);  // The second (striking-out) attempt.
  EXPECT_TRUE(store->Quarantined(2));
  EXPECT_FALSE(store->Quarantined(3));
  EXPECT_EQ(store->counters().pages_quarantined, 1u);

  // Every further access fails fast with the same typed error and no
  // fresh read attempts or quarantine recounts.
  QueryStats again;
  EXPECT_THROW(store->GetPoint(IdOnPage(2), &again), PageReadError);
  EXPECT_EQ(again.io_retries, 0u);
  EXPECT_EQ(again.pages_quarantined, 0u);
  EXPECT_EQ(store->counters().pages_quarantined, 1u);

  // The quarantine is per page, not global: page 7 is still un-flagged
  // until its own strikes accrue (under corrupt_rate=1 they immediately
  // do, bumping the lifetime counter to 2).
  QueryStats other;
  EXPECT_THROW(store->GetPoint(IdOnPage(7), &other), PageReadError);
  EXPECT_EQ(other.pages_quarantined, 1u);
  EXPECT_TRUE(store->Quarantined(7));
  EXPECT_EQ(store->counters().pages_quarantined, 2u);
}

TEST_F(FaultedPageStoreTest, SingleChecksumFailureRetriesAndRecovers) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 23;
  spec.corrupt_rate = 0.5;
  spec.max_read_retries = 3;
  const FaultInjector inj(spec);
  std::int64_t page = -1;
  for (std::size_t p = 0; p < kPages; ++p) {
    if (inj.CorruptsFrame(p, 0) && !inj.CorruptsFrame(p, 1)) {
      page = static_cast<std::int64_t>(p);
      break;
    }
  }
  ASSERT_GE(page, 0);
  const auto store = OpenFaulted(spec);
  QueryStats stats;
  const Point pt = store->GetPoint(IdOnPage(page), &stats);
  // One corrupt delivery (first strike), one clean retry: exact
  // coordinates, one retry charged, no quarantine — and the clean read
  // reset the strike counter.
  EXPECT_EQ(pt.x, static_cast<double>(IdOnPage(page)));
  EXPECT_EQ(stats.io_retries, 1u);
  EXPECT_EQ(stats.pages_quarantined, 0u);
  EXPECT_FALSE(store->Quarantined(page));
}

TEST_F(FaultedPageStoreTest, FailedLoadDoesNotLeakCacheFrames) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 1;
  spec.read_error_rate = 1.0;
  spec.max_read_retries = 0;
  // Cache of 2 frames, hammered with failing loads: if a failed load
  // leaked its frame, the third failure would exhaust the cache and turn
  // the typed read error into the no-evictable-frame logic error.
  const auto store = OpenFaulted(spec, /*cache_pages=*/2);
  for (int round = 0; round < 8; ++round) {
    EXPECT_THROW(store->GetPoint(IdOnPage(round % kPages), nullptr),
                 PageReadError);
  }
}

TEST_F(FaultedPageStoreTest, PrefetchCannotBypassReadFaults) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 1;
  spec.read_error_rate = 1.0;
  spec.max_read_retries = 0;
  // A prefetch hint must not fill frames behind the fault policy: the
  // gather that follows still misses, and every miss fails.
  const auto store = OpenFaulted(spec);
  std::vector<PointId> ids;
  for (std::size_t p = 0; p < 4; ++p) ids.push_back(IdOnPage(p));
  store->Prefetch(ids.data(), ids.size());
  for (std::size_t p = 0; p < 4; ++p) EXPECT_FALSE(store->Cached(p));
  std::vector<double> xs(ids.size()), ys(ids.size());
  EXPECT_THROW(
      store->Gather(ids.data(), ids.size(), xs.data(), ys.data(), nullptr),
      PageReadError);
}

TEST_F(FaultedPageStoreTest, DisabledSpecIsByteIdenticalToNoFaultStore) {
  // The null-injector path: a disabled spec must not change a single
  // counter or coordinate relative to a store with no fault field set.
  PageStore::Options plain_options;
  plain_options.cache_pages = 4;
  const auto plain = PageStore::Open(path_, plain_options);
  const auto faulted = OpenFaulted(FaultSpec{}, 4);
  QueryStats a, b;
  for (std::size_t p = 0; p < kPages; ++p) {
    const Point pa = plain->GetPoint(IdOnPage(p), &a);
    const Point pb = faulted->GetPoint(IdOnPage(p), &b);
    ASSERT_EQ(pa.x, pb.x);
    ASSERT_EQ(pa.y, pb.y);
  }
  EXPECT_EQ(a.pages_touched, b.pages_touched);
  EXPECT_EQ(a.page_cache_misses, b.page_cache_misses);
  EXPECT_EQ(b.io_retries, 0u);
  EXPECT_EQ(b.pages_quarantined, 0u);
}

// ---------------------------------------------------------------------------
// Permanent vs transient classification: every open-time PageFileError
// kind is permanent — the store never opens, so no retry can ever be
// spent on it (io_retries is structurally 0). Transient faults above are
// the only retried class, pinned by their exact counts.
// ---------------------------------------------------------------------------

class ErrorClassificationTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("vaq_fault_class_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    paths_.push_back((dir / name).string());
    return paths_.back();
  }

  void TearDown() override {
    for (const std::string& p : paths_) std::filesystem::remove(p);
  }

  std::string WriteValid(std::size_t count = 100) {
    std::vector<Point> points(count);
    for (std::size_t i = 0; i < count; ++i) {
      points[i] = {static_cast<double>(i), static_cast<double>(i) + 0.5};
    }
    const std::string path = TempPath("valid.vpag");
    WritePageFile(path, points, 512);
    return path;
  }

  void Corrupt(const std::string& path,
               const std::function<void(std::vector<char>&)>& mutate) {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    mutate(bytes);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Opens with an aggressive retry budget armed; a permanent error must
  /// throw the typed PageFileError without consuming any of it.
  PageFileError::Kind OpenPermanentKind(const std::string& path) {
    PageStore::Options options;
    options.fault.enabled = true;
    options.fault.max_read_retries = 5;
    options.fault.backoff_initial_ms = 0.0;
    try {
      PageStore::Open(path, options);
    } catch (const PageFileError& e) {
      return e.kind();
    }
    ADD_FAILURE() << "expected PageFileError for " << path;
    return PageFileError::Kind::kIo;
  }

 private:
  std::vector<std::string> paths_;
};

TEST_F(ErrorClassificationTest, OpenTimeErrorsArePermanentNeverRetried) {
  {
    const std::string path = WriteValid();
    Corrupt(path, [](std::vector<char>& b) { b[0] ^= 0xFF; });
    EXPECT_EQ(OpenPermanentKind(path), PageFileError::Kind::kBadMagic);
  }
  {
    const std::string path = WriteValid();
    Corrupt(path, [](std::vector<char>& b) { b.resize(b.size() - 7); });
    EXPECT_EQ(OpenPermanentKind(path), PageFileError::Kind::kTruncated);
  }
  {
    const std::string path = WriteValid();
    // Flip a payload byte: open-time whole-payload checksum mismatch.
    Corrupt(path, [](std::vector<char>& b) { b[kPageFileHeaderBytes] ^= 1; });
    EXPECT_EQ(OpenPermanentKind(path),
              PageFileError::Kind::kChecksumMismatch);
  }
  {
    // Nonexistent file: kIo, permanent.
    EXPECT_EQ(OpenPermanentKind(TempPath("missing.vpag")),
              PageFileError::Kind::kIo);
  }
}

// ---------------------------------------------------------------------------
// Engine: shutdown, admission control, deadlines, cancellation
// ---------------------------------------------------------------------------

/// A query that parks inside Run until released (or aborted via the
/// context's cancel token) — the deterministic way to hold workers busy
/// and queues full.
class GateQuery final : public AreaQuery {
 public:
  std::vector<PointId> Run(const Polygon&,
                           QueryContext& ctx) const override {
    started_.fetch_add(1);
    while (!release_.load()) {
      ctx.CheckCancelled();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return {};
  }
  std::string_view Name() const override { return "gate"; }

  void WaitStarted(int n) const {
    while (started_.load() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  int started() const { return started_.load(); }
  void Release() const { release_.store(true); }

 private:
  mutable std::atomic<int> started_{0};
  mutable std::atomic<bool> release_{false};
};

Polygon UnitTriangle() {
  return Polygon({{0.0, 0.0}, {1.0, 0.0}, {0.5, 1.0}});
}

TEST(EngineShutdownTest, SubmitAfterStopThrowsTypedError) {
  const GateQuery gate;
  QueryEngine engine({.num_threads = 1, .queue_capacity = 4});
  const int method = engine.RegisterMethod(&gate);
  gate.Release();  // Nothing should ever block in this test.
  engine.Stop();
  engine.Stop();  // Idempotent.
  EXPECT_THROW(engine.Submit(UnitTriangle(), method), EngineStoppedError);
  EXPECT_THROW(engine.SubmitWith(&gate, UnitTriangle()),
               EngineStoppedError);
}

TEST(EngineShutdownTest, QueuedWorkDrainsOnStop) {
  // Close-then-drain: everything accepted before Stop() resolves.
  Rng rng(99);
  const PointDatabase db(GenerateUniformPoints(500, kUnit, &rng));
  const BruteForceAreaQuery brute(&db);
  QueryEngine engine({.num_threads = 2, .queue_capacity = 32});
  const int method = engine.RegisterMethod(&brute);
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(engine.Submit(UnitTriangle(), method));
  }
  engine.Stop();
  for (std::future<QueryResult>& f : futures) {
    EXPECT_NO_THROW(f.get());
  }
}

TEST(EngineShutdownTest, SubmitDuringShutdownRaceIsTypedOrServed) {
  // The race regression (run under TSan in CI): threads hammering Submit
  // while the engine stops. Every call must either return a future that
  // resolves, or throw EngineStoppedError — never hang, never strand a
  // future, never crash.
  Rng rng(100);
  const PointDatabase db(GenerateUniformPoints(200, kUnit, &rng));
  const BruteForceAreaQuery brute(&db);
  for (int round = 0; round < 8; ++round) {
    QueryEngine engine({.num_threads = 2, .queue_capacity = 8});
    const int method = engine.RegisterMethod(&brute);
    std::atomic<bool> go{false};
    std::atomic<int> served{0}, refused{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 4; ++t) {
      submitters.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < 32; ++i) {
          try {
            std::future<QueryResult> f =
                engine.Submit(UnitTriangle(), method);
            f.get();  // Accepted => must resolve even mid-shutdown.
            served.fetch_add(1);
          } catch (const EngineStoppedError&) {
            refused.fetch_add(1);
          }
        }
      });
    }
    go.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
    engine.Stop();
    for (std::thread& t : submitters) t.join();
    EXPECT_EQ(served.load() + refused.load(), 4 * 32);
  }
}

TEST(EngineOverloadTest, ShedModeThrowsOverloadedWhenQueueFull) {
  const GateQuery gate;
  QueryEngine engine(
      {.num_threads = 1, .queue_capacity = 1, .shed_on_full = true});
  const int method = engine.RegisterMethod(&gate);
  // Worker busy on q1, q2 fills the queue, q3 must be shed.
  std::future<QueryResult> q1 = engine.Submit(UnitTriangle(), method);
  gate.WaitStarted(1);
  std::future<QueryResult> q2 = engine.Submit(UnitTriangle(), method);
  try {
    engine.Submit(UnitTriangle(), method);
    FAIL() << "expected EngineOverloadedError";
  } catch (const EngineOverloadedError& e) {
    EXPECT_EQ(e.capacity(), 1u);
  }
  gate.Release();
  EXPECT_NO_THROW(q1.get());
  EXPECT_NO_THROW(q2.get());
}

TEST(EngineDeadlineTest, QueuedQueryPastDeadlineFailsFastWithoutRunning) {
  const GateQuery gate;
  const GateQuery queued_gate;  // Separate started_ counter.
  QueryEngine engine({.num_threads = 1, .queue_capacity = 4});
  engine.RegisterMethod(&gate);
  const int queued_method = engine.RegisterMethod(&queued_gate);
  std::future<QueryResult> blocker = engine.Submit(UnitTriangle(), 0);
  gate.WaitStarted(1);
  // Deadline burns down while the task sits in the queue behind the
  // blocker; by release time it is long dead.
  SubmitOptions doomed_opts;
  doomed_opts.deadline_ms = 5.0;
  std::future<QueryResult> doomed =
      engine.Submit(UnitTriangle(), queued_method, doomed_opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.Release();
  queued_gate.Release();
  try {
    doomed.get();
    FAIL() << "expected QueryAbortedError";
  } catch (const QueryAbortedError& e) {
    EXPECT_EQ(e.reason(), QueryAbortedError::Reason::kDeadline);
  }
  EXPECT_NO_THROW(blocker.get());
  // The fast path never entered the doomed query's Run.
  EXPECT_EQ(queued_gate.started(), 0);
}

TEST(EngineDeadlineTest, RunningQueryObservesDeadlineMidFlight) {
  const GateQuery gate;  // Never released: only the deadline can end it.
  QueryEngine engine({.num_threads = 1});
  const int method = engine.RegisterMethod(&gate);
  SubmitOptions deadline_opts;
  deadline_opts.deadline_ms = 20.0;
  std::future<QueryResult> f =
      engine.Submit(UnitTriangle(), method, deadline_opts);
  try {
    f.get();
    FAIL() << "expected QueryAbortedError";
  } catch (const QueryAbortedError& e) {
    EXPECT_EQ(e.reason(), QueryAbortedError::Reason::kDeadline);
  }
}

TEST(EngineCancelTest, ExternalTokenCancelsRunningQuery) {
  const GateQuery gate;  // Never released: only Cancel() can end it.
  QueryEngine engine({.num_threads = 1});
  const int method = engine.RegisterMethod(&gate);
  auto token = std::make_shared<CancelToken>();
  std::future<QueryResult> f =
      engine.Submit(UnitTriangle(), method, {.cancel = token});
  gate.WaitStarted(1);
  token->Cancel();
  try {
    f.get();
    FAIL() << "expected QueryAbortedError";
  } catch (const QueryAbortedError& e) {
    EXPECT_EQ(e.reason(), QueryAbortedError::Reason::kCancelled);
  }
}

TEST(EngineCancelTest, KernelsPollTokenAtBlockBoundaries) {
  // Direct (engine-free) check of the O(block) abort bound: a
  // pre-expired token must abort each method's refine/scan loop.
  Rng rng(7);
  const PointDatabase db(GenerateUniformPoints(3000, kUnit, &rng));
  const BruteForceAreaQuery brute(&db);
  CancelToken token;
  token.Cancel();
  QueryContext ctx;
  ctx.set_cancel(&token);
  EXPECT_THROW(brute.Run(UnitTriangle(), ctx), QueryAbortedError);
  ctx.set_cancel(nullptr);
  EXPECT_NO_THROW(brute.Run(UnitTriangle(), ctx));
}

// ---------------------------------------------------------------------------
// Engine: synchronous Run on the caller's thread in one of the slots
// ---------------------------------------------------------------------------

/// Thrown by `ThrowingQuery`; deliberately not a `std::runtime_error`, so
/// it cannot be mistaken for the engine's own typed errors.
struct QueryBoom : std::exception {};

class ThrowingQuery final : public AreaQuery {
 public:
  std::vector<PointId> Run(const Polygon&, QueryContext&) const override {
    throw QueryBoom();
  }
  std::string_view Name() const override { return "boom"; }
};

/// Records the most queries it ever saw inside `Run` at once.
class ConcurrencyProbeQuery final : public AreaQuery {
 public:
  std::vector<PointId> Run(const Polygon&, QueryContext&) const override {
    const int now = running_.fetch_add(1) + 1;
    int seen = max_.load();
    while (now > seen && !max_.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    running_.fetch_sub(1);
    return {};
  }
  std::string_view Name() const override { return "probe"; }
  int max_concurrent() const { return max_.load(); }

 private:
  mutable std::atomic<int> running_{0};
  mutable std::atomic<int> max_{0};
};

TEST(EngineDeadlineTest, RunSlotWaitCountsAgainstDeadline) {
  const GateQuery gate;
  const GateQuery waiting_gate;  // Separate started_ counter.
  QueryEngine engine({.num_threads = 1});
  const int holder = engine.RegisterMethod(&gate);
  const int waiter = engine.RegisterMethod(&waiting_gate);
  std::thread hold([&] { engine.Run(UnitTriangle(), holder); });
  gate.WaitStarted(1);
  // The only slot is held: the deadline burns down in the slot wait and
  // the query must never start.
  SubmitOptions opts;
  opts.deadline_ms = 20.0;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    engine.Run(UnitTriangle(), waiter, opts);
    FAIL() << "expected QueryAbortedError";
  } catch (const QueryAbortedError& e) {
    EXPECT_EQ(e.reason(), QueryAbortedError::Reason::kDeadline);
  }
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(20));
  EXPECT_EQ(waiting_gate.started(), 0);
  gate.Release();
  hold.join();
}

TEST(EngineShutdownTest, StopReleasesRunCallersWaitingForASlot) {
  const GateQuery gate;
  QueryEngine engine({.num_threads = 1});
  const int method = engine.RegisterMethod(&gate);
  std::atomic<bool> holder_ok{false};
  std::thread hold([&] {
    engine.Run(UnitTriangle(), method);
    holder_ok.store(true);
  });
  gate.WaitStarted(1);
  std::atomic<bool> waiter_stopped{false};
  std::thread wait([&] {
    try {
      engine.Run(UnitTriangle(), method);
    } catch (const EngineStoppedError&) {
      waiter_stopped.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::atomic<bool> stop_returned{false};
  std::thread stop([&] {
    engine.Stop();
    stop_returned.store(true);
  });
  // The waiter is released typed while the slot is still held...
  wait.join();
  EXPECT_TRUE(waiter_stopped.load());
  EXPECT_EQ(gate.started(), 1) << "the released waiter must not run";
  // ...but Stop() returns only once the executing Run has finished.
  EXPECT_FALSE(stop_returned.load());
  gate.Release();
  stop.join();
  hold.join();
  EXPECT_TRUE(holder_ok.load());
  EXPECT_THROW(engine.Run(UnitTriangle(), method), EngineStoppedError);
}

TEST(EngineOverloadTest, ThrowingRunGivesItsSlotBack) {
  Rng rng(31);
  const PointDatabase db(GenerateUniformPoints(300, kUnit, &rng));
  const BruteForceAreaQuery brute(&db);
  const ThrowingQuery boom;
  // Zero waiters allowed: a leaked slot would surface as an immediate
  // EngineOverloadedError, not a hang.
  QueryEngine engine(
      {.num_threads = 2, .queue_capacity = 0, .shed_on_full = true});
  const int good = engine.RegisterMethod(&brute);
  const int bad = engine.RegisterMethod(&boom);
  for (int i = 0; i <= engine.num_threads(); ++i) {
    EXPECT_THROW(engine.Run(UnitTriangle(), bad), QueryBoom);
  }
  for (int i = 0; i <= engine.num_threads(); ++i) {
    EXPECT_NO_THROW(engine.Run(UnitTriangle(), good));
  }
  EXPECT_EQ(engine.Stats().queries_completed,
            static_cast<std::uint64_t>(engine.num_threads() + 1));
}

TEST(EngineOverloadTest, RunShedsWhenSlotsBusyAndWaitersAtCapacity) {
  const GateQuery gate;
  QueryEngine engine(
      {.num_threads = 1, .queue_capacity = 1, .shed_on_full = true});
  const int method = engine.RegisterMethod(&gate);
  std::thread hold([&] { engine.Run(UnitTriangle(), method); });
  gate.WaitStarted(1);
  std::thread wait([&] { engine.Run(UnitTriangle(), method); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // One slot busy, one caller waiting = capacity: the next is shed. The
  // deadline only bounds a wrong wait; it must not be what ends the call.
  SubmitOptions bounded;
  bounded.deadline_ms = 5000.0;
  try {
    engine.Run(UnitTriangle(), method, bounded);
    FAIL() << "expected EngineOverloadedError";
  } catch (const EngineOverloadedError& e) {
    EXPECT_EQ(e.capacity(), 1u);
  }
  gate.Release();
  hold.join();
  wait.join();
  EXPECT_EQ(gate.started(), 2);
}

TEST(EngineOverloadTest, RunAndSubmitNeverExceedTheSlotCount) {
  const ConcurrencyProbeQuery probe;
  QueryEngine engine({.num_threads = 2});
  const int method = engine.RegisterMethod(&probe);
  std::vector<std::thread> callers;
  for (int t = 0; t < 6; ++t) {
    callers.emplace_back([&] {
      for (int i = 0; i < 20; ++i) engine.Run(UnitTriangle(), method);
    });
  }
  // Pool traffic competes for the same slots.
  const std::vector<Polygon> batch(40, UnitTriangle());
  engine.RunBatch(batch, method);
  for (std::thread& t : callers) t.join();
  EXPECT_LE(probe.max_concurrent(), engine.num_threads());
  EXPECT_GE(probe.max_concurrent(), 1);
  EXPECT_EQ(engine.Stats().queries_completed, 6u * 20u + 40u);
}

TEST(EngineOverloadTest, RunAndSubmitRecordIntoOneStatsWindow) {
  Rng rng(32);
  const PointDatabase db(GenerateUniformPoints(2000, kUnit, &rng));
  const BruteForceAreaQuery brute(&db);
  QueryEngine engine({.num_threads = 2});
  const int method = engine.RegisterMethod(&brute);
  std::uint64_t results = 0;
  for (int i = 0; i < 5; ++i) {
    results += engine.Run(UnitTriangle(), method).ids.size();
  }
  for (int i = 0; i < 7; ++i) {
    results += engine.Submit(UnitTriangle(), method).get().ids.size();
  }
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_completed, 12u);
  ASSERT_EQ(stats.methods.size(), 1u);
  EXPECT_EQ(stats.methods[0].name, "brute-force");
  EXPECT_EQ(stats.methods[0].queries, 12u);
  EXPECT_EQ(stats.methods[0].totals.results, results);
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p99_ms);
  engine.ResetStats();
  EXPECT_EQ(engine.Stats().queries_completed, 0u);
  engine.Run(UnitTriangle(), method);
  EXPECT_EQ(engine.Stats().queries_completed, 1u);
}

// ---------------------------------------------------------------------------
// VAQ_FAULT_SPEC environment plumbing
// ---------------------------------------------------------------------------

TEST(FaultEnvTest, EnvSpecArmsPagedDatabases) {
  Rng rng(55);
  std::vector<Point> points = GenerateUniformPoints(1500, kUnit, &rng);
  ASSERT_EQ(::setenv("VAQ_FAULT_SPEC", "seed=1,read_error=1,retries=0", 1),
            0);
  PointDatabase::Options options;
  options.storage.backend = StorageBackend::kMmap;
  options.storage.cache_pages = 4;
  options.storage.page_size_bytes = 512;
  const PointDatabase db(points, options);
  ::unsetenv("VAQ_FAULT_SPEC");
  ASSERT_EQ(db.storage_backend(), StorageBackend::kMmap);
  // Every read attempt faults and the budget is zero: the very first
  // fetch must surface the typed error — proof the env spec reached the
  // store without any code-level configuration.
  QueryStats stats;
  EXPECT_THROW(db.FetchPoint(0, &stats), PageReadError);

  // And with the variable unset, the same construction is fault-free.
  const PointDatabase clean_db(points, options);
  EXPECT_NO_THROW(clean_db.FetchPoint(0, &stats));
}

// ---------------------------------------------------------------------------
// Sharded all-or-nothing failures
// ---------------------------------------------------------------------------

class ShardFailureTest : public ::testing::Test {
 protected:
  ShardFailureTest() {
    Rng rng(321);
    points_ = GenerateUniformPoints(2400, kUnit, &rng);
    oracle_ = std::make_unique<PointDatabase>(points_);
    PolygonSpec spec;
    spec.query_size_fraction = 0.25;
    area_ = GenerateQueryPolygon(spec, kUnit, &rng);
  }

  ShardedDatabase::Options FaultyShardOptions(const FaultSpec& fault) const {
    ShardedDatabase::Options options;
    options.num_shards = 8;
    options.shard.base.storage.backend = StorageBackend::kMmap;
    options.shard.base.storage.cache_pages = 2;
    options.shard.base.storage.page_size_bytes = 256;
    options.shard.base.storage.fault = fault;
    return options;
  }

  std::vector<PointId> OracleIds(QueryContext& ctx) const {
    const BruteForceAreaQuery brute(oracle_.get());
    std::vector<PointId> out;
    for (const PointId internal : brute.Run(area_, ctx)) {
      out.push_back(oracle_->OriginalId(internal));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<Point> points_;
  std::unique_ptr<PointDatabase> oracle_;
  Polygon area_;
};

TEST_F(ShardFailureTest, AllLegsFailingThrowsTypedError) {
  FaultSpec fault;
  fault.enabled = true;
  fault.seed = 2;
  fault.read_error_rate = 1.0;  // Every page read of every shard fails.
  fault.max_read_retries = 1;
  const ShardedDatabase sharded(points_, FaultyShardOptions(fault));
  QueryEngine scatter({.num_threads = 2});
  for (QueryEngine* engine : {static_cast<QueryEngine*>(nullptr), &scatter}) {
    QueryContext ctx;
    EXPECT_THROW(RunShardedSnapshotQuery(*sharded.snapshot(),
                                         DynamicMethod::kBruteForce, area_,
                                         ctx, engine),
                 PageReadError)
        << (engine == nullptr ? "inline" : "scattered");
  }
}

TEST_F(ShardFailureTest, SomeLegsFailingNeverReturnsASubset) {
  // A corrupt rate calibrated so *some* shards lose a page and others
  // stay clean (each shard streams ~19 pages, so at 2% per attempt a
  // shard fails with p ~ 0.3; which ones is deterministic in the seed).
  // The surviving shards' hits are a subset of the truth; the query must
  // throw rather than return them.
  FaultSpec fault;
  fault.enabled = true;
  fault.seed = 11;
  fault.corrupt_rate = 0.02;
  fault.max_read_retries = 0;
  const ShardedDatabase sharded(points_, FaultyShardOptions(fault));
  QueryContext oracle_ctx;
  const std::vector<PointId> truth = OracleIds(oracle_ctx);
  QueryEngine scatter({.num_threads = 2});

  int threw = 0;
  for (const DynamicMethod method :
       {DynamicMethod::kBruteForce, DynamicMethod::kTraditional}) {
    for (QueryEngine* engine :
         {static_cast<QueryEngine*>(nullptr), &scatter}) {
      QueryContext ctx;
      try {
        EXPECT_EQ(RunShardedSnapshotQuery(*sharded.snapshot(), method, area_,
                                          ctx, engine),
                  truth)
            << "method=" << MethodName(method)
            << (engine == nullptr ? " inline" : " scattered");
      } catch (const PageReadError&) {
        ++threw;
      }
    }
  }
  EXPECT_GT(threw, 0) << "the fault seed no longer fails any shard leg";
}

TEST_F(ShardFailureTest, ParentCancellationAbortsWholeQuery) {
  const ShardedDatabase sharded(points_, FaultyShardOptions(FaultSpec{}));
  QueryEngine scatter({.num_threads = 2});
  CancelToken token;
  token.Cancel();
  for (QueryEngine* engine : {static_cast<QueryEngine*>(nullptr), &scatter}) {
    QueryContext ctx;
    ctx.set_cancel(&token);
    EXPECT_THROW(RunShardedSnapshotQuery(*sharded.snapshot(),
                                         DynamicMethod::kBruteForce, area_,
                                         ctx, engine),
                 QueryAbortedError)
        << (engine == nullptr ? "inline" : "scattered");
  }
}

}  // namespace
}  // namespace vaq
