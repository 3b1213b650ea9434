// End-to-end tests of the TCP query service over loopback: a live
// `QueryServer` on an ephemeral port, real sockets, the `QueryClient`
// library on the other end. Every response is checked against the
// in-process oracle (`DynamicPointDatabase::Query` on the same data), so
// these are differential tests of the whole stack — WKT parse, planner
// routing, engine submission, id streaming — not just of the plumbing.
// The heavy concurrent version (32+ clients, churn, drains) is the
// separate `vaq_server_soak` binary.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_point_database.h"
#include "geometry/wkt.h"
#include "pinned_inputs.h"
#include "server/client.h"
#include "server/query_server.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

std::vector<Polygon> FixedAreas(std::uint64_t seed, int count, double size) {
  Rng rng(seed);
  PolygonSpec spec;
  spec.query_size_fraction = size;
  std::vector<Polygon> areas;
  for (int i = 0; i < count; ++i) {
    areas.push_back(GenerateQueryPolygon(spec, kUnit, &rng));
  }
  return areas;
}

class ServerLoopbackTest : public ::testing::Test {
 protected:
  void StartServer(std::size_t points, QueryServer::Options options = {},
                   std::uint64_t seed = 20260807) {
    Rng rng(seed);
    db_ = std::make_unique<DynamicPointDatabase>(
        GenerateUniformPoints(points, kUnit, &rng));
    server_ = std::make_unique<QueryServer>(db_.get(), options);
    server_->Start();
  }

  std::vector<PointId> Oracle(const Polygon& area) {
    QueryContext ctx;
    PlanHints uncached;
    uncached.use_cache = false;
    return db_->Query(area, ctx, uncached);
  }

  std::unique_ptr<DynamicPointDatabase> db_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(ServerLoopbackTest, PingAndStopAreClean) {
  StartServer(100);
  QueryClient client(server_->port());
  EXPECT_TRUE(client.Ping());
  EXPECT_TRUE(client.Ping());  // The connection survives across requests.
  server_->Stop();
  server_->Stop();  // Idempotent.
}

TEST_F(ServerLoopbackTest, QueryMatchesInProcessOracleExactly) {
  StartServer(3000);
  QueryClient client(server_->port());
  for (const Polygon& area : FixedAreas(7, 6, 0.2)) {
    const QueryClient::QueryOutcome outcome = client.Query(ToWkt(area));
    EXPECT_EQ(outcome.ids, Oracle(area))
        << "networked result diverged from the in-process planned query";
    EXPECT_EQ(outcome.stats.results, outcome.ids.size());
    EXPECT_NE(outcome.stats.plan_method, 0u)
        << "summary must record the planned method";
  }
  const QueryServer::Counters c = server_->counters();
  EXPECT_EQ(c.queries_ok, 6u);
  EXPECT_EQ(c.queries_rejected, 0u);
}

TEST_F(ServerLoopbackTest, LargeResultStreamsAcrossManyFrames) {
  // A polygon covering most of the square returns thousands of ids —
  // several kResultIds frames — and the client must reassemble them in
  // order and cross-check the total against the summary.
  StartServer(5000);
  QueryClient client(server_->port());
  const Polygon area{
      {{0.01, 0.01}, {0.99, 0.01}, {0.99, 0.99}, {0.01, 0.99}}};
  const QueryClient::QueryOutcome outcome = client.Query(ToWkt(area));
  EXPECT_GT(outcome.ids.size(), kIdsPerFrame)
      << "test polygon must exercise the multi-frame path";
  EXPECT_EQ(outcome.ids, Oracle(area));
}

TEST_F(ServerLoopbackTest, HintsTravelTheWire) {
  StartServer(2000);
  QueryClient client(server_->port());
  const Polygon area = FixedAreas(3, 1, 0.15)[0];

  // Forcing each method must execute that method (plan_reason carries
  // kForced, plan_method the method's bit) and agree on the answer.
  const std::vector<PointId> expected = Oracle(area);
  for (const DynamicMethod m :
       {DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
        DynamicMethod::kGridSweep, DynamicMethod::kBruteForce}) {
    WireQueryRequest req;
    req.wkt = ToWkt(area);
    req.force_method = m;
    req.use_cache = false;
    const QueryClient::QueryOutcome outcome = client.Query(req);
    EXPECT_EQ(outcome.ids, expected) << "forced " << MethodName(m);
    EXPECT_TRUE(outcome.stats.plan_reason & plan_reason::kForced)
        << "forced " << MethodName(m) << " must record kForced";
    EXPECT_EQ(outcome.stats.plan_method, MethodBit(m))
        << "forced " << MethodName(m) << " must execute exactly that method";
  }

  // Cache behaviour over the wire: with second-hit admission the first
  // two identical queries miss (decline, then store), the third hits.
  WireQueryRequest req;
  req.wkt = ToWkt(area);
  client.Query(req);
  client.Query(req);
  const QueryClient::QueryOutcome hit = client.Query(req);
  EXPECT_EQ(hit.stats.result_cache_hits, 1u)
      << "third identical cached query must be served from the cache";
  EXPECT_EQ(hit.ids, expected);

  // And use_cache=false bypasses it.
  req.use_cache = false;
  const QueryClient::QueryOutcome fresh = client.Query(req);
  EXPECT_EQ(fresh.stats.result_cache_hits, 0u);
  EXPECT_EQ(fresh.stats.result_cache_misses, 0u);
  EXPECT_EQ(fresh.ids, expected);
}

TEST_F(ServerLoopbackTest, ThinSpikeStarForcedVoronoiIsExact) {
  // The served Voronoi method must find the star's 21 points; the paper's
  // segment rule finds none (see `pinned::kThinSpikeStarWkt`).
  StartServer(2000, {}, 2000);
  QueryClient client(server_->port());
  WireQueryRequest req;
  req.wkt = pinned::kThinSpikeStarWkt;
  req.use_cache = false;
  req.force_method = DynamicMethod::kBruteForce;
  const std::vector<PointId> truth = client.Query(req).ids;
  EXPECT_EQ(truth.size(), 21u);
  req.force_method = DynamicMethod::kVoronoi;
  const QueryClient::QueryOutcome outcome = client.Query(req);
  EXPECT_EQ(outcome.stats.plan_method, MethodBit(DynamicMethod::kVoronoi));
  EXPECT_EQ(outcome.ids, truth);
}

TEST_F(ServerLoopbackTest, MutationsChangeAnswers) {
  StartServer(500);
  QueryClient client(server_->port());
  const Polygon area{{{0.2, 0.2}, {0.8, 0.2}, {0.8, 0.8}, {0.2, 0.8}}};
  const std::vector<PointId> before = client.Query(ToWkt(area)).ids;

  const WireMutationResult ins = client.Insert(0.5, 0.5);
  ASSERT_TRUE(ins.ok);
  std::vector<PointId> after = client.Query(ToWkt(area)).ids;
  EXPECT_EQ(after.size(), before.size() + 1);
  EXPECT_TRUE(std::find(after.begin(), after.end(),
                        static_cast<PointId>(ins.value)) != after.end());
  // Duplicate insert is rejected, not an error.
  EXPECT_FALSE(client.Insert(0.5, 0.5).ok);

  ASSERT_TRUE(client.Erase(static_cast<PointId>(ins.value)).ok);
  EXPECT_FALSE(client.Erase(static_cast<PointId>(ins.value)).ok);
  EXPECT_EQ(client.Query(ToWkt(area)).ids, before);

  // COMPACT folds the delta and preserves ids and answers.
  ASSERT_TRUE(client.Insert(1.5, 1.5).ok);  // Outside the area.
  ASSERT_TRUE(client.Compact().ok);
  EXPECT_EQ(client.Query(ToWkt(area)).ids, before);
  EXPECT_EQ(server_->counters().compacts_completed, 1u);
}

TEST_F(ServerLoopbackTest, BadWktGetsTypedErrorAndConnectionSurvives) {
  StartServer(200);
  QueryClient client(server_->port());
  const struct {
    const char* wkt;
  } kCases[] = {
      {"POINT (1 2)"},
      {"POLYGON (("},
      {"POLYGON ((0 0, 1 0, nope 1, 0 0))"},
      {"POLYGON ((0 0, 1 0, 0 1))"},  // Unclosed ring.
      {"POLYGON ((0 0, 1 0, 0 1, 0 0)) extra"},
  };
  for (const auto& c : kCases) {
    try {
      client.Query(c.wkt);
      FAIL() << "malformed WKT accepted: " << c.wkt;
    } catch (const ServerError& e) {
      EXPECT_EQ(e.code(), WireErrorCode::kBadWkt) << c.wkt;
    }
  }
  // The connection is still usable: payload errors never kill it.
  EXPECT_TRUE(client.Ping());
  EXPECT_EQ(server_->counters().queries_rejected, 5u);
}

TEST_F(ServerLoopbackTest, MalformedFramesGetBadRequest) {
  StartServer(200);

  {
    // Well-formed header, hostile payload: typed kBadRequest, connection
    // stays up.
    QueryClient client(server_->port());
    std::vector<std::uint8_t> frame;
    AppendFrame(frame, Opcode::kErase, std::vector<std::uint8_t>(3));
    const std::vector<std::uint8_t> response = client.RoundTripRaw(frame);
    const FrameHeader fh =
        DecodeFrameHeader({response.data(), kFrameHeaderBytes});
    ASSERT_EQ(fh.opcode, Opcode::kError);
    const WireError e = DecodeErrorPayload(
        {response.data() + kFrameHeaderBytes, fh.payload_len});
    EXPECT_EQ(e.code, WireErrorCode::kBadRequest);
    EXPECT_TRUE(client.Ping());
  }
  {
    // Malformed header (response opcode in a request): one kBadRequest,
    // then the server closes — framing is lost.
    QueryClient client(server_->port());
    std::vector<std::uint8_t> frame;
    AppendFrame(frame, Opcode::kError, {});
    const std::vector<std::uint8_t> response = client.RoundTripRaw(frame);
    const FrameHeader fh =
        DecodeFrameHeader({response.data(), kFrameHeaderBytes});
    EXPECT_EQ(fh.opcode, Opcode::kError);
    EXPECT_THROW(client.Ping(), std::runtime_error);
  }
  {
    // Bad magic: the peer is not speaking VQRY; the server closes
    // without answering.
    QueryClient client(server_->port());
    const std::uint8_t junk[16] = {'G', 'E', 'T', ' ', '/', ' ', 'H', 'T',
                                   'T', 'P', '/', '1', '.', '1', '\r', '\n'};
    EXPECT_THROW(client.RoundTripRaw(junk), std::runtime_error);
  }
}

TEST_F(ServerLoopbackTest, OversizedFrameIsRejectedBeforeAllocation) {
  StartServer(200);
  QueryClient client(server_->port());
  // Hand-build a header claiming a 4 GiB payload; the server must answer
  // kBadRequest off the fixed 12 bytes without ever allocating it.
  std::uint8_t header[kFrameHeaderBytes] = {'V', 'Q', 'R', 'Y',
                                            kProtocolVersion,
                                            static_cast<std::uint8_t>(
                                                Opcode::kQuery),
                                            0, 0, 0xFF, 0xFF, 0xFF, 0xFF};
  const std::vector<std::uint8_t> response = client.RoundTripRaw(header);
  const FrameHeader fh =
      DecodeFrameHeader({response.data(), kFrameHeaderBytes});
  ASSERT_EQ(fh.opcode, Opcode::kError);
  EXPECT_EQ(DecodeErrorPayload(
                {response.data() + kFrameHeaderBytes, fh.payload_len})
                .code,
            WireErrorCode::kBadRequest);
}

TEST_F(ServerLoopbackTest, TinyDeadlineAbortsTyped) {
  StartServer(3000);
  QueryClient client(server_->port());
  WireQueryRequest req;
  req.wkt = ToWkt(FixedAreas(5, 1, 0.3)[0]);
  req.deadline_ms = 1e-4;  // Expired by the time the worker dequeues it.
  try {
    client.Query(req);
    FAIL() << "a 100ns deadline must abort";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kDeadline);
  }
  EXPECT_EQ(server_->counters().queries_aborted, 1u);
  // The next query (no deadline) is unaffected.
  req.deadline_ms = 0.0;
  EXPECT_EQ(client.Query(req).ids, Oracle(FixedAreas(5, 1, 0.3)[0]));
}

TEST_F(ServerLoopbackTest, OverloadShedsWithRetryLater) {
  // One slot, one waiter allowed, and slow-ish queries from background
  // connections: a foreground burst must observe at least one typed
  // kRetryLater — admission control as backpressure, never a hang or a
  // silent drop. Each shed response is itself the retry protocol: the
  // test retries and must eventually succeed. Every query bypasses the
  // result cache so it really is slow: a cached repeat holds the slot
  // for a few microseconds, and whether the burst ever finds the slot
  // busy and a waiter queued is then up to the scheduler.
  QueryServer::Options options;
  options.engine_threads = 1;
  options.engine_queue_capacity = 1;
  StartServer(20000, options);
  const std::string wkt =
      ToWkt(Polygon{{{0.02, 0.02}, {0.98, 0.02}, {0.98, 0.98}, {0.02, 0.98}}});
  WireQueryRequest slow;
  slow.wkt = wkt;
  slow.use_cache = false;

  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (int t = 0; t < 3; ++t) {
    load.emplace_back([&] {
      QueryClient c(server_->port());
      while (!stop.load()) {
        try {
          c.Query(slow);
        } catch (const ServerError& e) {
          ASSERT_EQ(e.code(), WireErrorCode::kRetryLater);
        }
      }
    });
  }

  QueryClient client(server_->port());
  bool shed = false;
  bool succeeded = false;
  for (int attempt = 0; attempt < 400 && !(shed && succeeded); ++attempt) {
    try {
      client.Query(slow);
      succeeded = true;
    } catch (const ServerError& e) {
      ASSERT_EQ(e.code(), WireErrorCode::kRetryLater)
          << "overload must surface as kRetryLater, nothing else";
      shed = true;
    }
  }
  stop.store(true);
  for (std::thread& t : load) t.join();
  EXPECT_TRUE(shed) << "the burst never hit admission control";
  EXPECT_TRUE(succeeded) << "retrying after a shed must eventually succeed";
  EXPECT_GT(server_->counters().queries_shed, 0u);
}

TEST_F(ServerLoopbackTest, StatsOpcodeReportsEngineAndServerCounters) {
  StartServer(1000);
  QueryClient client(server_->port());
  const std::string wkt = ToWkt(FixedAreas(9, 1, 0.2)[0]);
  for (int i = 0; i < 5; ++i) client.Query(wkt);

  const WireServerStats s = client.Stats();
  EXPECT_EQ(s.queries_ok, 5u);
  EXPECT_EQ(s.queries_completed, 5u) << "engine window counts client queries";
  EXPECT_GT(s.latency_p50_ms, 0.0);
  EXPECT_GE(s.latency_p99_ms, s.latency_p50_ms);
  EXPECT_EQ(s.connections_active, 1u);
  EXPECT_EQ(s.client_requests, 6u);  // 5 queries + this STATS.
  EXPECT_EQ(s.client_errors, 0u);

  // A second connection sees shared server counters but its own slice.
  QueryClient other(server_->port());
  const WireServerStats s2 = other.Stats();
  EXPECT_EQ(s2.queries_ok, 5u);
  EXPECT_EQ(s2.connections_total, 2u);
  EXPECT_EQ(s2.client_requests, 1u);
}

TEST_F(ServerLoopbackTest, StopWithIdleConnectionsDoesNotHang) {
  StartServer(200);
  QueryClient a(server_->port());
  QueryClient b(server_->port());
  EXPECT_TRUE(a.Ping());
  server_->Stop();  // Joins both connection threads blocked in read().
  EXPECT_THROW(a.Ping(), std::runtime_error);
}

}  // namespace
}  // namespace vaq
