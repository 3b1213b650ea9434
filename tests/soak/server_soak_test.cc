// Loopback differential soak of the TCP query service: one live server,
// 32 concurrent query clients, a churn mutator (INSERT/ERASE/COMPACT over
// the wire), and an in-process oracle.
//
// The plane is partitioned so the differential is exact *during* churn,
// not just at quiesce: clients query fixed polygons strictly inside
// region A (x < 0.5) while the mutator touches only region-B points
// (x > 0.5) — so every A-polygon answer is churn-invariant and must equal
// the oracle captured before the soak started, on every response, under
// any interleaving of mutations, compactions and cache hits.
//
// Zero-drop contract: every request gets a terminal response — including
// the ones that run while a COMPACT rebuilds (on their pinned snapshots)
// and the ones shed by admission control (a typed RETRY_LATER is a
// response; the client retries). Any transport failure or mismatch fails
// the test.
//
// This binary is also the TSan leg's workload (see ci.yml): 30+ threads
// hammering one engine pool and the COW snapshot path while compactions
// publish new bases is exactly the interleaving surface TSan wants to see.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_point_database.h"
#include "geometry/wkt.h"
#include "server/client.h"
#include "server/query_server.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr int kClients = 32;
constexpr int kQueriesPerClient = 50;
constexpr int kMutatorSteps = 240;
constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};
// Clients query strictly inside A; the mutator inserts strictly inside B.
constexpr Box kRegionA = Box{{0.02, 0.02}, {0.46, 0.98}};

std::vector<PointId> LiveBruteForce(const DynamicPointDatabase& db,
                                    const Polygon& area) {
  std::vector<PointId> expected;
  db.snapshot()->ForEachLive([&](PointId id, const Point& p) {
    if (area.Contains(p)) expected.push_back(id);
  });
  std::sort(expected.begin(), expected.end());
  return expected;
}

/// One query with bounded RETRY_LATER backoff. Returns true on success,
/// false when the retry budget ran out; transport errors propagate.
bool QueryWithRetry(QueryClient& client, const WireQueryRequest& req,
                    std::vector<PointId>* ids) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    try {
      *ids = client.Query(req).ids;
      return true;
    } catch (const ServerError& e) {
      if (e.code() != WireErrorCode::kRetryLater) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return false;
}

TEST(ServerSoakTest, ConcurrentClientsChurnAndDrainsStayExact) {
  Rng rng(20260807);
  DynamicPointDatabase::Options db_options;
  db_options.auto_compact = false;  // Compaction only over the wire.
  DynamicPointDatabase db(GenerateUniformPoints(4000, kUnit, &rng),
                          db_options);

  QueryServer::Options options;
  options.engine_queue_capacity = 64;
  QueryServer server(&db, options);
  server.Start();

  // Fixed A-region polygons and their oracle answers, captured before any
  // churn. Region partitioning makes these invariant for the whole soak.
  PolygonSpec spec;
  spec.query_size_fraction = 0.15;
  std::vector<Polygon> areas;
  std::vector<std::string> wkts;
  std::vector<std::vector<PointId>> oracle;
  {
    Rng prng(11);
    QueryContext ctx;
    PlanHints uncached;
    uncached.use_cache = false;
    for (int i = 0; i < 6; ++i) {
      areas.push_back(GenerateQueryPolygon(spec, kRegionA, &prng));
      wkts.push_back(ToWkt(areas.back()));
      oracle.push_back(db.Query(areas.back(), ctx, uncached));
      ASSERT_LE(areas.back().Bounds().max.x, 0.5)
          << "client polygons must stay inside region A";
    }
  }

  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> transport_failures{0};
  std::atomic<std::uint64_t> retry_exhausted{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<int> compacts_done{0};
  std::atomic<bool> mutator_done{false};

  std::thread mutator([&] {
    try {
      QueryClient client(server.port());
      Rng mrng(77);
      std::vector<PointId> mine;
      for (int step = 0; step < kMutatorSteps; ++step) {
        const std::int64_t dice = mrng.UniformInt(0, 9);
        if (dice < 6) {
          // Region-B inserts only: x in (0.55, 0.95).
          const WireMutationResult r =
              client.Insert(mrng.Uniform(0.55, 0.95),
                            mrng.Uniform(0.02, 0.98));
          if (r.ok) mine.push_back(static_cast<PointId>(r.value));
        } else if (dice < 8 && !mine.empty()) {
          const std::size_t victim = static_cast<std::size_t>(mrng.UniformInt(
              0, static_cast<std::int64_t>(mine.size()) - 1));
          ASSERT_TRUE(client.Erase(mine[victim]).ok);
          mine.erase(mine.begin() + victim);
        } else {
          // A rebuild while the clients query: they keep answering on
          // their pinned snapshots and must observe nothing but latency.
          ASSERT_TRUE(client.Compact().ok);
          compacts_done.fetch_add(1);
        }
      }
    } catch (const std::exception&) {
      transport_failures.fetch_add(1);
    }
    mutator_done.store(true);
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      try {
        QueryClient client(server.port());
        WireQueryRequest req;
        for (int i = 0; i < kQueriesPerClient; ++i) {
          const std::size_t which =
              static_cast<std::size_t>(t + i) % areas.size();
          req.wkt = wkts[which];
          std::vector<PointId> ids;
          if (!QueryWithRetry(client, req, &ids)) {
            retry_exhausted.fetch_add(1);
            continue;
          }
          answered.fetch_add(1);
          if (ids != oracle[which]) mismatches.fetch_add(1);
        }
      } catch (const std::exception&) {
        transport_failures.fetch_add(1);
      }
    });
  }

  mutator.join();
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(mismatches.load(), 0u)
      << "a client observed an answer differing from the oracle";
  EXPECT_EQ(transport_failures.load(), 0u)
      << "a request was dropped without a response";
  EXPECT_EQ(retry_exhausted.load(), 0u);
  EXPECT_EQ(answered.load(),
            static_cast<std::uint64_t>(kClients) * kQueriesPerClient)
      << "every query must be answered, compactions included";
  EXPECT_GT(compacts_done.load(), 0)
      << "the schedule must have exercised at least one compaction";

  // Server-side accounting agrees with the client-side counts.
  const QueryServer::Counters counters = server.counters();
  EXPECT_GE(counters.queries_ok, answered.load());
  EXPECT_EQ(counters.queries_rejected, 0u);
  EXPECT_EQ(counters.compacts_completed,
            static_cast<std::uint64_t>(compacts_done.load()));
  EXPECT_EQ(counters.connections_total,
            static_cast<std::uint64_t>(kClients) + 1);

  // Quiesced differential over *both* regions — including the churned one
  // — against brute force on the final snapshot, through the network path.
  {
    QueryClient client(server.port());
    Rng qrng(5);
    PolygonSpec bspec;
    bspec.query_size_fraction = 0.2;
    for (int i = 0; i < 4; ++i) {
      const Polygon area = GenerateQueryPolygon(bspec, kUnit, &qrng);
      WireQueryRequest req;
      req.wkt = ToWkt(area);
      req.use_cache = false;
      std::vector<PointId> ids;
      ASSERT_TRUE(QueryWithRetry(client, req, &ids));
      EXPECT_EQ(ids, LiveBruteForce(db, area))
          << "post-churn networked answer diverged from brute force";
    }
    const WireServerStats stats = client.Stats();
    EXPECT_GT(stats.queries_completed, 0u);
    EXPECT_GT(stats.latency_p50_ms, 0.0);
  }

  server.Stop();
}

TEST(ServerSoakTest, StopMidLoadDrainsWithTypedResponses) {
  // Shutdown while clients are mid-flight: every in-flight or queued
  // query resolves — success, kCancelled, or kShuttingDown — and no
  // client hangs. "Drain, not drop" at process exit.
  Rng rng(99);
  DynamicPointDatabase db(GenerateUniformPoints(20000, kUnit, &rng));
  auto server = std::make_unique<QueryServer>(&db, QueryServer::Options{});
  server->Start();
  const std::uint16_t port = server->port();

  const std::string wkt = ToWkt(
      Polygon{{{0.05, 0.05}, {0.95, 0.05}, {0.95, 0.95}, {0.05, 0.95}}});
  std::atomic<std::uint64_t> resolved{0};
  std::atomic<std::uint64_t> unexpected{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      try {
        QueryClient client(port);
        for (int i = 0; i < 1000; ++i) {
          try {
            client.Query(wkt);
            resolved.fetch_add(1);
          } catch (const ServerError& e) {
            resolved.fetch_add(1);
            if (e.code() != WireErrorCode::kCancelled &&
                e.code() != WireErrorCode::kShuttingDown &&
                e.code() != WireErrorCode::kRetryLater) {
              unexpected.fetch_add(1);
            }
          }
        }
      } catch (const std::exception&) {
        // Connection torn down after the drain finished delivering
        // responses: the expected end state for a client that keeps
        // sending after Stop().
      }
    });
  }

  // Let the load build, then stop the server under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server->Stop();
  for (std::thread& c : clients) c.join();

  EXPECT_GT(resolved.load(), 0u) << "no query ever resolved before the stop";
  EXPECT_EQ(unexpected.load(), 0u)
      << "shutdown produced an error code outside the drain contract";
}

}  // namespace
}  // namespace vaq
