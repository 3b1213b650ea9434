#include "engine/query_engine.h"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

std::vector<Polygon> RandomPolygons(int count, double size_fraction,
                                    std::uint64_t seed) {
  Rng rng(seed);
  PolygonSpec spec;
  spec.query_size_fraction = size_fraction;
  std::vector<Polygon> areas;
  areas.reserve(count);
  for (int i = 0; i < count; ++i) {
    areas.push_back(GenerateQueryPolygon(spec, kUnit, &rng));
  }
  return areas;
}

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() {
    Rng rng(4242);
    db_ = std::make_unique<PointDatabase>(
        GenerateUniformPoints(5000, kUnit, &rng));
  }
  std::unique_ptr<PointDatabase> db_;
};

TEST_F(QueryEngineTest, ConcurrentBatchesMatchBruteForceGroundTruth) {
  // The concurrency regression of ISSUE 1: N threads x M random polygons
  // through the engine, every result checked against the sequential
  // brute-force scan.
  const VoronoiAreaQuery voronoi(db_.get());
  const TraditionalAreaQuery traditional(db_.get());
  const BruteForceAreaQuery brute(db_.get());

  QueryEngine engine({.num_threads = 4, .queue_capacity = 16});
  const int vaq_id = engine.RegisterMethod(&voronoi);
  const int trad_id = engine.RegisterMethod(&traditional);

  const std::vector<Polygon> areas = RandomPolygons(64, 0.03, 7);
  const std::vector<QueryResult> vaq_results = engine.RunBatch(areas, vaq_id);
  const std::vector<QueryResult> trad_results =
      engine.RunBatch(areas, trad_id);

  ASSERT_EQ(vaq_results.size(), areas.size());
  for (std::size_t i = 0; i < areas.size(); ++i) {
    const std::vector<PointId> truth = brute.Run(areas[i]);
    EXPECT_EQ(vaq_results[i].ids, truth) << "voronoi, polygon " << i;
    EXPECT_EQ(trad_results[i].ids, truth) << "traditional, polygon " << i;
  }
}

TEST_F(QueryEngineTest, BatchedResultsIdenticalToSequential) {
  // Determinism check: the 4-thread batch must return bit-identical result
  // sets, in input order, to a sequential single-context loop.
  const VoronoiAreaQuery voronoi(db_.get());
  const std::vector<Polygon> areas = RandomPolygons(48, 0.02, 13);

  QueryContext ctx;
  std::vector<std::vector<PointId>> sequential;
  sequential.reserve(areas.size());
  for (const Polygon& area : areas) sequential.push_back(voronoi.Run(area, ctx));

  QueryEngine engine({.num_threads = 4});
  engine.RegisterMethod(&voronoi);
  const std::vector<QueryResult> batched = engine.RunBatch(areas);

  ASSERT_EQ(batched.size(), sequential.size());
  for (std::size_t i = 0; i < areas.size(); ++i) {
    EXPECT_EQ(batched[i].ids, sequential[i]) << "polygon " << i;
  }
}

TEST_F(QueryEngineTest, SubmitResolvesFuturesWithStats) {
  const TraditionalAreaQuery traditional(db_.get());
  QueryEngine engine({.num_threads = 2});
  engine.RegisterMethod(&traditional);

  const std::vector<Polygon> areas = RandomPolygons(8, 0.05, 3);
  std::vector<std::future<QueryResult>> futures;
  for (const Polygon& area : areas) futures.push_back(engine.Submit(area));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    QueryResult r = futures[i].get();
    EXPECT_EQ(r.ids.size(), r.stats.results);
    EXPECT_GE(r.stats.candidates, r.stats.results);
    EXPECT_GT(r.stats.elapsed_ms, 0.0);
  }
}

TEST_F(QueryEngineTest, EngineStatsAggregatePerMethod) {
  const TraditionalAreaQuery traditional(db_.get());
  const VoronoiAreaQuery voronoi(db_.get());
  QueryEngine engine({.num_threads = 2});
  const int trad_id = engine.RegisterMethod(&traditional);
  const int vaq_id = engine.RegisterMethod(&voronoi);

  const std::vector<Polygon> areas = RandomPolygons(20, 0.02, 21);
  engine.RunBatch(areas, trad_id);
  engine.RunBatch(areas, vaq_id);

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.queries_completed, 2 * areas.size());
  EXPECT_GT(stats.throughput_qps, 0.0);
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p95_ms);
  EXPECT_LE(stats.latency_p95_ms, stats.latency_p99_ms);

  ASSERT_EQ(stats.methods.size(), 2u);
  EXPECT_EQ(stats.methods[trad_id].name, "traditional");
  EXPECT_EQ(stats.methods[vaq_id].name, "voronoi");
  EXPECT_EQ(stats.methods[trad_id].queries, areas.size());
  EXPECT_EQ(stats.methods[vaq_id].queries, areas.size());
  EXPECT_GT(stats.methods[trad_id].totals.geometry_loads, 0u);
  EXPECT_GT(stats.methods[vaq_id].totals.neighbor_expansions, 0u);
  // The whole point of the paper: fewer candidates on the Voronoi path.
  EXPECT_LT(stats.methods[vaq_id].totals.candidates,
            stats.methods[trad_id].totals.candidates);

  engine.ResetStats();
  const EngineStats cleared = engine.Stats();
  EXPECT_EQ(cleared.queries_completed, 0u);
  EXPECT_TRUE(cleared.methods.empty());
}

TEST_F(QueryEngineTest, ManyProducerThreadsShareOneEngine) {
  // MPMC path: several client threads submit concurrently against a small
  // queue (so producers block on backpressure) while 4 workers drain.
  const VoronoiAreaQuery voronoi(db_.get());
  const BruteForceAreaQuery brute(db_.get());
  QueryEngine engine({.num_threads = 4, .queue_capacity = 4});
  engine.RegisterMethod(&voronoi);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      const std::vector<Polygon> areas =
          RandomPolygons(kPerProducer, 0.02, 100 + t);
      for (const Polygon& area : areas) {
        const QueryResult r = engine.Submit(area).get();
        if (r.ids != brute.Run(area)) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.Stats().queries_completed,
            static_cast<std::uint64_t>(kProducers * kPerProducer));
}

TEST_F(QueryEngineTest, CellOverlapModeSafeUnderConcurrency) {
  // The exact dual-edge rule reads the shared triangulation's fans from
  // every thread at once; each thread builds its own query object, and
  // all per-query state lives in the thread's context.
  std::atomic<int> failures{0};
  const BruteForceAreaQuery brute(db_.get());
  const std::vector<Polygon> areas = RandomPolygons(8, 0.03, 31);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      VoronoiAreaQuery::Options options;
      options.expansion = VoronoiAreaQuery::ExpansionRule::kDualEdge;
      const VoronoiAreaQuery query(db_.get(), options);
      QueryContext ctx;
      for (const Polygon& area : areas) {
        if (query.Run(area, ctx) != brute.Run(area)) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace vaq
