// Regression tests for ROADMAP 4c: engine traffic must route through the
// planner. `QueryEngine::Submit`/`RunBatch` against a registered
// `DynamicPointDatabase::PlannedQuery()` runs `PlannedAreaQuery` —
// planning each query and using the result cache — instead of bypassing
// the planner the way registered fixed-method objects do. The planner is
// a pure function of the query's features, so repeated traffic must get
// repeated plans.

#include <bit>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_point_database.h"
#include "engine/query_engine.h"
#include "planner/planned_area_query.h"
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

TEST(EnginePlannerRoutingTest, RunBatchRoutesEveryQueryThroughThePlanner) {
  Rng rng(2026);
  DynamicPointDatabase db(GenerateUniformPoints(5000, kUnit, &rng));
  QueryEngine engine({.num_threads = 2});
  const int planned = engine.RegisterMethod(db.PlannedQuery());
  const std::vector<Polygon> areas = FixedAreas(13, 16, 0.1);

  // Warm batch: every query is a cache miss (distinct polygons, and
  // second-hit admission declines first-seen hashes). Each planned engine
  // query records exactly one method bit, and it is an unforced arm.
  const std::vector<QueryResult> first = engine.RunBatch(areas, planned);
  std::uint64_t method_union = 0;
  for (const QueryResult& r : first) {
    EXPECT_EQ(std::popcount(r.stats.plan_method), 1)
        << "engine batch traffic bypassed the planner (ROADMAP 4c)";
    EXPECT_EQ(r.stats.plan_method & MethodBit(DynamicMethod::kBruteForce),
              0u);
    EXPECT_EQ(r.stats.result_cache_misses, 1u);
    method_union |= r.stats.plan_method;
  }

  // Differential: the engine-planned answers equal the in-process path.
  QueryContext ctx;
  PlanHints uncached;
  uncached.use_cache = false;
  for (std::size_t i = 0; i < areas.size(); ++i) {
    EXPECT_EQ(first[i].ids, db.Query(areas[i], ctx, uncached));
  }

  // Second pass over the same polygons: still misses (the cache admits
  // each hash on this second offer). Third pass: the snapshot never
  // changed and every hash is resident, so every query is served from
  // the cache. Every pass plans each polygon identically.
  const std::vector<QueryResult> second = engine.RunBatch(areas, planned);
  const std::vector<QueryResult> third = engine.RunBatch(areas, planned);
  for (std::size_t i = 0; i < areas.size(); ++i) {
    EXPECT_EQ(second[i].stats.result_cache_misses, 1u);
    EXPECT_EQ(third[i].stats.result_cache_hits, 1u);
    EXPECT_TRUE(third[i].stats.plan_reason & plan_reason::kCacheHit);
    for (const QueryResult* r : {&second[i], &third[i]}) {
      EXPECT_EQ(r->stats.plan_method, first[i].stats.plan_method);
      EXPECT_EQ(r->stats.plan_reason & ~plan_reason::kCacheHit,
                first[i].stats.plan_reason);
      EXPECT_EQ(r->ids, first[i].ids);
    }
  }

  // The engine's per-method totals OR the same bits.
  const EngineStats stats = engine.Stats();
  ASSERT_EQ(stats.methods.size(), 1u);
  EXPECT_EQ(stats.methods[0].totals.plan_method, method_union);
  EXPECT_FALSE(stats.methods[0].totals.plan_reason &
               plan_reason::kLearnedModel);
}

TEST(EnginePlannerRoutingTest, SubmitHintsReachThePlan) {
  Rng rng(7);
  DynamicPointDatabase db(GenerateUniformPoints(3000, kUnit, &rng));
  QueryEngine engine({.num_threads = 1});
  const int planned = engine.RegisterMethod(db.PlannedQuery());
  const Polygon area = FixedAreas(3, 1, 0.15)[0];

  // A forced method travels through SubmitOptions::hints onto the worker
  // context: the plan records kForced and executes exactly that method.
  SubmitOptions opts;
  opts.hints.force_method = DynamicMethod::kBruteForce;
  opts.hints.use_cache = false;
  QueryResult forced = engine.Submit(area, planned, opts).get();
  EXPECT_TRUE(forced.stats.plan_reason & plan_reason::kForced);
  EXPECT_EQ(forced.stats.plan_method, MethodBit(DynamicMethod::kBruteForce));
  EXPECT_EQ(forced.stats.result_cache_hits + forced.stats.result_cache_misses,
            0u)
      << "use_cache=false must bypass the cache entirely";

  // Re-submitting the same forced query plans it the same way.
  QueryResult again = engine.Submit(area, planned, opts).get();
  EXPECT_EQ(again.stats.plan_method, forced.stats.plan_method);
  EXPECT_EQ(again.stats.plan_reason, forced.stats.plan_reason);
  EXPECT_EQ(again.ids, forced.ids);

  // Hints are per-submission, not sticky: a hint-less Submit plans
  // automatically (no kForced, never brute force) and uses the cache.
  QueryResult plain = engine.Submit(area, planned).get();
  EXPECT_FALSE(plain.stats.plan_reason & plan_reason::kForced);
  EXPECT_NE(plain.stats.plan_method, MethodBit(DynamicMethod::kBruteForce));
  EXPECT_EQ(plain.stats.result_cache_misses, 1u);
  EXPECT_EQ(plain.ids, forced.ids);
}

}  // namespace
}  // namespace vaq
