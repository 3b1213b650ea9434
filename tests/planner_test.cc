#include "planner/query_planner.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/dynamic_point_database.h"
#include "planner/cost_model.h"
#include "planner/planned_area_query.h"
#include "planner/query_plan.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

PlanFeatures MemoryFeatures() {
  PlanFeatures f;
  f.n = 100000;
  f.mbr_share = 0.1;
  f.poly_share = 0.08;
  f.io_ns_per_load = 0.0;
  f.paged = false;
  return f;
}

PlanFeatures IoFeatures() {
  PlanFeatures f = MemoryFeatures();
  f.io_ns_per_load = 1000.0;  // The crossover study's smallest latency.
  return f;
}

TEST(QueryPlannerTest, SeedModelPicksTraditionalInMemory) {
  // Raw in-memory timing: per-candidate CPU dominates and the window
  // filter's cheap per-candidate cost wins — the paper's Table I regime.
  const QueryPlanner planner;
  const QueryPlan plan = planner.Plan(MemoryFeatures(), PlanHints{});
  EXPECT_EQ(plan.method, DynamicMethod::kTraditional);
  EXPECT_TRUE(plan.reason & plan_reason::kSeedModel);
  EXPECT_FALSE(plan.reason & plan_reason::kLearnedModel);
  EXPECT_FALSE(plan.reason & plan_reason::kIoBound);
  EXPECT_GT(plan.predicted_cost_ns, 0.0);
  EXPECT_GT(plan.predicted_candidates, 0.0);
}

TEST(QueryPlannerTest, SeedModelPicksVoronoiUnderIo) {
  // Simulated disk: every candidate costs a fetch, so the Voronoi
  // method's smaller candidate set wins — the paper's crossover.
  const QueryPlanner planner;
  const QueryPlan plan = planner.Plan(IoFeatures(), PlanHints{});
  EXPECT_EQ(plan.method, DynamicMethod::kVoronoi);
  EXPECT_TRUE(plan.reason & plan_reason::kIoBound);
}

TEST(QueryPlannerTest, ForcedMethodShortCircuitsTheModel) {
  PlanHints hints;
  hints.force_method = DynamicMethod::kGridSweep;
  const QueryPlanner planner;
  const QueryPlan plan = planner.Plan(IoFeatures(), hints);
  EXPECT_EQ(plan.method, DynamicMethod::kGridSweep);
  EXPECT_TRUE(plan.reason & plan_reason::kForced);
  // Forcing still yields honest predictions for the forced method.
  EXPECT_GT(plan.predicted_cost_ns, 0.0);
  // Brute force, never an unforced arm, still runs when forced.
  hints.force_method = DynamicMethod::kBruteForce;
  const QueryPlan forced_brute = planner.Plan(MemoryFeatures(), hints);
  EXPECT_EQ(forced_brute.method, DynamicMethod::kBruteForce);
  EXPECT_TRUE(forced_brute.reason & plan_reason::kForced);
}

TEST(QueryPlannerTest, AutoChoosesOnlyTraditionalOrVoronoi) {
  // The unforced plan has two arms, the two sides of the paper's
  // crossover; no size, selectivity or IO regime reaches grid sweep or
  // brute force.
  const QueryPlanner planner;
  for (const std::size_t n : {0, 1, 100, 10000, 1000000}) {
    for (const double share : {1e-6, 0.01, 0.3, 1.0}) {
      for (int io = 0; io < 3; ++io) {
        PlanFeatures f;
        f.n = n;
        f.mbr_share = share;
        f.poly_share = share / 2.0;
        f.paged = io == 1;
        f.io_ns_per_load = io == 2 ? 1000.0 : 0.0;
        const QueryPlan plan = planner.Plan(f, PlanHints{});
        EXPECT_TRUE(plan.method == DynamicMethod::kTraditional ||
                    plan.method == DynamicMethod::kVoronoi)
            << "n=" << n << " share=" << share << " io=" << io
            << " method=" << MethodName(plan.method);
        EXPECT_FALSE(plan.reason &
                     (plan_reason::kForced | plan_reason::kLearnedModel));
      }
    }
  }
}

TEST(QueryPlannerTest, PlanIsAPureFunctionOfFeatures) {
  // Executions teach the planner nothing: after 200 planned queries the
  // same polygon over the same data plans bit-for-bit as before them.
  constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};
  Rng rng(2030);
  DynamicPointDatabase db(GenerateUniformPoints(5000, kUnit, &rng));
  PolygonSpec spec;
  spec.query_size_fraction = 0.1;
  const Polygon probe = GenerateQueryPolygon(spec, kUnit, &rng);
  const QueryPlan before = db.PlannedQuery()->PlanFor(probe);

  QueryContext ctx;
  for (int i = 0; i < 200; ++i) {
    spec.query_size_fraction = i % 2 == 0 ? 0.01 : 0.3;
    db.Query(i % 5 == 0 ? probe : GenerateQueryPolygon(spec, kUnit, &rng),
             ctx);
  }

  const QueryPlan after = db.PlannedQuery()->PlanFor(probe);
  EXPECT_EQ(after.method, before.method);
  EXPECT_EQ(after.reason, before.reason);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(after.predicted_cost_ns),
            std::bit_cast<std::uint64_t>(before.predicted_cost_ns));
}

TEST(QueryPlannerTest, ExpectedTestsTracksPredictionClampedToN) {
  const QueryPlanner planner;
  PlanFeatures f = MemoryFeatures();
  const QueryPlan plan = planner.Plan(f, PlanHints{});
  EXPECT_EQ(plan.expected_tests,
            static_cast<std::size_t>(plan.predicted_candidates));
  PlanHints brute;
  brute.force_method = DynamicMethod::kBruteForce;
  const QueryPlan all = planner.Plan(f, brute);
  EXPECT_LE(all.expected_tests, f.n);
}

TEST(QueryPlannerTest, ScatterOnlyWhenLegsAmortiseTheOverhead) {
  // Large sharded database, broad query: plenty of surviving shards and
  // leg cost far above the submit overhead -> scatter.
  PlanFeatures f = IoFeatures();
  f.n = 1000000;
  f.num_shards = 8;
  f.mbr_share = 0.5;
  f.poly_share = 0.4;
  const QueryPlanner planner;
  const QueryPlan fan = planner.Plan(f, PlanHints{});
  EXPECT_TRUE(fan.scatter);
  EXPECT_TRUE(fan.reason & plan_reason::kScatter);
  EXPECT_FALSE(fan.reason & plan_reason::kInline);

  // Tiny selective query: at most one shard survives the MBR prune, so
  // fanning out cannot win.
  PlanFeatures narrow = f;
  narrow.mbr_share = 0.01;
  narrow.poly_share = 0.008;
  const QueryPlan inl = planner.Plan(narrow, PlanHints{});
  EXPECT_FALSE(inl.scatter);
  EXPECT_TRUE(inl.reason & plan_reason::kInline);

  // The caller's opt-out pins the plan inline regardless of cost.
  PlanHints no_fan;
  no_fan.allow_scatter = false;
  const QueryPlan pinned = planner.Plan(f, no_fan);
  EXPECT_FALSE(pinned.scatter);
  EXPECT_TRUE(pinned.reason & plan_reason::kInline);

  // Unsharded plans carry neither fanout bit.
  const QueryPlan flat = planner.Plan(MemoryFeatures(), PlanHints{});
  EXPECT_FALSE(flat.reason &
               (plan_reason::kScatter | plan_reason::kInline));
}

TEST(CostModelTest, CandidateEstimatesMatchTheClosedForms) {
  const CostModel model;
  const PlanFeatures f = MemoryFeatures();
  EXPECT_DOUBLE_EQ(
      model.ExpectedCandidates(DynamicMethod::kTraditional, f),
      static_cast<double>(f.n) * f.mbr_share);
  EXPECT_DOUBLE_EQ(model.ExpectedCandidates(DynamicMethod::kGridSweep, f),
                   static_cast<double>(f.n) * f.mbr_share);
  EXPECT_DOUBLE_EQ(model.ExpectedCandidates(DynamicMethod::kBruteForce, f),
                   static_cast<double>(f.n));
  const double interior = static_cast<double>(f.n) * f.poly_share;
  EXPECT_DOUBLE_EQ(model.ExpectedCandidates(DynamicMethod::kVoronoi, f),
                   interior + model.shell_coeff * std::sqrt(interior));
}

TEST(CostModelTest, IoPerLoadReflectsBackendConfiguration) {
  const CostModel model;
  PlanFeatures f = MemoryFeatures();
  EXPECT_DOUBLE_EQ(model.IoNsPerLoad(f), 0.0);
  f.paged = true;
  EXPECT_DOUBLE_EQ(model.IoNsPerLoad(f), model.paged_load_ns);
  f.io_ns_per_load = 1000.0;
  EXPECT_GE(model.IoNsPerLoad(f), 1000.0);
}

}  // namespace
}  // namespace vaq
