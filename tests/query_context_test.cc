#include "core/query_context.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/dynamic_point_database.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "planner/planned_area_query.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

TEST(QueryContextTest, VisitEpochMarksAreScopedToOneEpoch) {
  QueryContext ctx;
  ctx.BeginVisitEpoch(10);
  EXPECT_FALSE(ctx.Visited(3));
  ctx.MarkVisited(3);
  EXPECT_TRUE(ctx.Visited(3));
  ctx.BeginVisitEpoch(10);
  EXPECT_FALSE(ctx.Visited(3));  // New epoch invalidates old marks.
}

TEST(QueryContextTest, ResizingResetsMarks) {
  QueryContext ctx;
  ctx.BeginVisitEpoch(10);
  ctx.MarkVisited(5);
  ctx.BeginVisitEpoch(20);
  EXPECT_FALSE(ctx.Visited(5));
  ctx.BeginVisitEpoch(10);
  EXPECT_FALSE(ctx.Visited(5));
}

TEST(QueryContextTest, EpochCounterWrapDoesNotAliasStaleMarks) {
  // Regression for the epoch-wrap bug: after the uint32 epoch counter
  // overflows, entries marked in earlier epochs (including the cleared
  // value 0) must not read as visited in the new epoch.
  QueryContext ctx;
  ctx.SetEpochForTest(0xFFFFFFFEu);

  ctx.BeginVisitEpoch(8);  // epoch -> 0xFFFFFFFF
  ctx.MarkVisited(2);
  EXPECT_TRUE(ctx.Visited(2));

  ctx.BeginVisitEpoch(8);  // epoch wraps -> cleared, restarts at 1
  EXPECT_FALSE(ctx.Visited(2)) << "stale mark aliased across the wrap";
  EXPECT_FALSE(ctx.Visited(0)) << "cleared entries must read unvisited";
  ctx.MarkVisited(4);
  EXPECT_TRUE(ctx.Visited(4));

  ctx.BeginVisitEpoch(8);  // And the epoch after the wrap behaves normally.
  EXPECT_FALSE(ctx.Visited(4));
}

TEST(QueryContextTest, VoronoiQueryCorrectAcrossEpochWrap) {
  // End-to-end version: a query executed right at the wrap must still
  // return the exact result set (the seed bug made every point look
  // already-visited, yielding an empty result).
  Rng rng(99);
  PointDatabase db(GenerateUniformPoints(500, kUnit, &rng));
  const VoronoiAreaQuery vaq(&db);
  const BruteForceAreaQuery brute(&db);

  PolygonSpec spec;
  spec.query_size_fraction = 0.1;
  const Polygon area = GenerateQueryPolygon(spec, kUnit, &rng);
  const std::vector<PointId> truth = brute.Run(area);

  QueryContext ctx;
  ctx.SetEpochForTest(0xFFFFFFFDu);
  for (int i = 0; i < 5; ++i) {  // Crosses 0xFFFFFFFF and the wrap to 1.
    EXPECT_EQ(vaq.Run(area, ctx), truth) << "query " << i << " at the wrap";
  }
}

TEST(QueryContextTest, ScratchBuffersComeBackCleared) {
  QueryContext ctx;
  ctx.ScratchQueue().push_back(7);
  ctx.ScratchCandidates().push_back(8);
  ctx.ScratchIndexStats().node_accesses = 9;
  EXPECT_TRUE(ctx.ScratchQueue().empty());
  EXPECT_TRUE(ctx.ScratchCandidates().empty());
  EXPECT_EQ(ctx.ScratchIndexStats().node_accesses, 0u);
}

TEST(QueryContextTest, PreparedMemoSurvivesDeathOfOriginalPolygon) {
  // Regression (use-after-free): `Prepared` memoizes on polygon value, so
  // an equal-valued polygon at a *different address* — whose original has
  // been destroyed, as happens when a QueryEngine task's polygon copy
  // dies between two identical submissions — gets the cached grid back.
  // The cached structure must be rebound to the caller's live polygon, or
  // the residual exact tests dereference the dead one (caught under the
  // ASan CI job).
  Rng rng(91);
  PolygonSpec spec;
  spec.query_size_fraction = 0.2;
  const Polygon original = GenerateQueryPolygon(spec, kUnit, &rng);

  QueryContext ctx;
  Rng prng(17);
  std::vector<bool> first_verdicts;
  {
    // Prepared over a temporary copy that dies at scope end.
    const Polygon doomed = original;
    const PreparedArea& prep = ctx.Prepared(doomed, 10000);
    for (int i = 0; i < 500; ++i) {
      first_verdicts.push_back(
          prep.Contains({prng.Uniform(0, 1), prng.Uniform(0, 1)}));
    }
  }
  // Memo hit with the original (equal value, different address): verdicts
  // must match both the first pass and the naive polygon tests.
  const Polygon alive = original;
  const PreparedArea& prep = ctx.Prepared(alive, 10000);
  Rng prng2(17);
  for (int i = 0; i < 500; ++i) {
    const Point p{prng2.Uniform(0, 1), prng2.Uniform(0, 1)};
    EXPECT_EQ(prep.Contains(p), first_verdicts[i]) << "point " << i;
    EXPECT_EQ(prep.Contains(p), alive.Contains(p)) << "point " << i;
  }
  EXPECT_EQ(&prep.polygon(), &alive);  // Rebound, not dangling.
}

TEST(QueryContextTest, PlannedQueryBuildsItsGridOnce) {
  // One planned query prepares its polygon once. The planner predicts the
  // candidate count before execution; a grid pre-built from that
  // prediction was rebuilt whenever the method's own count asked for a
  // finer one (traditional sizes from its exact post-filter count). The
  // dynamic delta pass must memo-hit the base pass's grid; brute force
  // builds none.
  Rng rng(23);
  DynamicPointDatabase db(GenerateUniformPoints(20000, kUnit, &rng));
  for (int i = 0; i < 64; ++i) {
    db.Insert({rng.Uniform(0, 1), rng.Uniform(0, 1)});  // Non-empty delta.
  }
  const PlannedAreaQuery& planned = *db.PlannedQuery();

  QueryContext ctx;
  QueryContext oracle_ctx;
  PlanHints oracle;
  oracle.force_method = DynamicMethod::kBruteForce;
  oracle.use_cache = false;
  Rng prng(5);
  int finer_than_plan = 0;
  for (const DynamicMethod method :
       {DynamicMethod::kTraditional, DynamicMethod::kVoronoi,
        DynamicMethod::kBruteForce}) {
    PlanHints hints;
    hints.force_method = method;
    hints.use_cache = false;
    for (int i = 0; i < 24; ++i) {
      PolygonSpec spec;
      spec.query_size_fraction = 0.01 * (1 + i % 4);
      const Polygon area = GenerateQueryPolygon(spec, kUnit, &prng);
      const QueryPlan plan = planned.PlanFor(area, hints);
      const std::uint64_t before = ctx.prepared_builds();
      const std::vector<PointId> ids = planned.RunPlanned(area, ctx, hints);
      const bool brute = method == DynamicMethod::kBruteForce;
      EXPECT_EQ(ctx.prepared_builds() - before, brute ? 0u : 1u)
          << "method " << static_cast<int>(method) << " query " << i;
      if (method == DynamicMethod::kTraditional &&
          PreparedArea::SuggestGridSide(area.size(), ctx.stats.candidates) >
              PreparedArea::SuggestGridSide(area.size(),
                                            plan.expected_tests)) {
        ++finer_than_plan;
      }
      EXPECT_EQ(ids, planned.RunPlanned(area, oracle_ctx, oracle));
    }
  }
  // The case that used to build twice: the measured count asks for a
  // finer grid than the plan's prediction.
  EXPECT_GT(finer_than_plan, 0);
}

TEST(QueryContextTest, SortIdsByKeyMatchesAComparisonSort) {
  // Keys from a random permutation, over key universes that need one to
  // three radix passes (the last one spans the whole 32-bit id space).
  Rng rng(31);
  QueryContext ctx;
  for (const std::size_t key_limit :
       {std::size_t{2}, std::size_t{200}, std::size_t{70000},
        std::size_t{1} << 24, std::size_t{1} << 32}) {
    for (const std::size_t n : {0, 1, 2, 5, 300, 3000}) {
      if (n > key_limit) continue;
      // Distinct keys below key_limit: a strided walk of the key space.
      const std::uint64_t stride = n > 0 ? key_limit / n : 1;
      std::vector<PointId> ids(n);
      std::vector<PointId> key_of(n);
      for (std::size_t i = 0; i < n; ++i) {
        ids[i] = static_cast<PointId>(i);
        key_of[i] = static_cast<PointId>(i * stride);
      }
      for (std::size_t i = n; i > 1; --i) {
        std::swap(key_of[i - 1], key_of[rng.Next() % i]);
      }
      std::vector<PointId> expected = ids;
      std::sort(expected.begin(), expected.end(),
                [&](PointId a, PointId b) { return key_of[a] < key_of[b]; });
      ctx.SortIdsByKey(ids, key_limit,
                       [&](PointId id) { return key_of[id]; });
      EXPECT_EQ(ids, expected) << "key_limit " << key_limit << " n " << n;
    }
  }
}

TEST(QueryContextTest, EmptyWindowBuildsNoGrid) {
  // Points only left of x = 0.5 and A right of it: the traditional
  // filter finds no candidate, so there is nothing to refine and no grid
  // to build.
  Rng rng(32);
  const PointDatabase db(
      GenerateUniformPoints(2000, Box{{0.0, 0.0}, {0.5, 1.0}}, &rng));
  const TraditionalAreaQuery query(&db);
  const Polygon area = GenerateQueryPolygon(
      PolygonSpec{}, Box{{0.6, 0.0}, {1.0, 1.0}}, &rng);
  QueryContext ctx;
  const std::uint64_t before = ctx.prepared_builds();
  EXPECT_TRUE(query.Run(area, ctx).empty());
  EXPECT_EQ(ctx.prepared_builds(), before);
  EXPECT_FALSE(ctx.HoldsPrepared(area));
  EXPECT_EQ(ctx.stats.candidates, 0u);
  EXPECT_EQ(ctx.stats.results, 0u);
  EXPECT_EQ(ctx.stats.candidate_hits, 0u);
  EXPECT_EQ(ctx.stats.visited_rejected, 0u);
  EXPECT_EQ(ctx.stats.geometry_loads, 0u);
  EXPECT_EQ(ctx.stats.kernel_kind, 0u);
}

}  // namespace
}  // namespace vaq
