// The result-cache hit path: a cached base pass is stored in ascending
// stable-id order, so a hit is finished by one sequential tombstone
// filter and remap plus a screened delta pass, with no sort. These tests
// pin what that order must survive (base erases, delta swap-removes,
// sharded gathers), that a screened-out delta builds no grid, and that
// the survivors' classification stays exact on both dispatch arms.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_area_query.h"
#include "core/dynamic_point_database.h"
#include "geometry/simd/polygon_kernel.h"
#include "geometry/simd/simd_dispatch.h"
#include "planner/planned_area_query.h"
#include "shard/sharded_database.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

template <typename Database>
std::vector<PointId> LiveBruteForce(const Database& db, const Polygon& area) {
  std::vector<PointId> expected;
  db.snapshot()->ForEachLive([&](PointId id, const Point& p) {
    if (area.Contains(p)) expected.push_back(id);
  });
  std::sort(expected.begin(), expected.end());
  return expected;
}

bool StrictlyAscending(const std::vector<PointId>& ids) {
  return std::adjacent_find(ids.begin(), ids.end(),
                            [](PointId a, PointId b) { return a >= b; }) ==
         ids.end();
}

/// Random points inside `area` (rejection-sampled from its MBR).
std::vector<Point> PointsInside(const Polygon& area, int count, Rng* rng) {
  const Box b = area.Bounds();
  std::vector<Point> points;
  while (static_cast<int>(points.size()) < count) {
    const Point p{rng->Uniform(b.min.x, b.max.x),
                  rng->Uniform(b.min.y, b.max.y)};
    if (area.Contains(p)) points.push_back(p);
  }
  return points;
}

/// Runs `area` through the planned path until it is served from the
/// cache: the first query is declined (second-hit admission), the second
/// stores, the third hits.
template <typename Database>
void Warm(const Database& db, const Polygon& area, QueryContext& ctx) {
  for (int i = 0; i < 2; ++i) db.Query(area, ctx);
}

/// Restores `VAQ_FORCE_SCALAR` and the cached dispatch arm on scope exit.
class ScopedDispatchArm {
 public:
  ScopedDispatchArm() {
    const char* v = std::getenv("VAQ_FORCE_SCALAR");
    had_ = v != nullptr;
    if (had_) saved_ = v;
  }
  ~ScopedDispatchArm() {
    if (had_) {
      ::setenv("VAQ_FORCE_SCALAR", saved_.c_str(), 1);
    } else {
      ::unsetenv("VAQ_FORCE_SCALAR");
    }
    simd::RefreshDispatchForTest();
  }
  void ForceScalar(bool scalar) {
    if (scalar) {
      ::setenv("VAQ_FORCE_SCALAR", "1", 1);
    } else {
      ::unsetenv("VAQ_FORCE_SCALAR");
    }
    simd::RefreshDispatchForTest();
  }

 private:
  bool had_ = false;
  std::string saved_;
};

TEST(CacheHitOrderTest, HitsStayAscendingAcrossBaseAndDeltaErases) {
  Rng rng(27);
  PolygonSpec spec;
  spec.query_size_fraction = 0.08;
  const Polygon area = GenerateQueryPolygon(spec, kUnit, &rng);
  const std::vector<Point> points = GenerateUniformPoints(4000, kUnit, &rng);

  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(points, options);
  ShardedDatabase::Options sharded_options;
  sharded_options.num_shards = 4;
  sharded_options.shard.auto_compact = false;
  ShardedDatabase sharded(points, sharded_options);

  QueryContext ctx;
  QueryContext sharded_ctx;
  PlanHints uncached;
  uncached.use_cache = false;
  const auto check = [&](const char* when) {
    const std::vector<PointId> expected = LiveBruteForce(db, area);
    ASSERT_EQ(expected, LiveBruteForce(sharded, area)) << when;

    const std::vector<PointId> hit = db.Query(area, ctx);
    EXPECT_EQ(ctx.stats.result_cache_hits, 1u) << when;
    EXPECT_TRUE(StrictlyAscending(hit)) << when;
    EXPECT_EQ(hit, expected) << when;
    EXPECT_EQ(hit, db.Query(area, ctx, uncached)) << when;
    for (const DynamicMethod method :
         {DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
          DynamicMethod::kBruteForce}) {
      const std::vector<PointId> fixed =
          RunDynamicSnapshotQuery(*db.snapshot(), method, area, ctx);
      EXPECT_TRUE(StrictlyAscending(fixed)) << when;
      EXPECT_EQ(fixed, expected) << when << " method "
                                 << static_cast<int>(method);
    }

    const std::vector<PointId> sharded_hit = sharded.Query(area, sharded_ctx);
    EXPECT_EQ(sharded_ctx.stats.result_cache_hits, 1u) << when;
    EXPECT_TRUE(StrictlyAscending(sharded_hit)) << when;
    EXPECT_EQ(sharded_hit, expected) << when;
  };

  // Delta points inside A, then the base pass cached.
  std::vector<PointId> delta_ids;
  for (const Point& p : PointsInside(area, 40, &rng)) {
    const auto id = db.Insert(p);
    ASSERT_TRUE(id.has_value());
    ASSERT_EQ(sharded.Insert(p), id);
    delta_ids.push_back(*id);
  }
  Warm(db, area, ctx);
  Warm(sharded, area, sharded_ctx);
  check("after inserts");

  // Base erases: hits must drop the tombstoned ids and stay ordered.
  const std::vector<PointId> base_hits = LiveBruteForce(db, area);
  for (std::size_t i = 0; i < base_hits.size() && base_hits[i] < 4000;
       i += 3) {
    ASSERT_TRUE(db.Erase(base_hits[i]));
    ASSERT_TRUE(sharded.Erase(base_hits[i]));
  }
  check("after base erases");

  // Delta erases from the front swap the tail into the freed slots, so
  // the buffer no longer lists the delta in stable-id order.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Erase(delta_ids[i]));
    ASSERT_TRUE(sharded.Erase(delta_ids[i]));
  }
  const auto snap = db.snapshot();
  bool buffer_out_of_order = false;
  for (std::size_t i = 1; i < snap->delta_size(); ++i) {
    buffer_out_of_order |= snap->DeltaStableId(i - 1) > snap->DeltaStableId(i);
  }
  ASSERT_TRUE(buffer_out_of_order);
  check("after delta swap-removes");
}

TEST(CacheHitOrderTest, DeltaOutsideTheMbrBuildsNoGridOnAHit) {
  // Base across the unit square, A in its lower-left quarter, and every
  // delta point right of A's MBR: the screen rejects them all. A second
  // hit adds a handful of delta points inside the MBR — one of them A's
  // leftmost vertex, on the MBR's edge — which `Polygon::Contains`
  // classifies more cheaply than a grid build.
  Rng rng(28);
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(GenerateUniformPoints(4000, kUnit, &rng), options);
  PolygonSpec spec;
  spec.query_size_fraction = 0.05;
  const Polygon area =
      GenerateQueryPolygon(spec, Box{{0.0, 0.0}, {0.5, 0.5}}, &rng);
  const Polygon other = GenerateQueryPolygon(spec, kUnit, &rng);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        db.Insert({rng.Uniform(0.6, 1.0), rng.Uniform(0.0, 1.0)}).has_value());
  }

  QueryContext ctx;
  Warm(db, area, ctx);
  // The context's grid now holds another polygon, so a delta pass that
  // classified through the kernel would have to rebuild it.
  db.Query(other, ctx);
  ASSERT_FALSE(ctx.HoldsPrepared(area));
  const std::uint64_t before = ctx.prepared_builds();
  const std::vector<PointId> hit = db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_hits, 1u);
  EXPECT_EQ(ctx.prepared_builds(), before);
  EXPECT_EQ(ctx.stats.delta_candidates, 200u);
  EXPECT_EQ(ctx.stats.kernel_kind, 0u);
  EXPECT_EQ(hit, LiveBruteForce(db, area));

  const Point leftmost = *std::min_element(
      area.vertices().begin(), area.vertices().end(),
      [](const Point& a, const Point& b) { return a.x < b.x; });
  std::vector<Point> inside = PointsInside(area, 4, &rng);
  inside.push_back(leftmost);
  std::vector<PointId> inserted;
  for (const Point& p : inside) {
    const auto id = db.Insert(p);
    ASSERT_TRUE(id.has_value());
    inserted.push_back(*id);
  }
  db.Query(other, ctx);
  const std::uint64_t before_survivors = ctx.prepared_builds();
  const std::vector<PointId> survivors_hit = db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_hits, 1u);
  EXPECT_EQ(ctx.prepared_builds(), before_survivors);
  EXPECT_EQ(ctx.stats.kernel_kind, 0u);
  EXPECT_EQ(survivors_hit, LiveBruteForce(db, area));
  EXPECT_TRUE(std::includes(survivors_hit.begin(), survivors_hit.end(),
                            inserted.begin(), inserted.end()));
}

TEST(CacheHitOrderTest, ManyDeltaSurvivorsMatchBruteForceOnBothArms) {
  // A large polygon with hundreds of delta points inside its MBR: the
  // hit builds a kernel sized to the survivors, on either arm.
  Rng rng(29);
  PolygonSpec spec;
  spec.vertices = 24;
  spec.query_size_fraction = 0.5;
  const Polygon area = GenerateQueryPolygon(spec, kUnit, &rng);
  const Polygon other = GenerateQueryPolygon(PolygonSpec{}, kUnit, &rng);
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(GenerateUniformPoints(3000, kUnit, &rng), options);
  for (int i = 0; i < 600; ++i) {
    db.Insert({rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)});
  }
  const std::vector<PointId> expected = LiveBruteForce(db, area);

  ScopedDispatchArm arm;
  for (const bool scalar : {true, false}) {
    arm.ForceScalar(scalar);
    QueryContext ctx;
    Warm(db, area, ctx);
    db.Query(other, ctx);  // Evict A from the context's grid.
    const std::uint64_t before = ctx.prepared_builds();
    const std::vector<PointId> hit = db.Query(area, ctx);
    EXPECT_EQ(ctx.stats.result_cache_hits, 1u);
    EXPECT_EQ(ctx.prepared_builds(), before + 1) << "scalar " << scalar;
    EXPECT_NE(ctx.stats.kernel_kind, 0u);
    EXPECT_EQ((ctx.stats.kernel_kind & PolygonKernel::kStatsAvx2) != 0,
              !scalar && simd::Avx2Available());
    EXPECT_EQ(hit, expected) << "scalar " << scalar;
    // Again with A still held: the held kernel classifies.
    EXPECT_EQ(db.Query(area, ctx), expected) << "scalar " << scalar;
    EXPECT_EQ(ctx.prepared_builds(), before + 1);
  }
}

}  // namespace
}  // namespace vaq
