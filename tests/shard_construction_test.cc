// Malformed- and boundary-input corpus for sharded construction: the
// sharded layer must enforce the same input contract as the monolithic
// database — including the case only it can get wrong, a duplicate pair
// whose two occurrences would be partitioned into different shards.

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/point_database.h"
#include "shard/sharded_area_query.h"
#include "shard/sharded_database.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

ShardedDatabase::Options ShardOptions(std::size_t k) {
  ShardedDatabase::Options options;
  options.num_shards = k;
  return options;
}

TEST(ShardConstructionTest, ZeroShardsIsRejected) {
  Rng rng(1);
  std::vector<Point> points = GenerateUniformPoints(16, kUnit, &rng);
  EXPECT_THROW(ShardedDatabase(points, ShardOptions(0)),
               std::invalid_argument);
}

TEST(ShardConstructionTest, MoreShardsThanPointsWorks) {
  // K > n: the surplus shards start empty, queries stay exact, and
  // inserts routed into empty key ranges land and are queryable.
  Rng rng(2);
  const std::vector<Point> points = GenerateUniformPoints(5, kUnit, &rng);
  ShardedDatabase sharded(points, ShardOptions(16));
  EXPECT_EQ(sharded.num_shards(), 16u);
  EXPECT_EQ(sharded.Size(), 5u);

  QueryContext ctx;
  const Polygon everything = Polygon(std::vector<Point>{
      {-1.0, -1.0}, {2.0, -1.0}, {2.0, 2.0}, {-1.0, 2.0}});
  for (const DynamicMethod method :
       {DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
        DynamicMethod::kGridSweep, DynamicMethod::kBruteForce}) {
    const std::vector<PointId> got =
        RunShardedSnapshotQuery(*sharded.snapshot(), method, everything, ctx);
    EXPECT_EQ(got, (std::vector<PointId>{0, 1, 2, 3, 4}))
        << "method=" << MethodName(method);
    EXPECT_EQ(ctx.stats.shards_hit + ctx.stats.shards_pruned, 16u);
  }

  Rng insert_rng(3);
  for (int i = 0; i < 64; ++i) {
    const std::optional<PointId> id = sharded.Insert(
        {insert_rng.Uniform(0, 1), insert_rng.Uniform(0, 1)});
    ASSERT_TRUE(id.has_value());
  }
  EXPECT_EQ(sharded.Size(), 69u);
  EXPECT_EQ(RunShardedSnapshotQuery(*sharded.snapshot(),
                                    DynamicMethod::kBruteForce, everything,
                                    ctx)
                .size(),
            69u);
}

TEST(ShardConstructionTest, EmptyInputWorks) {
  ShardedDatabase sharded(std::vector<Point>{}, ShardOptions(4));
  EXPECT_EQ(sharded.Size(), 0u);
  QueryContext ctx;
  const Polygon area = Polygon(
      std::vector<Point>{{0.0, 0.0}, {1.0, 0.0}, {0.5, 1.0}});
  EXPECT_TRUE(RunShardedSnapshotQuery(*sharded.snapshot(),
                                      DynamicMethod::kVoronoi, area, ctx)
                  .empty());
  EXPECT_EQ(ctx.stats.shards_pruned, 4u);
  EXPECT_TRUE(sharded.Insert({0.5, 0.5}).has_value());
  EXPECT_EQ(RunShardedSnapshotQuery(*sharded.snapshot(),
                                    DynamicMethod::kVoronoi, area, ctx)
                .size(),
            1u);

  // Routing over the empty-construction default domain is a real K-way
  // split, not a single-shard funnel: a spread of inserts must populate
  // every shard.
  Rng rng(7);
  for (int i = 0; i < 256; ++i) {
    sharded.Insert({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  std::vector<std::size_t> per_shard(4, 0);
  const auto snap = sharded.snapshot();
  for (std::size_t s = 0; s < 4; ++s) {
    per_shard[s] = snap->shards()[s].snap->live_size();
  }
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_GT(per_shard[s], 0u) << "shard " << s << " never received a point";
  }
}

TEST(ShardConstructionTest, DuplicateAcrossShardBoundaryStillThrows) {
  // The duplicate pair is placed at opposite ends of the input and at
  // opposite ends of the Hilbert curve relative to the rest, so an
  // index-partitioned build would scatter the two occurrences into
  // different shards; the global pre-partition check must still see the
  // pair and report it in input positions.
  Rng rng(4);
  std::vector<Point> points = GenerateUniformPoints(40, kUnit, &rng);
  points[3] = {0.125, 0.125};
  points[37] = {0.125, 0.125};
  try {
    const ShardedDatabase sharded(points, ShardOptions(8));
    FAIL() << "duplicate pair was not rejected";
  } catch (const DuplicatePointError& e) {
    EXPECT_EQ(e.first_index(), 3u);
    EXPECT_EQ(e.second_index(), 37u);
    EXPECT_EQ(e.point(), (Point{0.125, 0.125}));
  }
}

TEST(ShardConstructionTest, NonFiniteInputIsRejected) {
  Rng rng(5);
  std::vector<Point> points = GenerateUniformPoints(8, kUnit, &rng);
  points[2].y = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ShardedDatabase(points, ShardOptions(4)),
               std::invalid_argument);
}

TEST(ShardConstructionTest, OutOfRangeInputIsRejected) {
  Rng rng(5);
  std::vector<Point> points = GenerateUniformPoints(8, kUnit, &rng);
  points[5].x = 1e200;
  EXPECT_THROW(ShardedDatabase(points, ShardOptions(4)),
               std::invalid_argument);
}

TEST(ShardConstructionTest, InsertEnforcesLiveDistinctnessAcrossShards) {
  Rng rng(6);
  const std::vector<Point> points = GenerateUniformPoints(200, kUnit, &rng);
  ShardedDatabase sharded(points, ShardOptions(8));
  // Inserting any live point again is rejected, wherever it lives.
  for (std::size_t i = 0; i < points.size(); i += 17) {
    EXPECT_FALSE(sharded.Insert(points[i]).has_value());
  }
  // Non-finite inserts are rejected at the routing boundary (a NaN key
  // must not pick a shard).
  EXPECT_FALSE(
      sharded.Insert({std::numeric_limits<double>::infinity(), 0.5})
          .has_value());
  // So are finite coordinates outside the construction range.
  EXPECT_FALSE(sharded.Insert({1e200, 1e200}).has_value());
  EXPECT_FALSE(sharded.Insert({0.5, 1e-200}).has_value());
  // Erase, then re-insert: allowed, with a fresh id.
  ASSERT_TRUE(sharded.Erase(10));
  EXPECT_FALSE(sharded.Erase(10));
  const std::optional<PointId> again = sharded.Insert(points[10]);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, 200u);
  EXPECT_EQ(sharded.Size(), 200u);
}

}  // namespace
}  // namespace vaq
