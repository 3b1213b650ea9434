// Correctness of the snapshot-keyed result cache under churn: the cache
// may only ever return what a fresh execution against the same pinned
// snapshot would return, across arbitrary Insert / Erase / Compact
// interleavings. Every cached answer is compared bit-for-bit against an
// uncached run of the same planned path AND against brute force over the
// live set — the differential the bench gates in CI, here exercised with
// randomized schedules (and concurrently, for the TSan leg).

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_point_database.h"
#include "planner/planned_area_query.h"
#include "shard/sharded_database.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

/// Brute force over the live set of either database type, in its stable
/// (global) id space.
template <typename Database>
std::vector<PointId> LiveBruteForce(const Database& db, const Polygon& area) {
  std::vector<PointId> expected;
  db.snapshot()->ForEachLive([&](PointId id, const Point& p) {
    if (area.Contains(p)) expected.push_back(id);
  });
  std::sort(expected.begin(), expected.end());
  return expected;
}

std::vector<Polygon> FixedAreas(std::uint64_t seed, int count,
                                double size) {
  Rng rng(seed);
  PolygonSpec spec;
  spec.query_size_fraction = size;
  std::vector<Polygon> areas;
  for (int i = 0; i < count; ++i) {
    areas.push_back(GenerateQueryPolygon(spec, kUnit, &rng));
  }
  return areas;
}

TEST(PlannerCacheChurnTest, RandomizedChurnNeverServesAStaleResult) {
  Rng rng(2026);
  DynamicPointDatabase::Options options;
  options.auto_compact = false;  // Compaction only where the schedule says.
  DynamicPointDatabase db(GenerateUniformPoints(3000, kUnit, &rng),
                          options);
  // A small fixed polygon set, so the same key repeats often enough to
  // exercise both hits (no mutation between repeats) and invalidation
  // (mutation bumped the version in between).
  const std::vector<Polygon> areas = FixedAreas(7, 5, 0.15);

  PlanHints uncached;
  uncached.use_cache = false;
  std::vector<PointId> inserted;
  QueryContext ctx;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (int step = 0; step < 400; ++step) {
    const std::int64_t dice = rng.UniformInt(0, 9);
    if (dice < 2) {
      const auto id = db.Insert({rng.Uniform(0.0, 1.0),
                                 rng.Uniform(0.0, 1.0)});
      if (id.has_value()) inserted.push_back(*id);
    } else if (dice == 2 && !inserted.empty()) {
      const std::size_t victim = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(inserted.size()) - 1));
      db.Erase(inserted[victim]);
      inserted.erase(inserted.begin() + victim);
    } else if (dice == 3) {
      db.Compact();
    } else {
      const Polygon& area = areas[static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(areas.size()) - 1))];
      const std::vector<PointId> cached = db.Query(area, ctx);
      hits += ctx.stats.result_cache_hits;
      misses += ctx.stats.result_cache_misses;
      ASSERT_EQ(ctx.stats.result_cache_hits + ctx.stats.result_cache_misses,
                1u)
          << "a planned query must be exactly one hit or one miss";
      const std::vector<PointId> fresh = db.Query(area, ctx, uncached);
      ASSERT_EQ(cached, fresh)
          << "cached result diverged from a fresh run at step " << step;
      ASSERT_EQ(cached, LiveBruteForce(db, area))
          << "planned result diverged from brute force at step " << step;
    }
  }
  // The schedule leaves quiet stretches between mutations, so repeats of
  // the small polygon set must actually hit; and mutations must actually
  // re-miss. Both counters being live is what makes the differential
  // above a cache test rather than a no-op.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, static_cast<std::uint64_t>(areas.size()));
}

/// Primes the cache with `area`, then makes each mutation kind and
/// requires a re-miss with the updated answer. Second-hit admission means
/// the first execution of a never-seen polygon is declined (its hash is
/// merely recorded), the second execution is stored, the third hits.
template <typename Database>
void ExpectEveryMutationKindInvalidates(Database& db, const Polygon& area,
                                        QueryContext& ctx) {
  std::vector<PointId> before = db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_misses, 1u);
  EXPECT_EQ(before, LiveBruteForce(db, area));
  db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_misses, 1u)
      << "a first-seen polygon must not be cached by its first execution";
  db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_hits, 1u);

  // Insert inside the query's MBR: the cached answer is now wrong.
  const Box mbr = area.Bounds();
  const auto id = db.Insert({(mbr.min.x + mbr.max.x) / 2.0,
                             (mbr.min.y + mbr.max.y) / 2.0});
  ASSERT_TRUE(id.has_value());
  std::vector<PointId> after_insert = db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_misses, 1u)
      << "insert published a new version; the old entry must not hit";
  EXPECT_EQ(after_insert, LiveBruteForce(db, area));

  db.Erase(*id);
  std::vector<PointId> after_erase = db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_misses, 1u);
  EXPECT_EQ(after_erase, before)
      << "erasing the inserted point restores the original answer";

  // An effective compaction (non-empty delta) publishes a new version
  // and re-misses; ids and answers are stable across the rebuild.
  ASSERT_TRUE(db.Insert({2.0, 2.0}).has_value());  // Outside the area.
  db.Compact();
  std::vector<PointId> after_compact = db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_misses, 1u);
  EXPECT_EQ(after_compact, before);
}

TEST(PlannerCacheChurnTest, EveryMutationKindInvalidates) {
  Rng rng(99);
  const std::vector<Point> points = GenerateUniformPoints(500, kUnit, &rng);
  const Polygon area = FixedAreas(11, 1, 0.4)[0];
  DynamicPointDatabase::Options options;
  options.auto_compact = false;

  DynamicPointDatabase db(points, options);
  QueryContext ctx;
  ExpectEveryMutationKindInvalidates(db, area, ctx);
  // A no-op compaction (nothing to merge) publishes nothing: same
  // version, and serving the cached entry is exactly right.
  db.Compact();
  db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_hits, 1u)
      << "a no-op compact must not invalidate (version unchanged)";

  // The sharded planned path keys its cache on the cross-shard version.
  ShardedDatabase::Options sharded_options;
  sharded_options.shard = options;
  ShardedDatabase sharded(points, sharded_options);
  ExpectEveryMutationKindInvalidates(sharded, area, ctx);
}

TEST(PlannerCacheChurnTest, ConcurrentReadersAndMutatorStayExact) {
  // The TSan leg: readers serve planned (cached) queries while a mutator
  // churns the database. Each reader verifies every answer against an
  // uncached run pinned by the same call pattern — the two pin
  // independently, so they can legitimately see adjacent versions; the
  // brute-force differential is checked after the world stops instead.
  Rng rng(4242);
  DynamicPointDatabase db(GenerateUniformPoints(2000, kUnit, &rng));
  const std::vector<Polygon> areas = FixedAreas(5, 4, 0.2);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_hits{0};
  std::thread mutator([&] {
    Rng mrng(1);
    std::vector<PointId> mine;
    for (int i = 0; i < 300; ++i) {
      const std::int64_t dice = mrng.UniformInt(0, 7);
      if (dice < 5) {
        const auto id = db.Insert({mrng.Uniform(0.0, 1.0),
                                   mrng.Uniform(0.0, 1.0)});
        if (id.has_value()) mine.push_back(*id);
      } else if (dice < 7 && !mine.empty()) {
        const std::size_t victim = static_cast<std::size_t>(
            mrng.UniformInt(0, static_cast<std::int64_t>(mine.size()) - 1));
        db.Erase(mine[victim]);
        mine.erase(mine.begin() + victim);
      } else {
        db.Compact();
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng qrng(100 + t);
      QueryContext ctx;
      std::uint64_t hits = 0;
      while (!stop.load()) {
        const Polygon& area = areas[static_cast<std::size_t>(qrng.UniformInt(
            0, static_cast<std::int64_t>(areas.size()) - 1))];
        const std::vector<PointId> ids = db.Query(area, ctx);
        hits += ctx.stats.result_cache_hits;
        // Internal exactness holds even mid-churn: one hit or one miss,
        // and a hit short-circuits all execution counters to zero.
        EXPECT_EQ(
            ctx.stats.result_cache_hits + ctx.stats.result_cache_misses, 1u);
        if (ctx.stats.result_cache_hits == 1) {
          EXPECT_EQ(ctx.stats.candidates, 0u);
        }
      }
      total_hits.fetch_add(hits);
    });
  }
  mutator.join();
  for (std::thread& r : readers) r.join();

  // Quiesced differential: the final cached answers equal brute force.
  QueryContext ctx;
  PlanHints uncached;
  uncached.use_cache = false;
  for (const Polygon& area : areas) {
    const std::vector<PointId> cached = db.Query(area, ctx);
    EXPECT_EQ(cached, db.Query(area, ctx, uncached));
    EXPECT_EQ(cached, LiveBruteForce(db, area));
  }
  // Readers loop far more often than the mutator publishes, so the cache
  // must have served real hits mid-churn for this to have tested anything.
  EXPECT_GT(total_hits.load(), 0u);
}

}  // namespace
}  // namespace vaq
