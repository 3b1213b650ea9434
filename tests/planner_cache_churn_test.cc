// Correctness of the generation-keyed result cache under churn: the cache
// holds each leg's base pass, and every query patches it with its own
// snapshot's tombstones and delta, so a hit may only ever return what a
// fresh execution against the same pinned snapshot would return, across
// arbitrary Insert / Erase / Compact interleavings. Every cached answer
// is compared bit-for-bit against an uncached run of the same planned
// path AND against brute force over the live set — the differential the
// bench gates in CI, here exercised with randomized schedules (and
// concurrently, for the TSan leg).

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_point_database.h"
#include "engine/query_engine.h"
#include "geometry/prepared_area.h"
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
  // exercise both hits (patched with the mutations since the base was
  // built) and invalidation (a compaction built a new base in between).
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
  // Repeats of the small polygon set between compactions must actually
  // hit, and compactions must actually re-miss. Both counters being live
  // is what makes the differential above a cache test rather than a
  // no-op.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, static_cast<std::uint64_t>(areas.size()));
}

/// The pinned views of either database type, as the planner sees them.
std::shared_ptr<const ShardedDatabase::Snapshot> PinViews(
    const DynamicPointDatabase& db) {
  return ShardedDatabase::Snapshot::Single(db.snapshot());
}
std::shared_ptr<const ShardedDatabase::Snapshot> PinViews(
    const ShardedDatabase& db) {
  return db.snapshot();
}

/// Whether a leg the executor runs for `area` on `after` reads a base
/// that `before` did not: the only way a repeated, admitted polygon can
/// miss. Mirrors the executor's prune (a single view always runs).
bool SurvivingLegRebuilt(const ShardedDatabase::Snapshot& before,
                         const ShardedDatabase::Snapshot& after,
                         const Polygon& area) {
  const PreparedArea prep(area);
  const std::vector<ShardedDatabase::ShardView>& views = after.shards();
  for (std::size_t i = 0; i < views.size(); ++i) {
    const bool runs =
        views.size() == 1 ||
        (views[i].snap->live_size() > 0 &&
         prep.ClassifyBox(views[i].mbr) != PreparedArea::Region::kOutside);
    if (runs && views[i].snap->base_generation() !=
                    before.shards()[i].snap->base_generation()) {
      return true;
    }
  }
  return false;
}

/// A point strictly inside `area`, found on a fixed grid over its MBR.
Point InteriorPoint(const Polygon& area) {
  const Box mbr = area.Bounds();
  for (int i = 1; i < 64; ++i) {
    for (int j = 1; j < 64; ++j) {
      const Point p{mbr.min.x + (mbr.max.x - mbr.min.x) * i / 64.0,
                    mbr.min.y + (mbr.max.y - mbr.min.y) * j / 64.0};
      if (area.Contains(p)) return p;
    }
  }
  ADD_FAILURE() << "no interior grid point";
  return mbr.min;
}

/// Primes the cache with `area`, then makes each mutation kind. Second-hit
/// admission means the first execution of a never-seen polygon is
/// declined (its hash is merely recorded), the second is stored, the
/// third hits. Inserts and erases keep the base, so they hit, with the
/// cached base pass patched to the current answer; a compaction misses
/// exactly when it rebuilt the base of a leg the query runs.
template <typename Database>
void ExpectMutationsPatchAndRebuildsMiss(Database& db, const Polygon& area,
                                         QueryContext& ctx) {
  std::vector<PointId> before = db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_misses, 1u);
  EXPECT_EQ(before, LiveBruteForce(db, area));
  db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_misses, 1u)
      << "a first-seen polygon must not be cached by its first execution";
  db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_hits, 1u);

  // Insert inside the area: the cached base pass no longer is the
  // answer, and the hit's delta scan must add the new point.
  const auto id = db.Insert(InteriorPoint(area));
  ASSERT_TRUE(id.has_value());
  std::vector<PointId> after_insert = db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_hits, 1u)
      << "an insert keeps the base; its base pass must still hit";
  EXPECT_EQ(after_insert, LiveBruteForce(db, area));
  EXPECT_TRUE(std::binary_search(after_insert.begin(), after_insert.end(),
                                 *id));

  db.Erase(*id);
  std::vector<PointId> after_erase = db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_hits, 1u);
  EXPECT_EQ(after_erase, before)
      << "erasing the inserted point restores the original answer";

  // An effective compaction (non-empty delta) builds a new base; the
  // query misses when a leg it runs reads one. Ids and answers are
  // stable across the rebuild.
  ASSERT_TRUE(db.Insert({2.0, 2.0}).has_value());  // Outside the area.
  const auto pinned_before = PinViews(db);
  db.Compact();
  const bool rebuilt = SurvivingLegRebuilt(*pinned_before, *PinViews(db),
                                           area);
  std::vector<PointId> after_compact = db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_misses, rebuilt ? 1u : 0u);
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
  const std::uint64_t generation = db.snapshot()->base_generation();
  ExpectMutationsPatchAndRebuildsMiss(db, area, ctx);
  EXPECT_NE(db.snapshot()->base_generation(), generation)
      << "the unsharded compaction must have rebuilt its one base";
  // A no-op compaction (nothing to merge) builds no base: same
  // generation, and serving the cached entry is exactly right.
  db.Compact();
  db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_hits, 1u)
      << "a no-op compact must not invalidate (generation unchanged)";

  // The sharded planned path keys each leg on its own shard's base
  // generation: compacting one shard re-misses only the queries that
  // run a leg on it.
  ShardedDatabase::Options sharded_options;
  sharded_options.shard = options;
  ShardedDatabase sharded(points, sharded_options);
  ExpectMutationsPatchAndRebuildsMiss(sharded, area, ctx);
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
        // and a hit skips the base pass, so it loads no geometry and its
        // only candidates are the delta scan.
        EXPECT_EQ(
            ctx.stats.result_cache_hits + ctx.stats.result_cache_misses, 1u);
        if (ctx.stats.result_cache_hits == 1) {
          EXPECT_EQ(ctx.stats.geometry_loads, 0u);
          EXPECT_EQ(ctx.stats.candidates, ctx.stats.delta_candidates);
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

/// Runs `area` with `hints` through the cache and uncached, and requires
/// a hit equal to both the uncached run and brute force over the live set.
template <typename Database>
void ExpectPatchedHit(const Database& db, const Polygon& area,
                      const PlanHints& hints, const char* step) {
  SCOPED_TRACE(step);
  QueryContext ctx;
  const std::vector<PointId> cached = db.Query(area, ctx, hints);
  EXPECT_EQ(ctx.stats.result_cache_hits, 1u);
  EXPECT_EQ(ctx.stats.geometry_loads, 0u);
  EXPECT_EQ(ctx.stats.candidates, ctx.stats.delta_candidates);
  PlanHints uncached = hints;
  uncached.use_cache = false;
  EXPECT_EQ(cached, db.Query(area, ctx, uncached));
  EXPECT_EQ(cached, LiveBruteForce(db, area));
}

TEST(PlannerCacheChurnTest, PatchedHitsMatchFreshRuns) {
  // Every mutation kind that keeps the base is served from the cached
  // base pass, patched per query — for one view and for four, inline and
  // scattered, under every forced method (the brute-force leg finishes
  // with its own exact delta scan).
  Rng rng(77);
  const std::vector<Point> points = GenerateUniformPoints(2000, kUnit, &rng);
  const Polygon area = FixedAreas(13, 1, 0.3)[0];
  // Inside/outside base points; stable and global ids are input positions.
  std::vector<PointId> inside;
  std::vector<PointId> outside;
  for (PointId id = 0; id < points.size(); ++id) {
    (area.Contains(points[id]) ? inside : outside).push_back(id);
  }
  ASSERT_GE(inside.size(), 2u);
  ASSERT_FALSE(outside.empty());
  // Inserts sit a hair off a live base point: same routing cell, so the
  // point lands in a shard whose pruning verdict the insert cannot flip.
  const auto Near = [&](PointId id) {
    return Point{points[id].x + 1e-9, points[id].y + 1e-9};
  };
  ASSERT_TRUE(area.Contains(Near(inside[1])));
  ASSERT_FALSE(area.Contains(Near(outside[0])));

  QueryEngine engine({.num_threads = 2});
  const DynamicMethod kMethods[] = {
      DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
      DynamicMethod::kGridSweep, DynamicMethod::kBruteForce};
  struct Config {
    std::size_t shards;
    QueryEngine* scatter;
  };
  for (const Config config : {Config{1, nullptr}, Config{4, nullptr},
                              Config{4, &engine}}) {
    for (const DynamicMethod method : kMethods) {
      SCOPED_TRACE(testing::Message()
                   << "K=" << config.shards
                   << (config.scatter != nullptr ? " scatter" : " inline")
                   << " method=" << static_cast<int>(method));
      ShardedDatabase::Options options;
      options.num_shards = config.shards;
      options.shard.auto_compact = false;
      // Object IO makes every leg worth a scatter.
      options.shard.simulated_fetch_ns = 1000.0;
      options.scatter_engine = config.scatter;
      ShardedDatabase db(points, options);
      PlanHints hints;
      hints.force_method = method;
      if (config.scatter != nullptr) {
        ASSERT_TRUE(db.PlannedQuery()->PlanFor(area, hints).scatter);
      }
      QueryContext ctx;
      db.Query(area, ctx, hints);  // Declined: first sighting.
      db.Query(area, ctx, hints);  // Admitted.
      ASSERT_EQ(ctx.stats.result_cache_misses, 1u);

      ASSERT_TRUE(db.Erase(inside[0]));
      ExpectPatchedHit(db, area, hints, "erase a base point inside");
      const std::optional<PointId> added = db.Insert(Near(inside[1]));
      ASSERT_TRUE(added.has_value());
      ExpectPatchedHit(db, area, hints, "insert inside");
      ASSERT_TRUE(db.Erase(*added));
      ExpectPatchedHit(db, area, hints, "erase the delta point");
      ASSERT_TRUE(db.Insert(Near(outside[0])).has_value());
      ExpectPatchedHit(db, area, hints, "insert outside");
    }
  }
}

TEST(PlannerCacheChurnTest, FirstSeenPolygonIsDeclinedOnEveryLeg) {
  // Second-hit admission is per polygon, not per leg: the legs of a
  // first-seen query must not count each other's offers as sightings.
  Rng rng(31);
  ShardedDatabase::Options options;
  options.num_shards = 4;
  ShardedDatabase db(GenerateUniformPoints(2000, kUnit, &rng), options);
  const Polygon area(std::vector<Point>{
      {0.05, 0.05}, {0.95, 0.05}, {0.95, 0.95}, {0.05, 0.95}});
  const ResultCache& cache = db.PlannedQuery()->cache();

  QueryContext ctx;
  db.Query(area, ctx);
  const std::uint64_t legs = ctx.stats.shards_hit;
  ASSERT_GT(legs, 1u);
  EXPECT_EQ(ctx.stats.result_cache_misses, 1u);
  EXPECT_EQ(cache.admitted(), 0u) << "a one-shot polygon took a slot";
  EXPECT_EQ(cache.declined(), legs);

  db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_misses, 1u);
  EXPECT_EQ(cache.admitted(), legs) << "a repeated polygon is admitted";
  db.Query(area, ctx);
  EXPECT_EQ(ctx.stats.result_cache_hits, 1u);
}

}  // namespace
}  // namespace vaq
