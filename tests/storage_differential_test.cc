// The out-of-core PR's acceptance property: a database served from the
// mmap page file behind a deliberately tiny LRU cache must answer every
// query bit-identically to the in-memory backend — across all three
// methods and both miss modes, through the sharded scatter-gather path,
// and under dynamic churn with compactions — while the page counters obey
// `page_cache_hits + page_cache_misses == pages_touched` and show the
// genuine miss traffic the small cache forces. The page file stores the
// exact doubles of the resident arrays, so any divergence is a bug in the
// page/cache plumbing, not floating-point noise.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/dynamic_area_query.h"
#include "core/dynamic_point_database.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "shard/sharded_area_query.h"
#include "shard/sharded_database.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

/// A paged configuration whose cache (8 pages x 256 points) holds well
/// under the test datasets, so queries take real misses and evictions.
PointDatabase::Options PagedOptions(
    PageMissMode miss_mode = PageMissMode::kPread) {
  PointDatabase::Options options;
  options.storage.backend = StorageBackend::kMmap;
  options.storage.cache_pages = 8;
  options.storage.miss_mode = miss_mode;
  return options;
}

constexpr PageMissMode kMissModes[] = {PageMissMode::kPread,
                                       PageMissMode::kMmapCopy};

const char* MissModeName(PageMissMode miss_mode) {
  return miss_mode == PageMissMode::kPread ? "pread" : "mmap_copy";
}

void ExpectPageInvariant(const QueryStats& s) {
  EXPECT_EQ(s.page_cache_hits + s.page_cache_misses, s.pages_touched);
}

TEST(StorageDifferentialTest, AllMethodsMatchInMemoryOracle) {
  const PointDistribution distributions[] = {PointDistribution::kUniform,
                                             PointDistribution::kClustered};
  const double query_sizes[] = {0.01, 0.05, 0.20};

  for (const PageMissMode miss_mode : kMissModes) {
    for (const PointDistribution distribution : distributions) {
      Rng rng(2024);
      const std::vector<Point> points =
          GeneratePoints(4000, kUnit, distribution, &rng);
      const PointDatabase oracle(points);
      const PointDatabase paged(points, PagedOptions(miss_mode));
      ASSERT_NE(paged.page_store(), nullptr);

      const TraditionalAreaQuery oracle_trad(&oracle), paged_trad(&paged);
      const VoronoiAreaQuery oracle_vaq(&oracle), paged_vaq(&paged);
      const BruteForceAreaQuery oracle_brute(&oracle), paged_brute(&paged);
      const struct {
        const AreaQuery* oracle_q;
        const AreaQuery* paged_q;
      } pairs[] = {{&oracle_vaq, &paged_vaq},
                   {&oracle_trad, &paged_trad},
                   {&oracle_brute, &paged_brute}};

      QueryContext ctx;
      std::uint64_t paged_misses = 0;
      for (const double query_size : query_sizes) {
        PolygonSpec spec;
        spec.query_size_fraction = query_size;
        const Polygon area = GenerateQueryPolygon(spec, kUnit, &rng);
        for (const auto& pair : pairs) {
          const std::vector<PointId> truth = pair.oracle_q->Run(area, ctx);
          const QueryStats oracle_stats = ctx.stats;
          EXPECT_EQ(oracle_stats.pages_touched, 0u);  // Memory backend.
          const std::vector<PointId> got = pair.paged_q->Run(area, ctx);
          EXPECT_EQ(got, truth)
              << "miss_mode=" << MissModeName(miss_mode)
              << " method=" << pair.paged_q->Name()
              << " query_size=" << query_size;
          ExpectPageInvariant(ctx.stats);
          paged_misses += ctx.stats.page_cache_misses;
          // The paged run must agree on every paper counter too — the
          // backend swaps the IO path, not the algorithm.
          EXPECT_EQ(ctx.stats.candidates, oracle_stats.candidates);
          EXPECT_EQ(ctx.stats.geometry_loads, oracle_stats.geometry_loads);
        }
      }
      // 4000 points across 16 pages vs an 8-page cache: the streams
      // cannot fit, so real page IO must have happened.
      EXPECT_GT(paged_misses, 0u) << "miss_mode=" << MissModeName(miss_mode);
    }
  }
}

TEST(StorageDifferentialTest, ShardedPagedMatchesInMemoryOracle) {
  Rng rng(3131);
  const std::vector<Point> points = GenerateUniformPoints(3000, kUnit, &rng);
  const PointDatabase oracle(points);
  const BruteForceAreaQuery oracle_brute(&oracle);

  for (const PageMissMode miss_mode : kMissModes) {
    ShardedDatabase::Options options;
    options.num_shards = 4;
    options.shard.base.storage = PagedOptions(miss_mode).storage;
    const ShardedDatabase sharded(points, options);

    QueryContext ctx;
    PolygonSpec spec;
    spec.query_size_fraction = 0.08;
    Rng query_rng(3132);
    for (int rep = 0; rep < 6; ++rep) {
      const Polygon area = GenerateQueryPolygon(spec, kUnit, &query_rng);
      std::vector<PointId> truth;
      for (const PointId internal : oracle_brute.Run(area, ctx)) {
        truth.push_back(oracle.OriginalId(internal));
      }
      std::sort(truth.begin(), truth.end());
      for (const DynamicMethod method :
           {DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
            DynamicMethod::kBruteForce}) {
        EXPECT_EQ(
            RunShardedSnapshotQuery(*sharded.snapshot(), method, area, ctx),
            truth)
            << "miss_mode=" << MissModeName(miss_mode)
            << " method=" << MethodName(method);
        // The per-shard page counters must survive the scatter-gather
        // stats merge with the invariant intact.
        ExpectPageInvariant(ctx.stats);
      }
    }
  }
}

TEST(StorageDifferentialTest, ChurnOnPagedBackendMatchesRebuild) {
  // Every compaction rebuilds the base through the paged constructor (new
  // spill file, fresh cache), so the churn loop exercises the spill
  // path's full lifecycle, not just one construction.
  Rng rng(777);
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  options.base.storage = PagedOptions().storage;
  DynamicPointDatabase db(GenerateUniformPoints(1500, kUnit, &rng), options);
  constexpr DynamicMethod kMethods[] = {
      DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
      DynamicMethod::kBruteForce};
  PolygonSpec spec;
  spec.query_size_fraction = 0.08;

  std::vector<PointId> live;
  db.snapshot()->ForEachLive(
      [&](PointId id, const Point&) { live.push_back(id); });

  QueryContext ctx;
  const auto verify_against_rebuild = [&](const char* when) {
    std::vector<PointId> ids;
    std::vector<Point> pts;
    db.snapshot()->ForEachLive([&](PointId id, const Point& p) {
      ids.push_back(id);
      pts.push_back(p);
    });
    const PointDatabase rebuilt(pts);  // In-memory ground truth.
    const BruteForceAreaQuery brute(&rebuilt);
    const Polygon area = GenerateQueryPolygon(spec, kUnit, &rng);
    std::vector<PointId> truth;
    for (const PointId internal : brute.Run(area, nullptr)) {
      truth.push_back(ids[rebuilt.OriginalId(internal)]);
    }
    std::sort(truth.begin(), truth.end());
    for (const DynamicMethod method : kMethods) {
      EXPECT_EQ(RunDynamicSnapshotQuery(*db.snapshot(), method, area, ctx),
                truth)
          << when << ", method: " << MethodName(method);
      ExpectPageInvariant(ctx.stats);
    }
  };

  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 120; ++i) {
      const auto id = db.Insert({rng.Uniform(0, 1), rng.Uniform(0, 1)});
      if (id.has_value()) live.push_back(*id);
    }
    for (int i = 0; i < 50 && !live.empty(); ++i) {
      const std::size_t at = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      if (db.Erase(live[at])) {
        live[at] = live.back();
        live.pop_back();
      }
    }
    verify_against_rebuild("before compaction");
    db.Compact();
    verify_against_rebuild("after compaction");
  }
}

TEST(StorageDifferentialTest, InMemoryBackendStaysPageFree) {
  Rng rng(11);
  const PointDatabase db(GenerateUniformPoints(2000, kUnit, &rng));
  EXPECT_EQ(db.page_store(), nullptr);
  EXPECT_EQ(db.storage_backend(), StorageBackend::kInMemory);
  const VoronoiAreaQuery vaq(&db);
  QueryContext ctx;
  PolygonSpec spec;
  spec.query_size_fraction = 0.10;
  vaq.Run(GenerateQueryPolygon(spec, kUnit, &rng), ctx);
  EXPECT_EQ(ctx.stats.pages_touched, 0u);
  EXPECT_EQ(ctx.stats.page_cache_hits, 0u);
  EXPECT_EQ(ctx.stats.page_cache_misses, 0u);
}

TEST(StorageDifferentialTest, EmptyDatabaseSkipsSpill) {
  // No points -> nothing to page; the constructor must not create (or
  // fail on) a zero-page spill file.
  const PointDatabase db(std::vector<Point>{},
                         PagedOptions());
  EXPECT_EQ(db.page_store(), nullptr);
  EXPECT_EQ(db.storage_backend(), StorageBackend::kInMemory);
}

}  // namespace
}  // namespace vaq
