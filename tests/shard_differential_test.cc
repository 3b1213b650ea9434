// The sharding PR's verification harness: every sharded answer must be
// bit-identical to the unsharded oracle — the same three methods run on one
// monolithic `PointDatabase` over the same input — across randomized
// datasets, polygon areas and shard counts. Sharding introduces a class of
// correctness hazards the single-database tests cannot see (boundary
// points duplicated or dropped at shard cuts, id-map misroutes, stats
// mis-merges, snapshot skew), so the harness checks results, permutation
// invariance of the shard assignment, and the stats-merge invariants.

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iterator>
#include <numeric>
#include <optional>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "engine/query_engine.h"
#include "planner/planned_area_query.h"
#include "shard/sharded_area_query.h"
#include "shard/sharded_database.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

/// When VAQ_TEST_STORAGE=mmap is set — the CI leg that
/// re-runs this differential suite out-of-core — every sharded database
/// serves its geometry through the paged backend with a deliberately tiny
/// cache, while the unsharded oracles stay in-memory: each EXPECT_EQ
/// below then additionally proves paged reads bit-identical to resident
/// reads under real miss traffic. Any other value fails the test rather
/// than silently running the leg in memory.
StorageOptions TestStorageFromEnv() {
  StorageOptions storage;
  const char* env = std::getenv("VAQ_TEST_STORAGE");
  if (env == nullptr) return storage;
  if (std::strcmp(env, "mmap") != 0) {
    ADD_FAILURE() << "unrecognised VAQ_TEST_STORAGE='" << env
                  << "' (expected 'mmap' or unset)";
    return storage;
  }
  storage.backend = StorageBackend::kMmap;
  storage.cache_pages = 8;  // Tiny: force genuine evictions and misses.
  return storage;
}

ShardedDatabase::Options ShardOptions(std::size_t k) {
  ShardedDatabase::Options options;
  options.num_shards = k;
  options.shard.base.storage = TestStorageFromEnv();
  return options;
}
constexpr std::size_t kShardCounts[] = {1, 2, 4, 8, 16};

/// The unsharded ground truth for `method`, in the input-position id space
/// the sharded database's global stable ids live in.
std::vector<PointId> OracleRun(const PointDatabase& oracle,
                               const AreaQuery& query, const Polygon& area,
                               QueryContext& ctx) {
  std::vector<PointId> out;
  for (const PointId internal : query.Run(area, ctx)) {
    out.push_back(oracle.OriginalId(internal));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectMergedStatsInvariants(const QueryStats& s, std::size_t num_shards,
                                 std::size_t result_size) {
  // The epilogue invariant every unsharded method guarantees must survive
  // the per-shard summation.
  EXPECT_EQ(s.candidates, s.candidate_hits + s.visited_rejected);
  // Every shard is either pruned or queried, exactly once.
  EXPECT_EQ(s.shards_hit + s.shards_pruned, num_shards);
  EXPECT_EQ(s.results, result_size);
}

TEST(ShardDifferentialTest, MatchesUnshardedOracleAcrossShardCounts) {
  struct Dataset {
    std::size_t size;
    PointDistribution distribution;
    std::uint64_t seed;
  };
  const Dataset datasets[] = {
      {3000, PointDistribution::kUniform, 71},
      {2200, PointDistribution::kClustered, 72},
  };
  const double query_sizes[] = {0.01, 0.05, 0.20};

  QueryContext ctx;
  for (const Dataset& dataset : datasets) {
    Rng rng(dataset.seed);
    const std::vector<Point> points = GeneratePoints(
        dataset.size, kUnit, dataset.distribution, &rng);

    const PointDatabase oracle(points);
    const TraditionalAreaQuery oracle_traditional(&oracle);
    const VoronoiAreaQuery oracle_voronoi(&oracle);
    const BruteForceAreaQuery oracle_brute(&oracle);
    const AreaQuery* oracle_methods[] = {&oracle_voronoi, &oracle_traditional,
                                         &oracle_brute};
    const DynamicMethod methods[] = {
        DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
        DynamicMethod::kBruteForce};

    for (const std::size_t k : kShardCounts) {
      const ShardedDatabase sharded(points, ShardOptions(k));
      for (const double query_size : query_sizes) {
        PolygonSpec spec;
        spec.query_size_fraction = query_size;
        const Polygon area = GenerateQueryPolygon(spec, kUnit, &rng);
        for (std::size_t m = 0; m < std::size(methods); ++m) {
          const std::vector<PointId> truth =
              OracleRun(oracle, *oracle_methods[m], area, ctx);
          const std::vector<PointId> got = RunShardedSnapshotQuery(
              *sharded.snapshot(), methods[m], area, ctx);
          EXPECT_EQ(got, truth)
              << "n=" << dataset.size << " K=" << k
              << " query_size=" << query_size
              << " method=" << MethodName(methods[m]);
          ExpectMergedStatsInvariants(ctx.stats, k, got.size());
        }
      }
    }
  }
}

TEST(ShardDifferentialTest, ScatterEngineMatchesInlineExecution) {
  // The parallel scatter path (legs as SubmitWith jobs on a dedicated
  // pool) must be bit-identical to the sequential inline path — and to
  // the oracle.
  Rng rng(1234);
  const std::vector<Point> points = GenerateUniformPoints(4000, kUnit, &rng);
  const PointDatabase oracle(points);
  const BruteForceAreaQuery oracle_brute(&oracle);
  const ShardedDatabase sharded(points, ShardOptions(8));
  QueryEngine scatter({.num_threads = 4});

  QueryContext ctx;
  PolygonSpec spec;
  spec.query_size_fraction = 0.10;
  for (int rep = 0; rep < 8; ++rep) {
    const Polygon area = GenerateQueryPolygon(spec, kUnit, &rng);
    const std::vector<PointId> truth =
        OracleRun(oracle, oracle_brute, area, ctx);
    for (const DynamicMethod method :
         {DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
          DynamicMethod::kBruteForce}) {
      const auto snap = sharded.snapshot();
      const std::vector<PointId> inline_ids =
          RunShardedSnapshotQuery(*snap, method, area, ctx);
      const QueryStats inline_stats = ctx.stats;
      const std::vector<PointId> parallel_ids =
          RunShardedSnapshotQuery(*snap, method, area, ctx, &scatter);
      EXPECT_EQ(inline_ids, truth);
      EXPECT_EQ(parallel_ids, truth);
      // The merge is order-independent, so the two execution modes agree
      // on every additive counter (elapsed_ms differs, of course).
      EXPECT_EQ(ctx.stats.candidates, inline_stats.candidates);
      EXPECT_EQ(ctx.stats.candidate_hits, inline_stats.candidate_hits);
      EXPECT_EQ(ctx.stats.geometry_loads, inline_stats.geometry_loads);
      EXPECT_EQ(ctx.stats.shards_hit, inline_stats.shards_hit);
      EXPECT_EQ(ctx.stats.shards_pruned, inline_stats.shards_pruned);
      ExpectMergedStatsInvariants(ctx.stats, 8, parallel_ids.size());
    }
  }
  // Fan-out legs are invisible to the scatter engine's client statistics.
  EXPECT_EQ(scatter.Stats().queries_completed, 0u);
}

TEST(ShardDifferentialTest, SelfScatterEngineDegradesToInlineNotDeadlock) {
  // The documented misconfiguration: the planned sharded query registered
  // with the very engine it scatters into. All 2 workers fill up with
  // parent queries; without the OnWorkerThread guard every parent whose
  // plan scatters would block forever on legs nobody can pop. With it,
  // parents run their legs inline and results stay exact. Simulated
  // object IO makes each leg expensive enough that the planner scatters.
  Rng rng(6060);
  const std::vector<Point> points = GenerateUniformPoints(2000, kUnit, &rng);
  const PointDatabase oracle(points);
  const BruteForceAreaQuery oracle_brute(&oracle);
  QueryEngine engine({.num_threads = 2});
  ShardedDatabase::Options options = ShardOptions(8);
  options.shard.simulated_fetch_ns = 5000.0;
  options.scatter_engine = &engine;
  const ShardedDatabase sharded(points, options);
  const int method = engine.RegisterMethod(sharded.PlannedQuery());

  PolygonSpec spec;
  spec.query_size_fraction = 0.15;
  QueryContext ctx;
  SubmitOptions opts;
  opts.hints.force_method = DynamicMethod::kVoronoi;
  std::vector<Polygon> areas;
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 16; ++i) {
    areas.push_back(GenerateQueryPolygon(spec, kUnit, &rng));
    futures.push_back(engine.Submit(areas.back(), method, opts));
  }
  int scattered = 0;
  for (int i = 0; i < 16; ++i) {
    const QueryResult r = futures[i].get();
    EXPECT_EQ(r.ids, OracleRun(oracle, oracle_brute, areas[i], ctx));
    if ((r.stats.plan_reason & plan_reason::kScatter) != 0) ++scattered;
  }
  // The guard only matters for plans that scatter.
  EXPECT_GT(scattered, 0);
}

TEST(ShardDifferentialTest, ShardAssignmentIsPermutationInvariant) {
  // The Hilbert cuts are key-aligned with coordinate tie-breaks, so the
  // partition is a function of the point *set*: shuffling the input must
  // reproduce the same per-shard point sets, and query results must map
  // through the permutation exactly.
  Rng rng(555);
  const std::vector<Point> points = GenerateUniformPoints(2500, kUnit, &rng);

  std::vector<PointId> perm(points.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::mt19937_64 shuffle_rng(99);
  std::shuffle(perm.begin(), perm.end(), shuffle_rng);
  std::vector<Point> shuffled;
  shuffled.reserve(points.size());
  for (const PointId original : perm) shuffled.push_back(points[original]);

  for (const std::size_t k : kShardCounts) {
    const ShardedDatabase a(points, ShardOptions(k));
    const ShardedDatabase b(shuffled, ShardOptions(k));

    // Identical per-shard point sets (coordinates, shard by shard).
    const auto snap_a = a.snapshot();
    const auto snap_b = b.snapshot();
    ASSERT_EQ(snap_a->shards().size(), k);
    for (std::size_t s = 0; s < k; ++s) {
      std::vector<Point> pts_a, pts_b;
      snap_a->shards()[s].snap->ForEachLive(
          [&](PointId, const Point& p) { pts_a.push_back(p); });
      snap_b->shards()[s].snap->ForEachLive(
          [&](PointId, const Point& p) { pts_b.push_back(p); });
      std::sort(pts_a.begin(), pts_a.end());
      std::sort(pts_b.begin(), pts_b.end());
      EXPECT_EQ(pts_a, pts_b) << "K=" << k << " shard=" << s;
    }

    // Identical answers modulo the id permutation.
    QueryContext ctx;
    PolygonSpec spec;
    spec.query_size_fraction = 0.08;
    Rng query_rng(556);
    for (int rep = 0; rep < 4; ++rep) {
      const Polygon area = GenerateQueryPolygon(spec, kUnit, &query_rng);
      const std::vector<PointId> ids_a = RunShardedSnapshotQuery(
          *snap_a, DynamicMethod::kVoronoi, area, ctx);
      std::vector<PointId> ids_b_mapped;
      for (const PointId id : RunShardedSnapshotQuery(
               *snap_b, DynamicMethod::kVoronoi, area, ctx)) {
        ids_b_mapped.push_back(perm[id]);
      }
      std::sort(ids_b_mapped.begin(), ids_b_mapped.end());
      EXPECT_EQ(ids_b_mapped, ids_a) << "K=" << k;
    }
  }
}

TEST(ShardDifferentialTest, ConcaveAreaSpanningShardsStaysComplete) {
  // The sharding trap the harness exists for: a concave area whose
  // intersection with a single shard's extent is *disconnected* (two
  // prongs dip into the lower-left shard, the bridge crosses other
  // shards). The shard-local voronoi flood must still find both prongs —
  // this is what forces the exact dual-edge rule plus its super-vertex
  // escape on shard legs (DESIGN.md §9).
  Rng rng(4040);
  const std::vector<Point> points = GenerateUniformPoints(3000, kUnit, &rng);
  const PointDatabase oracle(points);
  const BruteForceAreaQuery oracle_brute(&oracle);
  const Polygon u_shape(std::vector<Point>{{0.05, 0.05},
                                           {0.15, 0.05},
                                           {0.15, 0.85},
                                           {0.30, 0.85},
                                           {0.30, 0.05},
                                           {0.40, 0.05},
                                           {0.40, 0.95},
                                           {0.05, 0.95}});
  ASSERT_TRUE(u_shape.IsSimple());

  QueryContext ctx;
  const std::vector<PointId> truth =
      OracleRun(oracle, oracle_brute, u_shape, ctx);
  ASSERT_GT(truth.size(), 100u);
  for (const std::size_t k : kShardCounts) {
    const ShardedDatabase sharded(points, ShardOptions(k));
    for (const DynamicMethod method :
         {DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
          DynamicMethod::kBruteForce}) {
      EXPECT_EQ(
          RunShardedSnapshotQuery(*sharded.snapshot(), method, u_shape, ctx),
          truth)
          << "K=" << k << " method=" << MethodName(method);
    }
  }
}

TEST(ShardDifferentialTest, PruningSkipsShardsButNeverResults) {
  // A small query far from most shards must actually prune (the MBR test
  // does real work) while staying exact.
  Rng rng(808);
  const std::vector<Point> points = GenerateUniformPoints(4000, kUnit, &rng);
  const PointDatabase oracle(points);
  const BruteForceAreaQuery oracle_brute(&oracle);
  const ShardedDatabase sharded(points, ShardOptions(16));

  QueryContext ctx;
  PolygonSpec spec;
  spec.query_size_fraction = 0.01;
  std::uint64_t total_pruned = 0;
  for (int rep = 0; rep < 12; ++rep) {
    const Polygon area = GenerateQueryPolygon(spec, kUnit, &rng);
    const std::vector<PointId> truth =
        OracleRun(oracle, oracle_brute, area, ctx);
    EXPECT_EQ(RunShardedSnapshotQuery(*sharded.snapshot(),
                                      DynamicMethod::kTraditional, area, ctx),
              truth);
    total_pruned += ctx.stats.shards_pruned;
  }
  // 1%-sized queries against 16 Hilbert-compact shards: the large
  // majority of shard MBRs must classify outside.
  EXPECT_GT(total_pruned, 12u * 8u);
}

TEST(ShardDifferentialTest, PlannedQueryMatchesOracleInlineAndScattered) {
  // The planned sharded path (`ShardedDatabase::Query`): auto and every
  // forced method, with and without a scatter engine, must answer exactly
  // what the unsharded oracle answers.
  Rng rng(2727);
  const std::vector<Point> points = GenerateUniformPoints(3000, kUnit, &rng);
  const PointDatabase oracle(points);
  const BruteForceAreaQuery oracle_brute(&oracle);
  QueryEngine scatter({.num_threads = 2});
  const std::optional<DynamicMethod> forced[] = {
      std::nullopt, DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
      DynamicMethod::kBruteForce};

  QueryContext ctx;
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}}) {
    for (QueryEngine* engine : {static_cast<QueryEngine*>(nullptr), &scatter}) {
      ShardedDatabase::Options options = ShardOptions(k);
      options.scatter_engine = engine;
      const ShardedDatabase sharded(points, options);
      for (const double query_size : {0.02, 0.3, 0.7}) {
        PolygonSpec spec;
        spec.query_size_fraction = query_size;
        const Polygon area = GenerateQueryPolygon(spec, kUnit, &rng);
        const std::vector<PointId> truth =
            OracleRun(oracle, oracle_brute, area, ctx);
        for (const std::optional<DynamicMethod>& method : forced) {
          PlanHints hints;
          hints.force_method = method;
          hints.use_cache = false;  // Every call executes.
          const std::vector<PointId> got = sharded.Query(area, ctx, hints);
          EXPECT_EQ(got, truth)
              << "K=" << k << " engine=" << (engine != nullptr)
              << " query_size=" << query_size << " method="
              << (method ? MethodName(*method) : "auto");
          ExpectMergedStatsInvariants(ctx.stats, k, got.size());
          EXPECT_NE(ctx.stats.plan_method, 0u);
        }
      }
    }
  }
}

TEST(ShardDifferentialTest, LargePlannedQueryScattersWithEngine) {
  // A polygon covering most of the domain over four large shards: every
  // traditional leg is worth more than the scatter overhead, so the seed
  // cost model fans the legs onto the engine.
  Rng rng(2828);
  const std::vector<Point> points = GenerateUniformPoints(20000, kUnit, &rng);
  const PointDatabase oracle(points);
  const BruteForceAreaQuery oracle_brute(&oracle);
  QueryEngine scatter({.num_threads = 2});
  ShardedDatabase::Options options = ShardOptions(4);
  options.scatter_engine = &scatter;
  const ShardedDatabase sharded(points, options);

  const Polygon area(std::vector<Point>{
      {0.05, 0.05}, {0.95, 0.05}, {0.95, 0.95}, {0.05, 0.95}});
  PlanHints hints;
  hints.force_method = DynamicMethod::kTraditional;
  ASSERT_TRUE(sharded.PlannedQuery()->PlanFor(area, hints).scatter);
  QueryContext oracle_ctx;
  const std::vector<PointId> truth =
      OracleRun(oracle, oracle_brute, area, oracle_ctx);
  QueryContext ctx;
  EXPECT_EQ(sharded.Query(area, ctx, hints), truth);
  EXPECT_NE(ctx.stats.plan_reason & plan_reason::kScatter, 0u);
  EXPECT_GT(ctx.stats.shards_hit, 1u);
  EXPECT_EQ(ctx.stats.shards_hit + ctx.stats.shards_pruned, 4u);
}

}  // namespace
}  // namespace vaq
