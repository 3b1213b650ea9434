// Seeded fault-injection soak (DESIGN.md §12): randomized fault specs
// against small paged databases, differentially checked per query against
// an in-memory no-fault oracle. The contract under arbitrary injected
// faults is strict: every query either returns a result bit-identical to
// the oracle's or throws one of the typed failure-domain errors
// (`PageReadError`, `QueryAbortedError`) — never a silently wrong or
// partial answer, never a crash. Sharded queries, inline and scattered,
// are held to the same contract: a failing leg fails the whole query.
//
// Runs as its own ctest entry (`FaultSoakTest`, explicit TIMEOUT) rather
// than inside `vaq_tests`, because it is deliberately heavier than a unit
// test: kSeeds specs x 4 methods x several polygons each. Every decision
// derives from the seed, so a failure line's seed replays exactly.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "engine/query_engine.h"
#include "fault/fault.h"
#include "shard/sharded_area_query.h"
#include "shard/sharded_database.h"
#include "storage/page_format.h"
#include "storage/page_store.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};
constexpr int kSeeds = 32;
constexpr int kPolygonsPerSeed = 3;

/// One randomized spec per seed, drawn from grids that cover the
/// interesting corners: fault-free, rare faults the retry budget absorbs,
/// heavy faults that defeat it, and certain loss. Latency-class rates
/// (slow, fetch_spike) stay result-neutral by design; spike_ms is kept
/// tiny so the soak's wall-clock stays in budget.
FaultSpec DrawSpec(std::mt19937* gen) {
  const auto pick = [gen](std::initializer_list<double> choices) {
    std::vector<double> v(choices);
    return v[std::uniform_int_distribution<std::size_t>(0, v.size() - 1)(
        *gen)];
  };
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = (*gen)();
  spec.read_error_rate = pick({0.0, 0.02, 0.2, 1.0});
  spec.corrupt_rate = pick({0.0, 0.01, 0.1});
  spec.slow_page_rate = pick({0.0, 0.1});
  spec.spike_ms = 0.05;
  pick({0.0, 0.5});  // Unused draw: keeps each seed's later fields fixed.
  spec.fetch_spike_rate = pick({0.0, 0.2});
  spec.max_read_retries =
      std::uniform_int_distribution<int>(0, 3)(*gen);
  spec.backoff_initial_ms = 0.0;  // Retry counts, not wall-clock.
  return spec;
}

PointDatabase::Options FaultedPagedOptions(const FaultSpec& spec,
                                           PageMissMode miss_mode) {
  PointDatabase::Options options;
  options.storage.backend = StorageBackend::kMmap;
  options.storage.miss_mode = miss_mode;
  options.storage.cache_pages = 4;
  options.storage.page_size_bytes = 256;  // Many pages => many fault sites.
  options.storage.fault = spec;
  return options;
}

TEST(FaultSoakTest, EveryMethodIsExactOrTypedUnderRandomFaults) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937 gen(0x5eedu + static_cast<unsigned>(seed) * 2654435761u);
    const FaultSpec spec = DrawSpec(&gen);
    Rng rng(1000 + seed);
    const std::vector<Point> points = GeneratePoints(
        1500, kUnit,
        seed % 2 == 0 ? PointDistribution::kUniform
                      : PointDistribution::kClustered,
        &rng);
    const PointDatabase oracle(points);
    const PointDatabase paged(
        points, FaultedPagedOptions(spec, seed % 4 == 3
                                              ? PageMissMode::kMmapCopy
                                              : PageMissMode::kPread));

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
    for (int q = 0; q < kPolygonsPerSeed; ++q) {
      PolygonSpec poly_spec;
      poly_spec.query_size_fraction =
          std::uniform_real_distribution<double>(0.01, 0.3)(gen);
      const Polygon area = GenerateQueryPolygon(poly_spec, kUnit, &rng);
      for (const auto& pair : pairs) {
        const std::vector<PointId> truth = pair.oracle_q->Run(area, ctx);
        try {
          const std::vector<PointId> got = pair.paged_q->Run(area, ctx);
          // Survived the faults: must be exact — retries are invisible in
          // the result set, by contract.
          EXPECT_EQ(got, truth)
              << "seed=" << seed << " method=" << pair.paged_q->Name();
          EXPECT_EQ(ctx.stats.page_cache_hits + ctx.stats.page_cache_misses,
                    ctx.stats.pages_touched)
              << "seed=" << seed << " method=" << pair.paged_q->Name();
        } catch (const PageReadError& e) {
          // Typed storage failure: must carry a real page of this file.
          EXPECT_LT(e.page(), paged.page_store()->num_pages())
              << "seed=" << seed;
        }
        // Any other exception type escapes and fails the soak.
      }
    }
  }
}

TEST(FaultSoakTest, ShardedQueriesAreExactOrTyped) {
  constexpr std::size_t kShards = 4;
  QueryEngine scatter({.num_threads = 2});
  int exact = 0;
  int typed = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    std::mt19937 gen(0xabcdu + static_cast<unsigned>(seed) * 2654435761u);
    FaultSpec spec = DrawSpec(&gen);
    spec.read_error_rate = std::min(spec.read_error_rate, 0.2);
    Rng rng(4000 + seed);
    const std::vector<Point> points =
        GeneratePoints(1200, kUnit, PointDistribution::kUniform, &rng);
    const PointDatabase oracle(points);
    ShardedDatabase::Options options;
    options.num_shards = kShards;
    options.shard.base.storage.backend = StorageBackend::kMmap;
    options.shard.base.storage.cache_pages = 4;
    options.shard.base.storage.page_size_bytes = 256;
    options.shard.base.storage.fault = spec;
    const ShardedDatabase sharded(points, options);
    // A typed failure must name a real page of some shard's file.
    std::size_t max_pages = 0;
    for (const ShardedDatabase::ShardView& view :
         sharded.snapshot()->shards()) {
      const PageStore* store = view.snap->base().page_store();
      if (store != nullptr) max_pages = std::max(max_pages, store->num_pages());
    }

    const DynamicMethod methods[] = {
        DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
        DynamicMethod::kBruteForce};
    const std::size_t cycle = static_cast<std::size_t>(seed);
    const DynamicMethod method = methods[cycle % std::size(methods)];
    // Half the seeds (every method among them) fan their legs out, so
    // failures also cross the scatter engine's futures.
    QueryEngine* engine =
        (cycle / std::size(methods)) % 2 == 1 ? &scatter : nullptr;
    const BruteForceAreaQuery oracle_brute(&oracle);

    QueryContext ctx;
    for (int q = 0; q < kPolygonsPerSeed; ++q) {
      PolygonSpec poly_spec;
      poly_spec.query_size_fraction =
          std::uniform_real_distribution<double>(0.05, 0.3)(gen);
      const Polygon area = GenerateQueryPolygon(poly_spec, kUnit, &rng);
      std::vector<PointId> truth;
      for (const PointId id : oracle_brute.Run(area, ctx)) {
        truth.push_back(oracle.OriginalId(id));
      }
      std::sort(truth.begin(), truth.end());

      try {
        EXPECT_EQ(RunShardedSnapshotQuery(*sharded.snapshot(), method, area,
                                          ctx, engine),
                  truth)
            << "seed=" << seed;
        EXPECT_EQ(ctx.stats.shards_hit + ctx.stats.shards_pruned, kShards)
            << "seed=" << seed;
        ++exact;
      } catch (const PageReadError& e) {
        EXPECT_LT(e.page(), max_pages) << "seed=" << seed;
        ++typed;
      }
      // Any other exception type escapes and fails the soak.
    }
  }
  std::printf("[ soak ] sharded queries: %d exact, %d typed failures\n",
              exact, typed);
  EXPECT_GT(typed, 0) << "no seed injected a fault that failed a leg";
}

}  // namespace
}  // namespace vaq
