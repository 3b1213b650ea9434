// Randomized churn differential for the sharded path, mirroring
// `dynamic_churn_property_test.cc` one layer up: interleave global
// `Insert`/`Erase`/`Compact` with sharded queries, cross-checking against
// a from-scratch `PointDatabase` rebuild of the merged live set — and run
// queries *concurrently* with the mutation stream (the TSan job builds
// this file too: the cross-shard snapshot publication must be race-free,
// not merely crash-free).

#include <algorithm>
#include <atomic>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/point_database.h"
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
constexpr DynamicMethod kMethods[] = {
    DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
    DynamicMethod::kGridSweep, DynamicMethod::kBruteForce};

/// Ground truth for the current version: rebuild a monolithic database
/// from the snapshot's live set and brute-force it, then map internal ids
/// back to the sharded global ids.
std::vector<PointId> RebuildTruth(const ShardedDatabase::Snapshot& snap,
                                  const Polygon& area) {
  std::vector<PointId> ids;
  std::vector<Point> pts;
  snap.ForEachLive([&](PointId id, const Point& p) {
    ids.push_back(id);
    pts.push_back(p);
  });
  std::vector<PointId> truth;
  if (!pts.empty()) {
    const PointDatabase rebuilt(pts);
    const BruteForceAreaQuery brute(&rebuilt);
    for (const PointId internal : brute.Run(area, nullptr)) {
      truth.push_back(ids[rebuilt.OriginalId(internal)]);
    }
  }
  std::sort(truth.begin(), truth.end());
  return truth;
}

TEST(ShardChurnTest, ChurnStreamMatchesRebuildAcrossCompactions) {
  Rng rng(9090);
  ShardedDatabase::Options options;
  options.num_shards = 4;
  // Small per-shard threshold: the stream forces several threshold
  // compactions inside individual shards, so verification points land on
  // both sides of rebuilds that the other shards never saw.
  options.shard.compact_threshold = 150;
  ShardedDatabase db(GenerateUniformPoints(1500, kUnit, &rng), options);

  PolygonSpec spec;
  spec.query_size_fraction = 0.06;

  std::vector<PointId> live;
  db.snapshot()->ForEachLive(
      [&](PointId id, const Point&) { live.push_back(id); });

  QueryContext ctx;
  std::uint64_t verifications = 0;
  for (int op = 0; op < 2000; ++op) {
    const double r = rng.Uniform(0.0, 1.0);
    if (r < 0.40 || live.empty()) {
      const std::optional<PointId> id =
          db.Insert({rng.Uniform(0, 1), rng.Uniform(0, 1)});
      if (id.has_value()) live.push_back(*id);
    } else if (r < 0.70) {
      const std::size_t at = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      if (db.Erase(live[at])) {
        live[at] = live.back();
        live.pop_back();
      }
    } else if (r < 0.72) {
      db.Compact();
    }
    if (op % 200 == 199) {
      const Polygon area = GenerateQueryPolygon(spec, kUnit, &rng);
      const auto snap = db.snapshot();
      const std::vector<PointId> truth = RebuildTruth(*snap, area);
      for (const DynamicMethod method : kMethods) {
        EXPECT_EQ(RunShardedSnapshotQuery(*snap, method, area, ctx), truth)
            << "op=" << op << " method=" << MethodName(method);
        EXPECT_EQ(ctx.stats.candidates,
                  ctx.stats.candidate_hits + ctx.stats.visited_rejected);
        EXPECT_EQ(ctx.stats.shards_hit + ctx.stats.shards_pruned, 4u);
      }
      ++verifications;
    }
  }
  EXPECT_EQ(verifications, 10u);
  EXPECT_GT(db.Compactions(), 0u);
  EXPECT_EQ(db.Size(), live.size());
}

TEST(ShardChurnTest, QueriesConcurrentWithMutationsAreSnapshotConsistent) {
  Rng rng(4321);
  // Frontend engine executes the planned sharded queries; a separate
  // scatter pool runs their fan-out legs (see the pool rule of
  // RunShardedSnapshotQuery). Simulated object IO and large polygons make
  // each leg worth scattering, so the planner fans out.
  QueryEngine scatter({.num_threads = 2});
  ShardedDatabase::Options options;
  options.num_shards = 4;
  options.shard.compact_threshold = 256;
  options.shard.simulated_fetch_ns = 1000.0;
  options.scatter_engine = &scatter;
  ShardedDatabase db(GenerateUniformPoints(3000, kUnit, &rng), options);
  QueryEngine frontend({.num_threads = 2});
  const int planned = frontend.RegisterMethod(db.PlannedQuery());

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&db, &stop, w] {
      Rng wrng(800 + w);
      std::vector<PointId> mine;
      while (!stop.load(std::memory_order_relaxed)) {
        const double r = wrng.Uniform(0.0, 1.0);
        if (r < 0.55 || mine.empty()) {
          const std::optional<PointId> id =
              db.Insert({wrng.Uniform(0, 1), wrng.Uniform(0, 1)});
          if (id.has_value()) mine.push_back(*id);
        } else if (r < 0.95) {
          const std::size_t at = static_cast<std::size_t>(wrng.UniformInt(
              0, static_cast<std::int64_t>(mine.size()) - 1));
          db.Erase(mine[at]);
          mine[at] = mine.back();
          mine.pop_back();
        } else if (w == 0) {
          db.Compact();
        }
      }
    });
  }

  PolygonSpec spec;
  spec.query_size_fraction = 0.3;
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 120; ++i) {
    const Polygon area = GenerateQueryPolygon(spec, kUnit, &rng);
    SubmitOptions opts;
    opts.hints.force_method = kMethods[i % 4];
    futures.push_back(frontend.Submit(area, planned, opts));
  }
  int scattered = 0;
  for (std::future<QueryResult>& f : futures) {
    const QueryResult r = f.get();
    // Internal consistency under churn: sorted distinct global ids and a
    // coherent merged stats slot. (Cross-method equality is not asserted
    // mid-churn: two submissions may pin different versions.)
    EXPECT_TRUE(std::is_sorted(r.ids.begin(), r.ids.end()));
    EXPECT_TRUE(std::adjacent_find(r.ids.begin(), r.ids.end()) ==
                r.ids.end());
    EXPECT_EQ(r.stats.results, r.ids.size());
    EXPECT_EQ(r.stats.candidates,
              r.stats.candidate_hits + r.stats.visited_rejected);
    EXPECT_EQ(r.stats.shards_hit + r.stats.shards_pruned, 4u);
    if ((r.stats.plan_reason & plan_reason::kScatter) != 0) ++scattered;
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  EXPECT_GT(scattered, 0) << "no plan fanned its legs out under churn";

  // Quiesced: all four sharded methods agree with the rebuild oracle.
  QueryContext ctx;
  const Polygon area = GenerateQueryPolygon(spec, kUnit, &rng);
  const auto snap = db.snapshot();
  const std::vector<PointId> truth = RebuildTruth(*snap, area);
  for (const DynamicMethod method : kMethods) {
    EXPECT_EQ(RunShardedSnapshotQuery(*snap, method, area, ctx, &scatter),
              truth)
        << MethodName(method);
  }
}

}  // namespace
}  // namespace vaq
