// Snapshot-consistent queries under concurrent mutation: `QueryEngine`
// workers run the database's planned query, forced onto each method in
// turn, while writer threads insert, erase and compact. Built and run
// under TSan in CI — the snapshot pin must make `Submit` concurrent with
// `Insert` race-free, not just crash-free.

#include <algorithm>
#include <atomic>
#include <future>
#include <iterator>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_area_query.h"
#include "core/dynamic_point_database.h"
#include "engine/query_engine.h"
#include "planner/planned_area_query.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

TEST(DynamicConcurrencyTest, EngineQueriesConcurrentWithMutations) {
  Rng rng(2024);
  DynamicPointDatabase::Options options;
  options.compact_threshold = 512;  // Force compactions mid-stream.
  DynamicPointDatabase db(GenerateUniformPoints(4000, kUnit, &rng),
                          options);

  constexpr DynamicMethod kMethods[] = {
      DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
      DynamicMethod::kBruteForce};
  QueryEngine engine({.num_threads = 4});
  const int planned = engine.RegisterMethod(db.PlannedQuery());

  // Two writers churn (one calls explicit Compact too) while the main
  // thread pushes queries through the pool.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&db, &stop, w] {
      Rng wrng(100 + w);
      std::vector<PointId> mine;
      while (!stop.load(std::memory_order_relaxed)) {
        const double r = wrng.Uniform(0.0, 1.0);
        if (r < 0.55 || mine.empty()) {
          const auto id =
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
  spec.query_size_fraction = 0.05;
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 200; ++i) {
    const Polygon area = GenerateQueryPolygon(spec, kUnit, &rng);
    SubmitOptions opts;
    opts.hints.force_method = kMethods[i % std::size(kMethods)];
    futures.push_back(engine.Submit(area, planned, opts));
  }
  for (auto& f : futures) {
    const QueryResult r = f.get();
    // Internal consistency of each result: sorted distinct stable ids and
    // a coherent stats slot. (Cross-method equality is not asserted here:
    // two queries of the same polygon may legitimately pin different
    // versions.)
    EXPECT_TRUE(std::is_sorted(r.ids.begin(), r.ids.end()));
    EXPECT_TRUE(std::adjacent_find(r.ids.begin(), r.ids.end()) ==
                r.ids.end());
    EXPECT_EQ(r.stats.results, r.ids.size());
    EXPECT_EQ(r.stats.candidates,
              r.stats.candidate_hits + r.stats.visited_rejected);
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();

  // Quiesced: all three methods agree with each other again.
  QueryContext ctx;
  const Polygon area = GenerateQueryPolygon(spec, kUnit, &rng);
  const auto snap = db.snapshot();
  const std::vector<PointId> truth = RunDynamicSnapshotQuery(
      *snap, DynamicMethod::kBruteForce, area, ctx);
  for (const DynamicMethod method : kMethods) {
    EXPECT_EQ(RunDynamicSnapshotQuery(*snap, method, area, ctx), truth)
        << MethodName(method);
  }
}

TEST(DynamicConcurrencyTest, SnapshotOutlivesCompactionDuringQuery) {
  // A pinned snapshot keeps the old base (and its query objects) alive
  // while compactions replace the published version repeatedly.
  Rng rng(31);
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(GenerateUniformPoints(1000, kUnit, &rng),
                          options);
  const auto snap = db.snapshot();

  std::thread churner([&db] {
    Rng wrng(32);
    for (int round = 0; round < 5; ++round) {
      for (int i = 0; i < 100; ++i) {
        db.Insert({wrng.Uniform(0, 1), wrng.Uniform(0, 1)});
      }
      db.Compact();
    }
  });

  // Meanwhile, query the pinned version directly: results must describe
  // the original 1000-point state regardless of the churn.
  PolygonSpec spec;
  spec.query_size_fraction = 0.2;
  QueryContext ctx;
  Polygon area = GenerateQueryPolygon(spec, kUnit, &rng);
  std::vector<PointId> expected;
  snap->ForEachLive([&](PointId id, const Point& p) {
    if (area.Contains(p)) expected.push_back(id);
  });
  std::sort(expected.begin(), expected.end());
  for (int i = 0; i < 50; ++i) {
    std::vector<PointId> got;
    for (const PointId internal :
         snap->BaseQuery(DynamicMethod::kVoronoi).Run(area, ctx)) {
      if (!snap->IsTombstoned(internal)) {
        got.push_back(snap->StableId(internal));
      }
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
  churner.join();
  EXPECT_EQ(db.Compactions(), 5u);
  EXPECT_EQ(snap->live_size(), 1000u);
}

}  // namespace
}  // namespace vaq
