// The PR's acceptance property: under a randomized interleaved
// insert/delete/query stream, every dynamic method's result set is
// identical to a from-scratch `PointDatabase` built on the merged live
// point set — before and after compactions, whether threshold-triggered
// or explicit.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/dynamic_area_query.h"
#include "core/dynamic_point_database.h"
#include "workload/churn.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

TEST(DynamicChurnPropertyTest, ChurnStreamMatchesRebuildEverywhere) {
  // The full harness: 3000 mixed operations on a 2000-point database,
  // verifying against a from-scratch rebuild every 250 ops. The small
  // compaction threshold forces several threshold-triggered compactions
  // inside the stream, so verification points land on both sides of
  // multiple rebuilds.
  ChurnConfig config;
  config.initial_size = 2000;
  config.operations = 3000;
  config.insert_fraction = 0.40;
  config.erase_fraction = 0.30;
  config.query_size_fraction = 0.06;
  config.seed = 4242;
  config.verify_every = 250;
  config.compact_threshold = 300;
  const ChurnReport report = RunChurnExperiment(config);
  EXPECT_EQ(report.mismatches, 0u);
  EXPECT_GT(report.compactions, 1u);
  EXPECT_EQ(report.verifications, 12u);
  EXPECT_GT(report.queries, 0u);
  EXPECT_GT(report.inserts, 0u);
  EXPECT_GT(report.erases, 0u);
}

TEST(DynamicChurnPropertyTest, ExplicitCompactionBoundariesAreSeamless) {
  // Hand-rolled variant pinning the exact moments: compare all four
  // methods against the merged-set rebuild immediately before and
  // immediately after every explicit Compact().
  Rng rng(777);
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(GenerateUniformPoints(1500, kUnit, &rng),
                          options);
  constexpr DynamicMethod kMethods[] = {
      DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
      DynamicMethod::kGridSweep, DynamicMethod::kBruteForce};
  PolygonSpec spec;
  spec.query_size_fraction = 0.08;

  std::vector<PointId> live;
  db.snapshot()->ForEachLive(
      [&](PointId id, const Point&) { live.push_back(id); });

  QueryContext ctx;
  const auto verify_against_rebuild = [&](const char* when) {
    // Merged live set in stable ids, rebuilt from scratch.
    std::vector<PointId> ids;
    std::vector<Point> pts;
    db.snapshot()->ForEachLive([&](PointId id, const Point& p) {
      ids.push_back(id);
      pts.push_back(p);
    });
    const PointDatabase rebuilt(pts);
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
    }
  };

  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 150; ++i) {
      const auto id = db.Insert({rng.Uniform(0, 1), rng.Uniform(0, 1)});
      if (id.has_value()) live.push_back(*id);
    }
    for (int i = 0; i < 60 && !live.empty(); ++i) {
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
  EXPECT_EQ(db.Compactions(), 3u);
}

}  // namespace
}  // namespace vaq
