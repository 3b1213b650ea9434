// Parameterised equivalence sweeps: on the paper's workload (random
// star-shaped decagons over uniform/clustered/grid points), the traditional
// and Voronoi-based area queries must return exactly the brute-force result
// set, across data sizes, query sizes and seeds. This is the end-to-end
// correctness property behind every number in EXPERIMENTS.md.

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/grid_sweep_area_query.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "geometry/wkt.h"
#include "planner/query_plan.h"
#include "shard/sharded_database.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

using Param = std::tuple<PointDistribution, std::size_t /*n*/,
                         double /*query size*/>;

class AreaQueryPropertyTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const auto [distribution, n, query_size] = GetParam();
    Rng rng(555 + n);
    db_ = std::make_unique<PointDatabase>(
        GeneratePoints(n, kUnit, distribution, &rng));
    spec_.query_size_fraction = query_size;
  }

  std::unique_ptr<PointDatabase> db_;
  PolygonSpec spec_;
};

TEST_P(AreaQueryPropertyTest, BothMethodsMatchBruteForce) {
  const TraditionalAreaQuery trad(db_.get());
  const VoronoiAreaQuery vaq(db_.get());
  const BruteForceAreaQuery brute(db_.get());
  Rng qrng(4242);
  for (int rep = 0; rep < 25; ++rep) {
    const Polygon area = GenerateQueryPolygon(spec_, kUnit, &qrng);
    ASSERT_TRUE(area.IsSimple());
    const auto truth = brute.Run(area, nullptr);
    EXPECT_EQ(trad.Run(area, nullptr), truth) << "rep " << rep;
    EXPECT_EQ(vaq.Run(area, nullptr), truth) << "rep " << rep;
  }
}

TEST_P(AreaQueryPropertyTest, CellOverlapExpansionMatchesToo) {
  VoronoiAreaQuery::Options options;
  options.expansion = VoronoiAreaQuery::ExpansionRule::kCellOverlap;
  const VoronoiAreaQuery vaq(db_.get(), options);
  const BruteForceAreaQuery brute(db_.get());
  Rng qrng(777);
  for (int rep = 0; rep < 10; ++rep) {
    const Polygon area = GenerateQueryPolygon(spec_, kUnit, &qrng);
    EXPECT_EQ(vaq.Run(area, nullptr), brute.Run(area, nullptr))
        << "rep " << rep;
  }
}

TEST_P(AreaQueryPropertyTest, CandidateCountBounds) {
  // Structural bounds that must hold for every query:
  //  * traditional candidates == points in MBR(A) >= results;
  //  * Voronoi candidates >= results and <= traditional candidates +
  //    boundary shell (the shell can exceed the MBR population only on
  //    tiny queries, so we assert the paper's regime on larger ones).
  const TraditionalAreaQuery trad(db_.get());
  const VoronoiAreaQuery vaq(db_.get());
  Rng qrng(31337);
  for (int rep = 0; rep < 15; ++rep) {
    const Polygon area = GenerateQueryPolygon(spec_, kUnit, &qrng);
    QueryStats ts, vs;
    trad.Run(area, &ts);
    vaq.Run(area, &vs);
    EXPECT_GE(ts.candidates, ts.results);
    EXPECT_GE(vs.candidates, vs.results);
    EXPECT_EQ(ts.results, vs.results);
    if (ts.results > 200) {
      EXPECT_LT(vs.candidates, ts.candidates)
          << "Voronoi candidates should beat the window filter";
    }
  }
}

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  const auto [distribution, n, query_size] = info.param;
  return std::string(PointDistributionName(distribution)) + "_n" +
         std::to_string(n) + "_q" +
         std::to_string(static_cast<int>(query_size * 1000));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, AreaQueryPropertyTest,
    ::testing::Combine(::testing::Values(PointDistribution::kUniform,
                                         PointDistribution::kClustered,
                                         PointDistribution::kGrid),
                       ::testing::Values<std::size_t>(300, 3000),
                       ::testing::Values(0.01, 0.08, 0.32)),
    ParamName);

TEST(AreaQueryStarPolygonTest, PentagramMethodsMatchBruteForce) {
  // A self-intersecting ring: every vertex turns the same way, so a
  // convexity test that only checks turn signs mistakes it for convex and
  // the vector arm's half-plane kernel returns just the inner pentagon.
  // The answer is the even-odd region (the five tips) on every method.
  Rng rng(7);
  const PointDatabase db(GenerateUniformPoints(100000, kUnit, &rng));
  const Polygon pentagram(
      {{0.5, 0.9}, {0.26, 0.18}, {0.88, 0.62}, {0.12, 0.62}, {0.74, 0.18}});
  const auto truth = BruteForceAreaQuery(&db).Run(pentagram, nullptr);
  EXPECT_EQ(truth.size(), 12300u);
  EXPECT_EQ(TraditionalAreaQuery(&db).Run(pentagram, nullptr), truth);
  EXPECT_EQ(VoronoiAreaQuery(&db).Run(pentagram, nullptr), truth);
  VoronoiAreaQuery::Options cell_overlap;
  cell_overlap.expansion = VoronoiAreaQuery::ExpansionRule::kCellOverlap;
  EXPECT_EQ(VoronoiAreaQuery(&db, cell_overlap).Run(pentagram, nullptr),
            truth);
  EXPECT_EQ(GridSweepAreaQuery(&db).Run(pentagram, nullptr), truth);
}

TEST(AreaQueryStarPolygonTest, ThinSpikeStarExactPaths) {
  // A simple 36-vertex star of nine ~0.005-wide spikes. Its interior
  // point lies in a spike, and the nearest site to it lies outside the
  // area with no Delaunay edge crossing a spike, so the paper's segment
  // rule never starts its flood and returns nothing. The paths below
  // are exact on it. The vertices are the full-precision text: rounding
  // them hides the miss.
  constexpr const char* kStarWkt =
      "POLYGON ((0.68896177615586496 0.46135927480470768, "
      "0.86811906778459647 0.46135927480470768, "
      "0.86811906778459647 0.46650164168540414, "
      "0.68896177615586496 0.46650164168540414, "
      "0.6849778759673425 0.47744731749473079, "
      "0.8222203236637784 0.59260740473867723, "
      "0.81891487394840423 0.59654668631211394, "
      "0.68167242625196833 0.48138659906816739, "
      "0.67158483686072912 0.4872106715186737, "
      "0.70269517406780124 0.66364616132331755, "
      "0.6976309312948582 0.6645391239610452, "
      "0.66652059408778608 0.48810363415640146, "
      "0.65504941068105926 0.48608095502114024, "
      "0.56547076486669356 0.64123572084483882, "
      "0.56101734451243057 0.6386645374044907, "
      "0.65059599032679627 0.483509771580792, "
      "0.64310870710859191 0.47458677490672657, "
      "0.474755922205084 0.53586217746742393, "
      "0.47299712914751502 0.53102993325625958, "
      "0.64134991405102304 0.46975453069556222, "
      "0.64134991405102304 0.4581063857945496, "
      "0.47299712914751502 0.39683098323385224, "
      "0.474755922205084 0.39199873902268789, "
      "0.64310870710859191 0.45327414158338525, "
      "0.65059599032679638 0.44435114490931982, "
      "0.56101734451243057 0.28919637908562129, "
      "0.56547076486669334 0.28662519564527306, "
      "0.65504941068105915 0.44177996146897158, "
      "0.66652059408778608 0.43975728233371036, "
      "0.69763093129485809 0.26332179252906646, "
      "0.70269517406780113 0.26421475516679421, "
      "0.67158483686072912 0.44065024497143812, "
      "0.68167242625196833 0.44647431742194443, "
      "0.81891487394840423 0.33131423017799788, "
      "0.8222203236637784 0.33525351175143447, "
      "0.6849778759673425 0.45041359899538103, "
      "0.68896177615586496 0.46135927480470768))";
  Rng rng(2000);
  const std::vector<Point> points = GenerateUniformPoints(2000, kUnit, &rng);
  const PointDatabase db(points);
  const Polygon star = ParseWktPolygon(kStarWkt);
  ASSERT_EQ(star.size(), 36u);
  const auto truth = BruteForceAreaQuery(&db).Run(star, nullptr);
  EXPECT_EQ(truth.size(), 21u);
  EXPECT_EQ(TraditionalAreaQuery(&db).Run(star, nullptr), truth);
  EXPECT_EQ(GridSweepAreaQuery(&db).Run(star, nullptr), truth);
  VoronoiAreaQuery::Options cell_overlap;
  cell_overlap.expansion = VoronoiAreaQuery::ExpansionRule::kCellOverlap;
  EXPECT_EQ(VoronoiAreaQuery(&db, cell_overlap).Run(star, nullptr), truth);

  // Sharded answers speak input positions.
  std::vector<PointId> truth_ids;
  for (const PointId id : truth) truth_ids.push_back(db.OriginalId(id));
  std::sort(truth_ids.begin(), truth_ids.end());
  PlanHints voronoi;
  voronoi.force_method = DynamicMethod::kVoronoi;
  for (const std::size_t k : {1u, 4u}) {
    ShardedDatabase::Options options;
    options.num_shards = k;
    const ShardedDatabase sharded(points, options);
    QueryContext ctx;
    EXPECT_EQ(sharded.Query(star, ctx, voronoi), truth_ids) << "K=" << k;
  }
}

}  // namespace
}  // namespace vaq
