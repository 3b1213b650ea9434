// Parameterised equivalence sweeps: on the paper's workload (random
// star-shaped decagons over uniform/clustered/grid points), the traditional
// and Voronoi-based area queries must return exactly the brute-force result
// set, across data sizes, query sizes and seeds. This is the end-to-end
// correctness property behind every number in EXPERIMENTS.md.

#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/grid_sweep_area_query.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
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

}  // namespace
}  // namespace vaq
