#include "core/area_query.h"

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "index/kdtree.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

class AreaQueryTest : public ::testing::Test {
 protected:
  AreaQueryTest() {
    Rng rng(42);
    db_ = std::make_unique<PointDatabase>(
        GenerateUniformPoints(2000, kUnit, &rng));
  }
  std::unique_ptr<PointDatabase> db_;
};

TEST_F(AreaQueryTest, AllThreeMethodsAgreeOnASquare) {
  const Polygon area = Polygon::FromBox(Box::FromExtents(0.2, 0.2, 0.6, 0.6));
  const auto brute = BruteForceAreaQuery(db_.get()).Run(area, nullptr);
  const auto trad = TraditionalAreaQuery(db_.get()).Run(area, nullptr);
  const auto vaq = VoronoiAreaQuery(db_.get()).Run(area, nullptr);
  EXPECT_FALSE(brute.empty());
  EXPECT_EQ(trad, brute);
  EXPECT_EQ(vaq, brute);
}

TEST_F(AreaQueryTest, ConcaveAreaAgrees) {
  // L-shaped concave area.
  const Polygon area({{0.1, 0.1},
                      {0.9, 0.1},
                      {0.9, 0.5},
                      {0.5, 0.5},
                      {0.5, 0.9},
                      {0.1, 0.9}});
  const auto brute = BruteForceAreaQuery(db_.get()).Run(area, nullptr);
  const auto trad = TraditionalAreaQuery(db_.get()).Run(area, nullptr);
  const auto vaq = VoronoiAreaQuery(db_.get()).Run(area, nullptr);
  EXPECT_EQ(trad, brute);
  EXPECT_EQ(vaq, brute);
}

TEST_F(AreaQueryTest, EmptyAreaReturnsNothing) {
  // Tiny polygon in a pointless corner (area smaller than point spacing,
  // placed in the gap off the data: no point inside).
  const Polygon area({{1e-7, 1e-7}, {2e-7, 1e-7}, {1.5e-7, 2e-7}});
  const auto trad = TraditionalAreaQuery(db_.get()).Run(area, nullptr);
  const auto vaq = VoronoiAreaQuery(db_.get()).Run(area, nullptr);
  EXPECT_EQ(trad, BruteForceAreaQuery(db_.get()).Run(area, nullptr));
  EXPECT_EQ(vaq, trad);
}

TEST_F(AreaQueryTest, WholeDomainReturnsEverything) {
  const Polygon area = Polygon::FromBox(Box::FromExtents(-0.1, -0.1, 1.1, 1.1));
  const auto vaq = VoronoiAreaQuery(db_.get()).Run(area, nullptr);
  EXPECT_EQ(vaq.size(), db_->size());
  const auto trad = TraditionalAreaQuery(db_.get()).Run(area, nullptr);
  EXPECT_EQ(trad.size(), db_->size());
}

TEST_F(AreaQueryTest, StatsSemantics) {
  const Polygon area = Polygon::FromBox(Box::FromExtents(0.3, 0.3, 0.7, 0.7));
  QueryStats trad_stats, vaq_stats;
  const auto trad = TraditionalAreaQuery(db_.get()).Run(area, &trad_stats);
  const auto vaq = VoronoiAreaQuery(db_.get()).Run(area, &vaq_stats);

  EXPECT_EQ(trad_stats.results, trad.size());
  EXPECT_EQ(vaq_stats.results, vaq.size());
  // For a rectangular area every MBR candidate is a result: traditional has
  // zero redundancy...
  EXPECT_EQ(trad_stats.RedundantValidations(), 0u);
  // ...while the Voronoi method still validates a boundary shell.
  EXPECT_GT(vaq_stats.RedundantValidations(), 0u);
  // Each candidate costs exactly one geometry load in both methods.
  EXPECT_EQ(trad_stats.geometry_loads, trad_stats.candidates);
  EXPECT_EQ(vaq_stats.geometry_loads, vaq_stats.candidates);
  // Both touched their index.
  EXPECT_GT(trad_stats.index_node_accesses, 0u);
  EXPECT_GT(vaq_stats.index_node_accesses, 0u);
  EXPECT_GT(vaq_stats.neighbor_expansions, 0u);
  EXPECT_GE(trad_stats.elapsed_ms, 0.0);
}

TEST_F(AreaQueryTest, VoronoiCandidatesAreFewerOnIrregularArea) {
  // The paper's headline effect: for a concave area the Voronoi method
  // validates fewer candidates than the window-filter method.
  Rng rng(7);
  int vaq_wins = 0;
  for (int i = 0; i < 20; ++i) {
    // A thin concave wedge: MBR much larger than the area.
    const double cx = rng.Uniform(0.3, 0.7), cy = rng.Uniform(0.3, 0.7);
    const Polygon area({{cx - 0.2, cy - 0.2},
                        {cx, cy - 0.18},
                        {cx + 0.2, cy - 0.2},
                        {cx, cy + 0.2}});
    QueryStats trad_stats, vaq_stats;
    TraditionalAreaQuery(db_.get()).Run(area, &trad_stats);
    VoronoiAreaQuery(db_.get()).Run(area, &vaq_stats);
    if (vaq_stats.candidates < trad_stats.candidates) ++vaq_wins;
  }
  EXPECT_GE(vaq_wins, 18);
}

TEST_F(AreaQueryTest, RepeatedRunsAreDeterministic) {
  const Polygon area({{0.2, 0.3}, {0.8, 0.25}, {0.7, 0.8}, {0.4, 0.6}});
  const VoronoiAreaQuery q(db_.get());
  const auto first = q.Run(area, nullptr);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(q.Run(area, nullptr), first);
  }
}

TEST_F(AreaQueryTest, AlternativeSeedIndexGivesSameResult) {
  // Paper: "the index used to provide the NN query in our method is also
  // R-tree" — but any correct NN index must give the same answer.
  KDTree kdtree;
  kdtree.Build(db_->points());
  const Polygon area({{0.2, 0.2}, {0.6, 0.3}, {0.7, 0.7}, {0.3, 0.6}});
  const VoronoiAreaQuery with_rtree(db_.get());
  const VoronoiAreaQuery with_kdtree(db_.get(), VoronoiAreaQuery::Options{},
                                     &kdtree);
  EXPECT_EQ(with_rtree.Run(area, nullptr), with_kdtree.Run(area, nullptr));
}

TEST(AreaQueryRangeTest, ExactAtTheCoordinateRangeLimits) {
  // The accepted range is [2^-100, 2^100] in magnitude. Near each end,
  // every method must still match brute force: scaling by a power of two
  // is exact, so the data and the polygons keep their unit-scale shape.
  struct Scale {
    Box domain;
    double factor;
  };
  const Scale scales[] = {
      {Box::FromExtents(-1, -1, 1, 1), 0x1p100},  // Extent 2^101.
      {Box::FromExtents(1, 1, 2, 2), 0x1p-100},   // Quantum 2^-152.
  };
  for (const Scale& scale : scales) {
    Rng rng(4242);
    std::vector<Point> points = GenerateUniformPoints(3000, scale.domain, &rng);
    for (Point& p : points) p = {p.x * scale.factor, p.y * scale.factor};
    const PointDatabase db(points);
    std::string why;
    EXPECT_TRUE(db.delaunay().CheckStructure(&why)) << why;
    const BruteForceAreaQuery brute(&db);
    const TraditionalAreaQuery traditional(&db);
    const VoronoiAreaQuery segment_rule(&db);
    VoronoiAreaQuery::Options dual_edge;
    dual_edge.expansion = VoronoiAreaQuery::ExpansionRule::kDualEdge;
    const VoronoiAreaQuery dual_edge_rule(&db, dual_edge);
    for (int q = 0; q < 30; ++q) {
      PolygonSpec spec;
      spec.query_size_fraction = 0.01 * (1 + q % 5);
      std::vector<Point> ring =
          GenerateQueryPolygon(spec, scale.domain, &rng).vertices();
      for (Point& v : ring) v = {v.x * scale.factor, v.y * scale.factor};
      const Polygon area(std::move(ring));
      const auto expected = brute.Run(area, nullptr);
      EXPECT_EQ(traditional.Run(area, nullptr), expected)
          << "scale " << scale.factor << " query " << q;
      EXPECT_EQ(segment_rule.Run(area, nullptr), expected)
          << "scale " << scale.factor << " query " << q;
      EXPECT_EQ(dual_edge_rule.Run(area, nullptr), expected)
          << "scale " << scale.factor << " query " << q;
    }
  }
}

TEST(AreaQuerySmallDbTest, SinglePointDatabase) {
  PointDatabase db(std::vector<Point>{{0.5, 0.5}});
  const Polygon inside = Polygon::FromBox(Box::FromExtents(0.4, 0.4, 0.6, 0.6));
  const Polygon outside = Polygon::FromBox(Box::FromExtents(0.7, 0.7, 0.9, 0.9));
  EXPECT_EQ(VoronoiAreaQuery(&db).Run(inside, nullptr).size(), 1u);
  EXPECT_TRUE(VoronoiAreaQuery(&db).Run(outside, nullptr).empty());
  EXPECT_EQ(TraditionalAreaQuery(&db).Run(inside, nullptr).size(), 1u);
  EXPECT_TRUE(TraditionalAreaQuery(&db).Run(outside, nullptr).empty());
}

TEST(AreaQuerySmallDbTest, SeedOutsideAreaStillCorrect) {
  // The NN of the interior position may lie outside A (sparse data): the
  // seed is then a boundary point and the flood must still find the result
  // through crossing edges (paper Property 9).
  PointDatabase db(std::vector<Point>{{0.05, 0.5},
                                      {0.95, 0.5},
                                      {0.5, 0.04},
                                      {0.5, 0.96},
                                      {0.54, 0.55},    // Decoy outside A.
                                      {0.59, 0.47}});  // The only point in A.
  const Polygon area({{0.45, 0.45}, {0.6, 0.45}, {0.6, 0.6}});
  ASSERT_FALSE(area.Contains({0.54, 0.55}));
  ASSERT_TRUE(area.Contains({0.59, 0.47}));
  // The decoy is the nearest point to A's interior point. Result ids live
  // in the database's internal (Hilbert-clustered) id space; OriginalId
  // maps them back to input positions.
  const Point seed_pos = area.InteriorPoint();
  EXPECT_EQ(db.OriginalId(db.rtree().NearestNeighbor(seed_pos)), 4u);
  const auto result = VoronoiAreaQuery(&db).Run(area, nullptr);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(db.OriginalId(result[0]), 5u);
}

}  // namespace
}  // namespace vaq
