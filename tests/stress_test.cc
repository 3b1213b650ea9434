// Cross-module stress and degenerate-input tests: the scenarios most
// likely to corrupt a computational-geometry stack — exact grids
// (cocircular quadruples everywhere), points exactly on query boundaries,
// larger-scale equivalence, and repeated mixed operations.

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "delaunay/voronoi.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

TEST(StressTest, ExactGridVoronoiStillTiles) {
  // 20x20 exact integer grid: every interior quadruple is cocircular.
  std::vector<Point> points;
  for (int y = 0; y < 20; ++y) {
    for (int x = 0; x < 20; ++x) {
      points.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  DelaunayTriangulation dt(points);
  const Box clip = Box::FromExtents(0, 0, 19, 19);
  VoronoiDiagram vd(dt, clip);
  EXPECT_NEAR(vd.TotalArea(), clip.Area(), 1e-6);
  for (PointId v = 0; v < vd.size(); ++v) {
    EXPECT_TRUE(vd.CellContains(v, dt.point(v)));
  }
}

TEST(StressTest, QueryBoundaryThroughGridPoints) {
  // A rectangle query whose edges pass exactly through data points: the
  // boundary-inclusive Contains semantics must agree across all methods.
  std::vector<Point> points;
  for (int y = 0; y < 15; ++y) {
    for (int x = 0; x < 15; ++x) {
      points.push_back({x * 0.0625, y * 0.0625});
    }
  }
  PointDatabase db(points);
  // Edges at exact multiples of the grid pitch.
  const Polygon area = Polygon::FromBox(Box::FromExtents(0.125, 0.125, 0.5, 0.5));
  const auto truth = BruteForceAreaQuery(&db).Run(area, nullptr);
  // 0.125..0.5 in steps of 0.0625: 7 positions per axis => 49 points,
  // including all boundary points.
  EXPECT_EQ(truth.size(), 49u);
  EXPECT_EQ(TraditionalAreaQuery(&db).Run(area, nullptr), truth);
  EXPECT_EQ(VoronoiAreaQuery(&db).Run(area, nullptr), truth);
}

TEST(StressTest, LargeScaleEquivalence) {
  Rng rng(20260611);
  PointDatabase db(GenerateUniformPoints(100000, kUnit, &rng));
  const TraditionalAreaQuery trad(&db);
  const VoronoiAreaQuery vaq(&db);
  Rng qrng(1);
  for (const double qs : {0.01, 0.32}) {
    PolygonSpec spec;
    spec.query_size_fraction = qs;
    for (int rep = 0; rep < 3; ++rep) {
      const Polygon area = GenerateQueryPolygon(spec, kUnit, &qrng);
      const auto t = trad.Run(area, nullptr);
      EXPECT_EQ(vaq.Run(area, nullptr), t);
    }
  }
}

TEST(StressTest, ManySmallQueriesInterleaved) {
  // Interleave the three methods over 100 tiny queries: epoch bookkeeping
  // in VoronoiAreaQuery must never bleed state between queries.
  Rng rng(2);
  PointDatabase db(GenerateUniformPoints(5000, kUnit, &rng));
  const TraditionalAreaQuery trad(&db);
  const VoronoiAreaQuery vaq(&db);
  Rng qrng(3);
  PolygonSpec spec;
  spec.query_size_fraction = 0.002;
  for (int rep = 0; rep < 100; ++rep) {
    const Polygon area = GenerateQueryPolygon(spec, kUnit, &qrng);
    EXPECT_EQ(vaq.Run(area, nullptr), trad.Run(area, nullptr)) << rep;
  }
}

TEST(StressTest, ClusterVoidQueries) {
  // Clustered data with queries landing in density voids: the Voronoi
  // flood crosses large empty cells; results must still match.
  Rng rng(4);
  PointDatabase db(GenerateClusteredPoints(20000, kUnit, 5, 0.02, &rng));
  const TraditionalAreaQuery trad(&db);
  const VoronoiAreaQuery vaq(&db);
  Rng qrng(5);
  PolygonSpec spec;
  spec.query_size_fraction = 0.05;
  int nonempty = 0;
  for (int rep = 0; rep < 40; ++rep) {
    const Polygon area = GenerateQueryPolygon(spec, kUnit, &qrng);
    const auto t = trad.Run(area, nullptr);
    EXPECT_EQ(vaq.Run(area, nullptr), t) << rep;
    if (!t.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 10);  // The sweep actually hit clusters.
}

TEST(StressTest, NearDuplicateCoordinates) {
  // Points one ulp apart: distinct for the triangulation, brutal for
  // floating-point filters.
  std::vector<Point> points;
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    const double x = rng.Uniform(0, 1);
    const double y = rng.Uniform(0, 1);
    points.push_back({x, y});
    points.push_back({std::nextafter(x, 2.0), y});
  }
  PointDatabase db(points);
  const Polygon area = Polygon::FromBox(Box::FromExtents(0.25, 0.25, 0.75, 0.75));
  EXPECT_EQ(VoronoiAreaQuery(&db).Run(area, nullptr),
            BruteForceAreaQuery(&db).Run(area, nullptr));
}

TEST(StressTest, ThinSliverPolygonQueries) {
  // Extremely thin query polygons (worst case for the window filter and a
  // stress for the segment-expansion rule).
  Rng rng(7);
  PointDatabase db(GenerateUniformPoints(30000, kUnit, &rng));
  const TraditionalAreaQuery trad(&db);
  const VoronoiAreaQuery vaq(&db);
  for (int rep = 0; rep < 10; ++rep) {
    const double y = 0.05 + rep * 0.09;
    // A long, nearly-degenerate sliver across the whole domain.
    const Polygon sliver({{0.02, y},
                          {0.98, y + 0.001},
                          {0.98, y + 0.004},
                          {0.02, y + 0.003}});
    EXPECT_EQ(vaq.Run(sliver, nullptr), trad.Run(sliver, nullptr)) << rep;
  }
}

}  // namespace
}  // namespace vaq
