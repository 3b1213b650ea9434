#include "delaunay/voronoi.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/point_database.h"

#include "workload/point_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

TEST(VoronoiTest, TwoByTwoGridCellsAreQuadrants) {
  // Four symmetric generators: cells are the four quadrants of the box.
  DelaunayTriangulation dt(
      {{0.25, 0.25}, {0.75, 0.25}, {0.25, 0.75}, {0.75, 0.75}});
  VoronoiDiagram vd(dt, kUnit);
  ASSERT_EQ(vd.size(), 4u);
  for (PointId v = 0; v < 4; ++v) {
    EXPECT_NEAR(vd.CellArea(v), 0.25, 1e-9);
    EXPECT_TRUE(vd.CellContains(v, vd.generator(v)));
  }
  EXPECT_NEAR(vd.TotalArea(), 1.0, 1e-9);
}

TEST(VoronoiTest, CellsContainTheirGenerators) {
  Rng rng(200);
  DelaunayTriangulation dt(GenerateUniformPoints(500, kUnit, &rng));
  VoronoiDiagram vd(dt, kUnit);
  for (PointId v = 0; v < vd.size(); ++v) {
    EXPECT_TRUE(vd.CellContains(v, vd.generator(v))) << "cell " << v;
  }
}

TEST(VoronoiTest, DiagramOfDatabaseDelaunayIsConsistent) {
  Rng rng(13);
  const auto points = GenerateUniformPoints(200, kUnit, &rng);
  PointDatabase db(points);
  const VoronoiDiagram vd(db.delaunay(), kUnit);
  EXPECT_EQ(vd.size(), 200u);
  // Every generator sits in its own cell (ids are internal, so the
  // generator of cell v is the v-th *stored* point).
  for (PointId v = 0; v < vd.size(); ++v) {
    EXPECT_EQ(vd.generator(v), db.points()[v]);
    EXPECT_TRUE(vd.CellContains(v, db.points()[v]));
  }
}

TEST(VoronoiTest, CellsTileTheClipBox) {
  // Property 1 (implicitly): the diagram partitions space — clipped cell
  // areas must sum to the clip-box area.
  Rng rng(201);
  DelaunayTriangulation dt(GenerateUniformPoints(300, kUnit, &rng));
  VoronoiDiagram vd(dt, kUnit);
  EXPECT_NEAR(vd.TotalArea(), kUnit.Area(), 1e-6);
}

TEST(VoronoiTest, NearestGeneratorOwnsTheCell) {
  // Paper Property 3: q lies in V(P, p') iff p' is the nearest point to q.
  Rng rng(202);
  const auto points = GenerateUniformPoints(400, kUnit, &rng);
  DelaunayTriangulation dt(points);
  VoronoiDiagram vd(dt, kUnit);
  Rng qrng(203);
  for (int i = 0; i < 200; ++i) {
    const Point q{qrng.Uniform(0, 1), qrng.Uniform(0, 1)};
    PointId nn = 0;
    double best = 1e300;
    for (PointId v = 0; v < points.size(); ++v) {
      const double d = SquaredDistance(points[v], q);
      if (d < best) {
        best = d;
        nn = v;
      }
    }
    EXPECT_TRUE(vd.CellContains(nn, q)) << "query " << q;
  }
}

TEST(VoronoiTest, NearestNeighborOfGeneratorIsVoronoiNeighbor) {
  // Paper Property 2: the nearest generator to p is one of p's Voronoi
  // neighbours (shares a Voronoi edge <=> Delaunay-adjacent).
  Rng rng(204);
  const auto points = GenerateUniformPoints(300, kUnit, &rng);
  DelaunayTriangulation dt(points);
  for (PointId v = 0; v < points.size(); ++v) {
    PointId nn = kInvalidPointId;
    double best = 1e300;
    for (PointId u = 0; u < points.size(); ++u) {
      if (u == v) continue;
      const double d = SquaredDistance(points[u], points[v]);
      if (d < best) {
        best = d;
        nn = u;
      }
    }
    const auto nbrs = dt.NeighborsOf(v);
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), nn), nbrs.end());
  }
}

TEST(VoronoiTest, CellsAreConvex) {
  Rng rng(205);
  DelaunayTriangulation dt(GenerateUniformPoints(200, kUnit, &rng));
  VoronoiDiagram vd(dt, kUnit);
  for (PointId v = 0; v < vd.size(); ++v) {
    const auto& ring = vd.cell(v);
    if (ring.size() < 3) continue;
    // Signed areas of consecutive triplets never flip sign.
    int sign = 0;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const Point& a = ring[i];
      const Point& b = ring[(i + 1) % ring.size()];
      const Point& c = ring[(i + 2) % ring.size()];
      const double cross = (b - a).Cross(c - b);
      if (std::abs(cross) < 1e-15) continue;
      const int s = cross > 0 ? 1 : -1;
      if (sign == 0) sign = s;
      EXPECT_EQ(s, sign) << "reflex corner in cell " << v;
    }
  }
}

TEST(VoronoiTest, DiagramDeterministicForSamePoints) {
  // Paper Property 1: the Voronoi diagram of a point set is unique. Two
  // builds over the same points must produce identical cells.
  Rng rng(206);
  const auto points = GenerateUniformPoints(150, kUnit, &rng);
  DelaunayTriangulation dt1(points);
  DelaunayTriangulation dt2(points);
  VoronoiDiagram vd1(dt1, kUnit);
  VoronoiDiagram vd2(dt2, kUnit);
  ASSERT_EQ(vd1.size(), vd2.size());
  for (PointId v = 0; v < vd1.size(); ++v) {
    EXPECT_NEAR(vd1.CellArea(v), vd2.CellArea(v), 1e-9);
  }
}

}  // namespace
}  // namespace vaq
