#include "geometry/polygon.h"

#include <cmath>

#include <gtest/gtest.h>

#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

Polygon UnitSquare() {
  return Polygon({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
}

// A concave "L" shape: unit square minus its top-right quadrant.
Polygon LShape() {
  return Polygon({{0, 0}, {1, 0}, {1, 0.5}, {0.5, 0.5}, {0.5, 1}, {0, 1}});
}

TEST(PolygonTest, AreaAndPerimeter) {
  const Polygon sq = UnitSquare();
  EXPECT_DOUBLE_EQ(sq.Area(), 1.0);
  EXPECT_DOUBLE_EQ(sq.SignedArea(), 1.0);  // CCW.
  EXPECT_DOUBLE_EQ(sq.Perimeter(), 4.0);
  EXPECT_DOUBLE_EQ(sq.Reversed().SignedArea(), -1.0);
  EXPECT_DOUBLE_EQ(LShape().Area(), 0.75);
}

TEST(PolygonTest, BoundsAndCentroid) {
  const Polygon sq = UnitSquare();
  EXPECT_EQ(sq.Bounds(), Box::FromExtents(0, 0, 1, 1));
  EXPECT_EQ(sq.Centroid(), Point(0.5, 0.5));
  const Polygon tri({{0, 0}, {3, 0}, {0, 3}});
  EXPECT_NEAR(tri.Centroid().x, 1.0, 1e-12);
  EXPECT_NEAR(tri.Centroid().y, 1.0, 1e-12);
}

TEST(PolygonTest, ContainsInteriorExteriorBoundary) {
  const Polygon sq = UnitSquare();
  EXPECT_TRUE(sq.Contains({0.5, 0.5}));
  EXPECT_FALSE(sq.Contains({1.5, 0.5}));
  EXPECT_FALSE(sq.Contains({0.5, -0.1}));
  // Boundary counts as contained.
  EXPECT_TRUE(sq.Contains({0.5, 0.0}));
  EXPECT_TRUE(sq.Contains({0.0, 0.0}));
  EXPECT_TRUE(sq.Contains({1.0, 1.0}));
  EXPECT_TRUE(sq.Contains({1.0, 0.25}));
}

TEST(PolygonTest, ContainsConcave) {
  const Polygon l = LShape();
  EXPECT_TRUE(l.Contains({0.25, 0.75}));   // In the vertical arm.
  EXPECT_TRUE(l.Contains({0.75, 0.25}));   // In the horizontal arm.
  EXPECT_FALSE(l.Contains({0.75, 0.75}));  // The notch (inside MBR!).
  EXPECT_TRUE(l.Contains({0.5, 0.75}));    // On the notch edge.
}

TEST(PolygonTest, ContainsIsWindingOrderAgnostic) {
  const Polygon l = LShape();
  const Polygon lr = l.Reversed();
  for (double x = 0.05; x < 1.0; x += 0.1) {
    for (double y = 0.05; y < 1.0; y += 0.1) {
      EXPECT_EQ(l.Contains({x, y}), lr.Contains({x, y}))
          << "at (" << x << ", " << y << ")";
    }
  }
}

TEST(PolygonTest, OnBoundary) {
  const Polygon sq = UnitSquare();
  EXPECT_TRUE(sq.OnBoundary({0.5, 0}));
  EXPECT_TRUE(sq.OnBoundary({1, 1}));
  EXPECT_FALSE(sq.OnBoundary({0.5, 0.5}));
  EXPECT_FALSE(sq.OnBoundary({2, 2}));
}

TEST(PolygonTest, InteriorPointIsInside) {
  EXPECT_TRUE(UnitSquare().Contains(UnitSquare().InteriorPoint()));
  EXPECT_TRUE(LShape().Contains(LShape().InteriorPoint()));
  // A crescent-ish concave polygon whose centroid is outside.
  const Polygon crescent({{0, 0},
                          {4, 0},
                          {4, 4},
                          {0, 4},
                          {0, 3.5},
                          {3.5, 3.5},
                          {3.5, 0.5},
                          {0, 0.5}});
  EXPECT_FALSE(crescent.Contains(crescent.Centroid()));
  EXPECT_TRUE(crescent.Contains(crescent.InteriorPoint()));
}

TEST(PolygonTest, SegmentIntersection) {
  const Polygon sq = UnitSquare();
  // Fully inside.
  EXPECT_TRUE(sq.Intersects(Segment{{0.2, 0.2}, {0.8, 0.8}}));
  // Crossing one edge.
  EXPECT_TRUE(sq.Intersects(Segment{{0.5, 0.5}, {2, 0.5}}));
  // Crossing through (both endpoints outside).
  EXPECT_TRUE(sq.Intersects(Segment{{-1, 0.5}, {2, 0.5}}));
  // Fully outside.
  EXPECT_FALSE(sq.Intersects(Segment{{2, 2}, {3, 3}}));
  // Outside but MBR-overlapping (diagonal clipping past the corner).
  EXPECT_FALSE(sq.Intersects(Segment{{1.2, 0.9}, {0.9, 1.2}}));
  // Touching a corner.
  EXPECT_TRUE(sq.Intersects(Segment{{1, 1}, {2, 2}}));
}

TEST(PolygonTest, SegmentIntersectionConcaveNotch) {
  const Polygon l = LShape();
  // A segment living entirely in the notch (inside the MBR, outside A).
  EXPECT_FALSE(l.Intersects(Segment{{0.7, 0.7}, {0.9, 0.9}}));
  // A segment spanning the notch from arm to arm.
  EXPECT_TRUE(l.Intersects(Segment{{0.25, 0.75}, {0.75, 0.25}}));
}

TEST(PolygonTest, BoundaryIntersects) {
  const Polygon sq = UnitSquare();
  EXPECT_TRUE(sq.BoundaryIntersects(Segment{{0.5, 0.5}, {2, 0.5}}));
  EXPECT_FALSE(sq.BoundaryIntersects(Segment{{0.2, 0.2}, {0.8, 0.8}}));
  EXPECT_FALSE(sq.BoundaryIntersects(Segment{{2, 2}, {3, 3}}));
}

TEST(PolygonTest, IsSimple) {
  EXPECT_TRUE(UnitSquare().IsSimple());
  EXPECT_TRUE(LShape().IsSimple());
  // Bowtie: self-crossing.
  const Polygon bowtie({{0, 0}, {1, 1}, {1, 0}, {0, 1}});
  EXPECT_FALSE(bowtie.IsSimple());
}

TEST(PolygonTest, FactoryFromBox) {
  const Polygon p = Polygon::FromBox(Box::FromExtents(1, 2, 3, 5));
  EXPECT_EQ(p.size(), 4u);
  EXPECT_DOUBLE_EQ(p.Area(), 6.0);
  EXPECT_GT(p.SignedArea(), 0.0);  // CCW.
}

TEST(PolygonTest, FactoryRegularNGon) {
  const Polygon hex = Polygon::RegularNGon({0, 0}, 1.0, 6);
  EXPECT_EQ(hex.size(), 6u);
  // Area of unit-circumradius hexagon: 3*sqrt(3)/2.
  EXPECT_NEAR(hex.Area(), 3.0 * std::sqrt(3.0) / 2.0, 1e-12);
  EXPECT_TRUE(hex.Contains({0, 0}));
  EXPECT_TRUE(hex.IsSimple());
}

TEST(PolygonTest, EdgeAccessorWraps) {
  const Polygon sq = UnitSquare();
  EXPECT_EQ(sq.edge(3).a, Point(0, 1));
  EXPECT_EQ(sq.edge(3).b, Point(0, 0));  // Wraps to vertex 0.
}

TEST(PolygonBoxTest, IntersectsBoxBasics) {
  const Polygon l = LShape();
  EXPECT_TRUE(l.IntersectsBox(Box::FromExtents(0.1, 0.1, 0.2, 0.2)));
  // Notch box: inside the MBR, outside the polygon.
  EXPECT_FALSE(l.IntersectsBox(Box::FromExtents(0.6, 0.6, 0.9, 0.9)));
  // Far away.
  EXPECT_FALSE(l.IntersectsBox(Box::FromExtents(2, 2, 3, 3)));
  // Straddling an edge.
  EXPECT_TRUE(l.IntersectsBox(Box::FromExtents(0.4, 0.4, 0.6, 0.6)));
  // Polygon entirely inside the box.
  EXPECT_TRUE(l.IntersectsBox(Box::FromExtents(-1, -1, 2, 2)));
}

TEST(PolygonBoxTest, RandomizedAgainstSampling) {
  // Cross-check IntersectsBox against dense point sampling.
  constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};
  Rng rng(404);
  PolygonSpec spec;
  spec.query_size_fraction = 0.2;
  for (int trial = 0; trial < 20; ++trial) {
    const Polygon poly = GenerateQueryPolygon(spec, kUnit, &rng);
    const double x0 = rng.Uniform(0.0, 0.9);
    const double y0 = rng.Uniform(0.0, 0.9);
    const Box box = Box::FromExtents(x0, y0, x0 + rng.Uniform(0.01, 0.1),
                                     y0 + rng.Uniform(0.01, 0.1));
    int inside_samples = 0;
    const int kSamples = 15;
    for (int sx = 0; sx <= kSamples; ++sx) {
      for (int sy = 0; sy <= kSamples; ++sy) {
        const Point p{box.min.x + box.Width() * sx / kSamples,
                      box.min.y + box.Height() * sy / kSamples};
        if (poly.Contains(p)) ++inside_samples;
      }
    }
    const int total = (kSamples + 1) * (kSamples + 1);
    if (!poly.IntersectsBox(box)) {
      EXPECT_EQ(inside_samples, 0) << "trial " << trial;
    }
    if (inside_samples == total) {
      // Fully sampled-inside boxes must at least intersect.
      EXPECT_TRUE(poly.IntersectsBox(box)) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace vaq
