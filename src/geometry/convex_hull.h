#ifndef VAQ_GEOMETRY_CONVEX_HULL_H_
#define VAQ_GEOMETRY_CONVEX_HULL_H_

#include <vector>

#include "geometry/point.h"
#include "geometry/polygon.h"

namespace vaq {

/// Convex hull of `points` (Andrew's monotone chain, O(n log n)), returned
/// as a counter-clockwise vertex ring with collinear boundary points
/// removed. Returns an empty vector when fewer than 3 non-collinear points
/// exist. Used by tests (hull vertices have unbounded Voronoi cells).
std::vector<Point> ConvexHull(std::vector<Point> points);

/// Convenience wrapper returning the hull as a `Polygon`.
/// Precondition: `points` spans at least 3 non-collinear locations.
Polygon ConvexHullPolygon(std::vector<Point> points);

}  // namespace vaq

#endif  // VAQ_GEOMETRY_CONVEX_HULL_H_
