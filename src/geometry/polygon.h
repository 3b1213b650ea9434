#ifndef VAQ_GEOMETRY_POLYGON_H_
#define VAQ_GEOMETRY_POLYGON_H_

#include <cstddef>
#include <ostream>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "geometry/segment.h"

namespace vaq {

/// A simple polygon (closed ring of vertices, no self-intersections, last
/// vertex implicitly connected to the first). Query areas in this library
/// are polygons; they may be concave — that is the whole point of the paper.
///
/// The vertex ring may be given in either winding order; `SignedArea()`
/// exposes the order, `Area()` is always non-negative.
class Polygon {
 public:
  Polygon() = default;

  /// Builds a polygon from a vertex ring. Precondition: `vertices.size() >= 3`
  /// and the ring is simple (not validated here; see `IsSimple()`).
  explicit Polygon(std::vector<Point> vertices);

  /// Number of vertices (== number of edges).
  std::size_t size() const { return vertices_.size(); }
  bool empty() const { return vertices_.empty(); }

  const std::vector<Point>& vertices() const { return vertices_; }
  const Point& vertex(std::size_t i) const { return vertices_[i]; }

  /// The i-th edge, from vertex i to vertex (i+1) mod n.
  Segment edge(std::size_t i) const {
    return Segment(vertices_[i], vertices_[(i + 1) % vertices_.size()]);
  }

  /// The cached MBR of the i-th edge (the per-edge fast-reject box the
  /// containment and intersection tests gate on; `PreparedArea` reuses it
  /// for its residual local tests).
  const Box& edge_bounds(std::size_t i) const { return edge_bounds_[i]; }

  /// The (cached) minimum bounding rectangle — exactly what the traditional
  /// area query feeds to the window-query filter.
  const Box& Bounds() const { return bounds_; }

  /// Signed area: positive for counter-clockwise rings (shoelace formula).
  double SignedArea() const;

  /// Absolute enclosed area.
  double Area() const;

  /// Total boundary length.
  double Perimeter() const;

  /// Area centroid. For concave polygons it may lie outside the polygon;
  /// use `InteriorPoint()` when a point strictly inside is needed.
  Point Centroid() const;

  /// A point guaranteed to lie strictly inside the polygon: the midpoint of
  /// the widest interior span of the horizontal scanline through the middle
  /// of the MBR (falls back to scanning other heights for degenerate cases).
  /// This provides the "arbitrary position in A" the paper's Algorithm 1
  /// seeds from. Precondition: `size() >= 3` and positive area.
  Point InteriorPoint() const;

  /// True if `p` is inside the polygon or exactly on its boundary.
  /// Robust crossing-number test built on the exact orientation predicate.
  bool Contains(const Point& p) const;

  /// True if `p` lies exactly on the boundary.
  bool OnBoundary(const Point& p) const;

  /// True if segment `s` intersects the polygon *boundary or interior*:
  /// i.e. either an endpoint is inside, or the segment crosses an edge.
  /// This is the `Intersects(line, A)` primitive of the paper's Algorithm 1.
  bool Intersects(const Segment& s) const;

  /// True if segment `s` crosses or touches the boundary ring (ignores
  /// full containment in the interior).
  bool BoundaryIntersects(const Segment& s) const;

  /// True if the box and the polygon share at least one point.
  bool IntersectsBox(const Box& box) const;

  /// O(n^2) simplicity check (adjacent edges may share their common vertex).
  /// Intended for validation in tests and debug assertions, not hot paths.
  bool IsSimple() const;

  /// Returns this polygon with the ring order reversed.
  Polygon Reversed() const;

  /// Convenience factory: axis-aligned rectangle as a 4-gon.
  static Polygon FromBox(const Box& box);

  /// Convenience factory: regular n-gon centred at `center`.
  static Polygon RegularNGon(const Point& center, double radius, int n);

 private:
  std::vector<Point> vertices_;
  std::vector<Box> edge_bounds_;  // Cached per-edge MBRs for fast rejects.
  Box bounds_;
};

std::ostream& operator<<(std::ostream& os, const Polygon& poly);

}  // namespace vaq

#endif  // VAQ_GEOMETRY_POLYGON_H_
