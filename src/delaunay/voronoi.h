#ifndef VAQ_DELAUNAY_VORONOI_H_
#define VAQ_DELAUNAY_VORONOI_H_

#include <span>
#include <vector>

#include "delaunay/triangulation.h"
#include "geometry/box.h"
#include "geometry/point.h"
#include "geometry/polygon.h"

namespace vaq {

/// Writes the Voronoi cell of generator `v` into `ring` (cleared first):
/// by duality (paper Property 4) it is the polygon of the circumcentres of
/// the triangles incident to `v`, in CCW fan order. The fan includes the
/// triangles on the finite super triangle, so every ring is bounded, and
/// the rings of the real points together with the (unbounded) cells of
/// the three super vertices tile the plane. Returns true if the fan
/// touches a super vertex: then `v` is a hull-side generator whose true
/// cell, in the diagram of the real points alone, extends beyond `ring`.
/// A circumcentre may be non-finite when a sliver's orientation rounds to
/// zero; callers that need a sound answer must treat such a ring as
/// unknown.
bool FanCellRing(const DelaunayTriangulation& dt, PointId v,
                 std::vector<Point>& ring);

/// True if `q` lies in the convex `ring` or on its boundary, for either
/// orientation: `q` must not lie strictly on both sides of the ring's
/// edges. A ring of fewer than three vertices contains nothing.
bool ConvexRingContains(std::span<const Point> ring, const Point& q);

/// Explicit Voronoi diagram: every cell from `FanCellRing`, clipped to a
/// caller-provided box (typically the data domain), which also trims the
/// far circumcentres the super triangle introduces.
///
/// Algorithm 1 itself never materialises cells — it walks Voronoi
/// neighbours (see `DelaunayTriangulation::NeighborsOf`) and computes a
/// neighbour's cell from its fan only when the cell-overlap rule tests it
/// (see `VoronoiAreaQuery`). The diagram is part of the library's public
/// surface for the examples, and lets tests verify the paper's
/// Properties 1-3 directly.
class VoronoiDiagram {
 public:
  /// Builds the diagram of `dt`'s points, cells clipped to `clip_box`.
  VoronoiDiagram(const DelaunayTriangulation& dt, const Box& clip_box);

  /// Number of generators (== dt.num_points()).
  std::size_t size() const { return cells_.size(); }

  /// The generator point of cell `v`.
  const Point& generator(PointId v) const { return generators_[v]; }

  /// The clipped Voronoi cell of generator `v` as a CCW vertex ring.
  /// May be empty if the cell lies entirely outside the clip box.
  const std::vector<Point>& cell(PointId v) const { return cells_[v]; }

  /// Area of cell `v` after clipping.
  double CellArea(PointId v) const;

  /// True if `q` lies in the (clipped) cell of `v` — i.e. `v` is the
  /// nearest generator to `q` (paper Property 3), provided `q` is inside
  /// the clip box.
  bool CellContains(PointId v, const Point& q) const {
    return ConvexRingContains(cells_[v], q);
  }

  /// Sum of all clipped cell areas; equals the clip-box area when the box
  /// is contained in the diagram's coverage (used as a mass-conservation
  /// property test).
  double TotalArea() const;

 private:
  std::vector<Point> generators_;
  std::vector<std::vector<Point>> cells_;
};

}  // namespace vaq

#endif  // VAQ_DELAUNAY_VORONOI_H_
