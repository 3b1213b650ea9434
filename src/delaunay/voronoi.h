#ifndef VAQ_DELAUNAY_VORONOI_H_
#define VAQ_DELAUNAY_VORONOI_H_

#include <vector>

#include "delaunay/triangulation.h"
#include "geometry/box.h"
#include "geometry/point.h"
#include "geometry/polygon.h"

namespace vaq {

/// Explicit Voronoi diagram: by duality (paper Property 4) the cell of a
/// generator is the polygon of the circumcentres of its Delaunay fan, in
/// CCW order. The fan includes the triangles on the finite super triangle,
/// so every cell is bounded before it is clipped to a caller-provided box
/// (typically the data domain), which trims those far circumcentres.
///
/// Algorithm 1 itself never materialises cells — it walks Voronoi
/// neighbours (see `DelaunayTriangulation::NeighborsOf`), and its exact
/// rule tests single Voronoi edges read off a candidate's fan (see
/// `VoronoiAreaQuery`). The diagram is part of the library's public
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

  /// True if `q` lies in the (clipped) cell of `v` or on its boundary —
  /// i.e. `v` is the nearest generator to `q` (paper Property 3), provided
  /// `q` is inside the clip box.
  bool CellContains(PointId v, const Point& q) const;

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
