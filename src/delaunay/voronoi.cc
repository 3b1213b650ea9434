#include "delaunay/voronoi.h"

#include <cmath>
#include <span>

#include "geometry/clip.h"
#include "geometry/predicates.h"

namespace vaq {

VoronoiDiagram::VoronoiDiagram(const DelaunayTriangulation& dt,
                               const Box& clip_box) {
  const std::size_t n = dt.num_points();
  generators_.reserve(n);
  cells_.resize(n);
  std::vector<Point> ring;
  for (PointId v = 0; v < n; ++v) {
    generators_.push_back(dt.point(v));
    ring.clear();
    const std::span<const PointId> fan = dt.NeighborsOf(v);
    for (std::size_t k = 0; k < fan.size(); ++k) {
      ring.push_back(dt.FanCircumcenter(
          v, fan[k], fan[k + 1 == fan.size() ? 0 : k + 1]));
    }
    cells_[v] = ClipRingToBox(ring, clip_box);
  }
}

bool VoronoiDiagram::CellContains(PointId v, const Point& q) const {
  // The cell is convex, in either orientation: `q` is inside or on it iff
  // no two of its edges see `q` on opposite sides.
  const std::vector<Point>& ring = cells_[v];
  if (ring.size() < 3) return false;
  int expected = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const int s = Orient2DSign(ring[i], ring[(i + 1) % ring.size()], q);
    if (s == 0) continue;
    if (expected == 0) {
      expected = s;
    } else if (s != expected) {
      return false;
    }
  }
  return true;
}

double VoronoiDiagram::CellArea(PointId v) const {
  const std::vector<Point>& ring = cells_[v];
  if (ring.size() < 3) return 0.0;
  double twice = 0.0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    twice += ring[i].Cross(ring[(i + 1) % ring.size()]);
  }
  return std::abs(twice) * 0.5;
}

double VoronoiDiagram::TotalArea() const {
  double total = 0.0;
  for (PointId v = 0; v < cells_.size(); ++v) total += CellArea(v);
  return total;
}

}  // namespace vaq
