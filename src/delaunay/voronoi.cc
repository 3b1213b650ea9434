#include "delaunay/voronoi.h"

#include <cmath>

#include "geometry/clip.h"
#include "geometry/predicates.h"

namespace vaq {

bool FanCellRing(const DelaunayTriangulation& dt, PointId v,
                 std::vector<Point>& ring) {
  ring.clear();
  const std::size_t n = dt.num_points();
  bool touches_super = false;
  dt.CirculateCell(v, [&](std::uint32_t t) {
    const auto verts = dt.TriangleVertices(t);
    touches_super |= verts[0] >= n || verts[1] >= n || verts[2] >= n;
    ring.push_back(Circumcenter(dt.point(verts[0]), dt.point(verts[1]),
                                dt.point(verts[2])));
  });
  return touches_super;
}

bool ConvexRingContains(std::span<const Point> ring, const Point& q) {
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

VoronoiDiagram::VoronoiDiagram(const DelaunayTriangulation& dt,
                               const Box& clip_box) {
  const std::size_t n = dt.num_points();
  generators_.reserve(n);
  cells_.resize(n);
  std::vector<Point> ring;
  for (PointId v = 0; v < n; ++v) {
    generators_.push_back(dt.point(v));
    FanCellRing(dt, v, ring);
    cells_[v] = ClipRingToBox(ring, clip_box);
  }
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
