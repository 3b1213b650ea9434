#include "geometry/polygon.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "geometry/predicates.h"

namespace vaq {

Polygon::Polygon(std::vector<Point> vertices)
    : vertices_(std::move(vertices)) {
  assert(vertices_.size() >= 3 && "a polygon needs at least 3 vertices");
  for (const Point& v : vertices_) bounds_.ExpandToInclude(v);
  edge_bounds_.reserve(vertices_.size());
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    Box eb(vertices_[i]);
    eb.ExpandToInclude(vertices_[(i + 1) % vertices_.size()]);
    edge_bounds_.push_back(eb);
  }
}

double Polygon::SignedArea() const {
  double twice_area = 0.0;
  const std::size_t n = vertices_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    twice_area += a.Cross(b);
  }
  return 0.5 * twice_area;
}

double Polygon::Area() const { return std::fabs(SignedArea()); }

double Polygon::Perimeter() const {
  double len = 0.0;
  for (std::size_t i = 0; i < vertices_.size(); ++i) len += edge(i).Length();
  return len;
}

Point Polygon::Centroid() const {
  const std::size_t n = vertices_.size();
  double cx = 0.0, cy = 0.0, twice_area = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    const double cross = a.Cross(b);
    twice_area += cross;
    cx += (a.x + b.x) * cross;
    cy += (a.y + b.y) * cross;
  }
  if (twice_area == 0.0) return bounds_.Center();
  return {cx / (3.0 * twice_area), cy / (3.0 * twice_area)};
}

bool Polygon::OnBoundary(const Point& p) const {
  if (!bounds_.Contains(p)) return false;
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    if (OnSegment(edge(i), p)) return true;
  }
  return false;
}

bool Polygon::Contains(const Point& p) const {
  if (!bounds_.Contains(p)) return false;
  // Robust crossing-parity test: count proper crossings of the upward ray
  // from p, deciding sides with the exact orientation predicate. Points on
  // the boundary count as contained. The per-edge MBR gate keeps the
  // expensive on-boundary check off the hot path: it can only trigger when
  // p is inside the edge's own bounding box.
  bool inside = false;
  const std::size_t n = vertices_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    if (edge_bounds_[i].Contains(p) && Orient2DSign(a, b, p) == 0) {
      return true;  // Exactly on this edge.
    }
    if (a.y <= p.y) {
      if (b.y > p.y && Orient2DSign(a, b, p) > 0) inside = !inside;
    } else {
      if (b.y <= p.y && Orient2DSign(a, b, p) < 0) inside = !inside;
    }
  }
  return inside;
}

bool Polygon::BoundaryIntersects(const Segment& s) const {
  const Box sb = s.Bounds();
  if (!bounds_.Intersects(sb)) return false;
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    if (!edge_bounds_[i].Intersects(sb)) continue;
    if (SegmentsIntersect(edge(i), s)) return true;
  }
  return false;
}

bool Polygon::Intersects(const Segment& s) const {
  if (!bounds_.Intersects(s.Bounds())) return false;
  // If the segment crosses the ring we are done; otherwise both endpoints
  // are on the same side of the boundary, so testing one suffices.
  if (BoundaryIntersects(s)) return true;
  return Contains(s.a);
}

bool Polygon::IntersectsBox(const Box& box) const {
  if (!bounds_.Intersects(box)) return false;
  // A polygon vertex inside the box, a box corner inside the polygon, or
  // crossing boundaries.
  for (const Point& v : vertices_) {
    if (box.Contains(v)) return true;
  }
  const Point corners[4] = {box.min,
                            {box.max.x, box.min.y},
                            box.max,
                            {box.min.x, box.max.y}};
  if (Contains(corners[0])) return true;
  const Segment box_edges[4] = {{corners[0], corners[1]},
                                {corners[1], corners[2]},
                                {corners[2], corners[3]},
                                {corners[3], corners[0]}};
  for (const Segment& be : box_edges) {
    if (BoundaryIntersects(be)) return true;
  }
  return false;
}

Point Polygon::InteriorPoint() const {
  assert(vertices_.size() >= 3);
  // Try horizontal scanlines at a sequence of heights; at each height,
  // collect proper edge crossings, pair them up and take the midpoint of
  // the widest span. Heights follow a low-discrepancy sequence so a handful
  // of attempts covers the polygon even for awkward shapes.
  const double h = bounds_.Height();
  const std::size_t n = vertices_.size();
  double frac = 0.5;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double y = bounds_.min.y + frac * h;
    std::vector<double> xs;
    bool degenerate = false;
    for (std::size_t i = 0; i < n && !degenerate; ++i) {
      const Point& a = vertices_[i];
      const Point& b = vertices_[(i + 1) % n];
      if (a.y == y || b.y == y) {
        degenerate = true;  // Vertex on scanline; pick another height.
        break;
      }
      if ((a.y < y) != (b.y < y)) {
        const double t = (y - a.y) / (b.y - a.y);
        xs.push_back(a.x + t * (b.x - a.x));
      }
    }
    if (!degenerate && xs.size() >= 2) {
      std::sort(xs.begin(), xs.end());
      double best_width = -1.0;
      Point best{};
      for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
        const double width = xs[i + 1] - xs[i];
        if (width > best_width) {
          best_width = width;
          best = Point{(xs[i] + xs[i + 1]) * 0.5, y};
        }
      }
      if (best_width > 0.0 && Contains(best)) return best;
    }
    // Golden-ratio low-discrepancy walk over (0, 1).
    frac += 0.6180339887498949;
    if (frac >= 1.0) frac -= 1.0;
  }
  // Extremely degenerate ring; fall back to the centroid.
  return Centroid();
}

bool Polygon::IsSimple() const {
  const std::size_t n = vertices_.size();
  if (n < 3) return false;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool adjacent = (j == i + 1) || (i == 0 && j == n - 1);
      if (adjacent) continue;
      if (SegmentsIntersect(edge(i), edge(j))) return false;
    }
  }
  // Adjacent edges must not fold back onto each other.
  for (std::size_t i = 0; i < n; ++i) {
    const Segment e = edge(i);
    const Point& next = vertices_[(i + 2) % n];
    if (Orient2DSign(e.a, e.b, next) == 0 && OnSegment(e, next)) return false;
  }
  return true;
}

Polygon Polygon::Reversed() const {
  std::vector<Point> rev(vertices_.rbegin(), vertices_.rend());
  return Polygon(std::move(rev));
}

Polygon Polygon::FromBox(const Box& box) {
  return Polygon({box.min,
                  {box.max.x, box.min.y},
                  box.max,
                  {box.min.x, box.max.y}});
}

Polygon Polygon::RegularNGon(const Point& center, double radius, int n) {
  assert(n >= 3);
  std::vector<Point> vs;
  vs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double angle = 2.0 * M_PI * i / n;
    vs.push_back(
        {center.x + radius * std::cos(angle), center.y + radius * std::sin(angle)});
  }
  return Polygon(std::move(vs));
}

std::ostream& operator<<(std::ostream& os, const Polygon& poly) {
  os << "Polygon[";
  for (std::size_t i = 0; i < poly.size(); ++i) {
    if (i) os << ", ";
    os << poly.vertex(i);
  }
  return os << "]";
}

}  // namespace vaq
