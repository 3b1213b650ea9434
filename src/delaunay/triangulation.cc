#include "delaunay/triangulation.h"

#include <algorithm>
#include <cassert>

#include "delaunay/hilbert.h"
#include "geometry/box.h"
#include "geometry/predicates.h"

namespace vaq {
namespace {

// Tiny xorshift for the stochastic walk's edge-order choice (avoids cycling
// on degenerate configurations without any global state).
inline std::uint32_t NextRand(std::uint32_t* state) {
  std::uint32_t x = *state;
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  return *state = x;
}

}  // namespace

DelaunayTriangulation::DelaunayTriangulation(std::vector<Point> points,
                                             bool hilbert_sorted)
    : points_(std::move(points)), num_real_(points_.size()) {
  // Super-triangle far outside the data bounding box (see class comment).
  Box bounds;
  for (const Point& p : points_) bounds.ExpandToInclude(p);
  if (bounds.Empty()) bounds = Box{{0, 0}, {1, 1}};
  const Point c = bounds.Center();
  const double d =
      std::max({bounds.Width(), bounds.Height(), 1e-6}) * 1e5;
  points_.push_back({c.x - 3.0 * d, c.y - d});
  points_.push_back({c.x + 3.0 * d, c.y - d});
  points_.push_back({c.x, c.y + 3.0 * d});

  // Every insertion retires its cavity of c triangles and creates c + 2
  // in their slots plus two fresh ones, so the slot count ends at exactly
  // 2n + 1 and `tris_` never reallocates.
  const std::size_t max_tris = 2 * num_real_ + 1;
  tris_.reserve(max_tris);
  InsertScratch scratch;
  scratch.in_cavity.assign(max_tris, 0);
  scratch.edge_from.assign(points_.size(), 0);

  const auto s0 = static_cast<std::uint32_t>(num_real_);
  tris_.push_back(Tri{{s0, s0 + 1, s0 + 2}, {-1, -1, -1}, true});
  last_triangle_ = 0;

  if (hilbert_sorted) {
    // Input order is already spatially coherent: insert as-is.
    for (std::uint32_t vid = 0; vid < num_real_; ++vid) {
      InsertPoint(vid, last_triangle_, scratch);
    }
  } else {
    const std::vector<std::uint32_t> order =
        HilbertOrder(std::span<const Point>(points_).first(num_real_));
    for (const std::uint32_t vid : order) {
      InsertPoint(vid, last_triangle_, scratch);
    }
  }
  BuildAdjacency();
}

int DelaunayTriangulation::IndexOfVertex(const Tri& t, std::uint32_t v) const {
  if (t.v[0] == v) return 0;
  if (t.v[1] == v) return 1;
  if (t.v[2] == v) return 2;
  return -1;
}

std::uint32_t DelaunayTriangulation::Locate(const Point& p,
                                            std::uint32_t hint) const {
  std::uint32_t t = hint;
  std::uint32_t rng = 0x9E3779B9u ^ hint;
  while (true) {
    const Tri& tri = tris_[t];
    bool moved = false;
    const std::uint32_t start = NextRand(&rng) % 3;
    for (int k = 0; k < 3; ++k) {
      const int i = static_cast<int>((start + k) % 3);
      const Point& a = points_[tri.v[(i + 1) % 3]];
      const Point& b = points_[tri.v[(i + 2) % 3]];
      if (Orient2DSign(a, b, p) < 0) {
        assert(tri.nbr[i] >= 0 && "walk left the super triangle");
        t = static_cast<std::uint32_t>(tri.nbr[i]);
        moved = true;
        break;
      }
    }
    if (!moved) return t;
  }
}

bool DelaunayTriangulation::InCavity(const Tri& t, const Point& p) const {
  return InCircleSign(points_[t.v[0]], points_[t.v[1]], points_[t.v[2]], p) >
         0;
}

void DelaunayTriangulation::InsertPoint(std::uint32_t vid,
                                        std::uint32_t hint,
                                        InsertScratch& scratch) {
  const Point& p = points_[vid];
  const std::uint32_t t0 = Locate(p, hint);

#ifndef NDEBUG
  for (int i = 0; i < 3; ++i) {
    assert(points_[tris_[t0].v[i]] != p &&
           "duplicate point inserted into DelaunayTriangulation");
  }
#endif

  scratch.cavity.clear();
  auto seed = [&](std::uint32_t t) {
    if (!scratch.in_cavity[t]) {
      scratch.in_cavity[t] = 1;
      scratch.cavity.push_back(t);
    }
  };
  seed(t0);
  // If p lies exactly on an edge of t0, the triangle across that edge has p
  // on its circumcircle (in-circle == 0) and must be in the cavity too, or
  // retriangulation would create a degenerate zero-area triangle.
  for (int i = 0; i < 3; ++i) {
    const Tri& tri = tris_[t0];
    const Point& a = points_[tri.v[(i + 1) % 3]];
    const Point& b = points_[tri.v[(i + 2) % 3]];
    if (tri.nbr[i] >= 0 && Orient2DSign(a, b, p) == 0) {
      seed(static_cast<std::uint32_t>(tri.nbr[i]));
    }
  }
  // Grow the cavity over neighbours whose circumcircle contains p.
  for (std::size_t head = 0; head < scratch.cavity.size(); ++head) {
    const Tri tri = tris_[scratch.cavity[head]];
    for (int i = 0; i < 3; ++i) {
      const std::int32_t nb = tri.nbr[i];
      if (nb >= 0 && !scratch.in_cavity[nb] &&
          InCavity(tris_[nb], p)) {
        seed(static_cast<std::uint32_t>(nb));
      }
    }
  }

  // Collect the boundary edges (CCW around the cavity) with their outer
  // neighbours.
  scratch.boundary.clear();
  for (const std::uint32_t t : scratch.cavity) {
    const Tri& tri = tris_[t];
    for (int i = 0; i < 3; ++i) {
      const std::int32_t nb = tri.nbr[i];
      if (nb < 0 || !scratch.in_cavity[nb]) {
        scratch.boundary.push_back(
            BoundaryEdge{tri.v[(i + 1) % 3], tri.v[(i + 2) % 3], nb, 0});
      }
    }
  }

  // Retire the cavity triangles.
  for (const std::uint32_t t : scratch.cavity) {
    tris_[t].alive = false;
    scratch.in_cavity[t] = 0;
    scratch.free_tris.push_back(t);
  }

  // Create one new triangle (a, b, vid) per boundary edge, reusing the
  // retired slots last-in first-out.
  for (std::uint32_t k = 0; k < scratch.boundary.size(); ++k) {
    BoundaryEdge& e = scratch.boundary[k];
    if (!scratch.free_tris.empty()) {
      e.tri = scratch.free_tris.back();
      scratch.free_tris.pop_back();
      tris_[e.tri] = Tri{{e.a, e.b, vid}, {-1, -1, -1}, true};
    } else {
      e.tri = static_cast<std::uint32_t>(tris_.size());
      tris_.push_back(Tri{{e.a, e.b, vid}, {-1, -1, -1}, true});
    }
    // Neighbour across (a, b) — opposite vid which is at index 2.
    tris_[e.tri].nbr[2] = e.outer;
    if (e.outer >= 0) {
      Tri& out = tris_[e.outer];
      for (int j = 0; j < 3; ++j) {
        if (out.v[(j + 1) % 3] == e.b && out.v[(j + 2) % 3] == e.a) {
          out.nbr[j] = static_cast<std::int32_t>(e.tri);
          break;
        }
      }
    }
    scratch.edge_from[e.a] = k;
  }
  // Ring-link the new fan: triangle (a, b, vid) meets (b, c, vid) across
  // edge (b, vid) (opposite a = index 0), and (b, c, vid) meets it back
  // across edge (vid, b) (opposite c = index 1). The boundary is a simple
  // cycle, so every vertex starts exactly one edge.
  for (const BoundaryEdge& e : scratch.boundary) {
    const BoundaryEdge& next = scratch.boundary[scratch.edge_from[e.b]];
    assert(next.a == e.b && "cavity boundary is not a simple cycle");
    tris_[e.tri].nbr[0] = static_cast<std::int32_t>(next.tri);
    tris_[next.tri].nbr[1] = static_cast<std::int32_t>(e.tri);
  }
  last_triangle_ = scratch.boundary.front().tri;
}

void DelaunayTriangulation::BuildAdjacency() {
  std::vector<std::uint32_t> degree(num_real_, 0);
  incident_triangle_.assign(num_real_, 0);
  for (std::size_t t = 0; t < tris_.size(); ++t) {
    const Tri& tri = tris_[t];
    if (!tri.alive) continue;
    for (int i = 0; i < 3; ++i) {
      if (tri.v[i] < num_real_) {
        incident_triangle_[tri.v[i]] = static_cast<std::uint32_t>(t);
      }
      const std::uint32_t a = tri.v[(i + 1) % 3];
      const std::uint32_t b = tri.v[(i + 2) % 3];
      if (a >= num_real_ || b >= num_real_) continue;
      // Count each undirected edge once: from the triangle with the smaller
      // id (or boundary).
      const std::int32_t nb = tri.nbr[i];
      if (nb < 0 || static_cast<std::uint32_t>(nb) > t) {
        ++degree[a];
        ++degree[b];
      }
    }
  }
  adj_offsets_.assign(num_real_ + 1, 0);
  for (std::size_t v = 0; v < num_real_; ++v) {
    adj_offsets_[v + 1] = adj_offsets_[v] + degree[v];
  }
  adj_.assign(adj_offsets_[num_real_], 0);
  std::vector<std::uint32_t> cursor(adj_offsets_.begin(),
                                    adj_offsets_.end() - 1);
  for (std::size_t t = 0; t < tris_.size(); ++t) {
    const Tri& tri = tris_[t];
    if (!tri.alive) continue;
    for (int i = 0; i < 3; ++i) {
      const std::uint32_t a = tri.v[(i + 1) % 3];
      const std::uint32_t b = tri.v[(i + 2) % 3];
      if (a >= num_real_ || b >= num_real_) continue;
      const std::int32_t nb = tri.nbr[i];
      if (nb < 0 || static_cast<std::uint32_t>(nb) > t) {
        adj_[cursor[a]++] = b;
        adj_[cursor[b]++] = a;
      }
    }
  }
}

std::span<const PointId> DelaunayTriangulation::NeighborsOf(PointId v) const {
  return {adj_.data() + adj_offsets_[v],
          adj_.data() + adj_offsets_[v + 1]};
}

std::vector<DelaunayTriangulation::Triangle>
DelaunayTriangulation::Triangles() const {
  std::vector<Triangle> out;
  for (const Tri& tri : tris_) {
    if (!tri.alive) continue;
    if (tri.v[0] >= num_real_ || tri.v[1] >= num_real_ ||
        tri.v[2] >= num_real_) {
      continue;
    }
    out.push_back(Triangle{tri.v[0], tri.v[1], tri.v[2]});
  }
  return out;
}

std::size_t DelaunayTriangulation::num_triangles() const {
  std::size_t n = 0;
  for (const Tri& tri : tris_) {
    if (tri.alive && tri.v[0] < num_real_ && tri.v[1] < num_real_ &&
        tri.v[2] < num_real_) {
      ++n;
    }
  }
  return n;
}

std::span<const std::uint32_t, 3> DelaunayTriangulation::TriangleVertices(
    std::uint32_t t) const {
  return std::span<const std::uint32_t, 3>(tris_[t].v, 3);
}

bool DelaunayTriangulation::IsRealTriangle(std::uint32_t t) const {
  const Tri& tri = tris_[t];
  return tri.alive && tri.v[0] < num_real_ && tri.v[1] < num_real_ &&
         tri.v[2] < num_real_;
}

bool DelaunayTriangulation::CheckStructure(std::string* why) const {
  for (std::size_t t = 0; t < tris_.size(); ++t) {
    const Tri& tri = tris_[t];
    if (!tri.alive) continue;
    if (Orient2DSign(points_[tri.v[0]], points_[tri.v[1]],
                     points_[tri.v[2]]) <= 0) {
      *why = "non-CCW triangle";
      return false;
    }
    for (int i = 0; i < 3; ++i) {
      const std::int32_t nb = tri.nbr[i];
      if (nb < 0) continue;
      const Tri& other = tris_[nb];
      if (!other.alive) {
        *why = "neighbour pointer to dead triangle";
        return false;
      }
      const std::uint32_t a = tri.v[(i + 1) % 3];
      const std::uint32_t b = tri.v[(i + 2) % 3];
      bool linked = false;
      for (int j = 0; j < 3; ++j) {
        if (other.nbr[j] == static_cast<std::int32_t>(t)) {
          if (other.v[(j + 1) % 3] == b && other.v[(j + 2) % 3] == a) {
            linked = true;
          }
        }
      }
      if (!linked) {
        *why = "asymmetric neighbour link";
        return false;
      }
    }
  }
  return true;
}

bool DelaunayTriangulation::CheckDelaunay(std::string* why) const {
  const std::vector<Triangle> triangles = Triangles();
  for (const Triangle& tr : triangles) {
    const Point& a = points_[tr.a];
    const Point& b = points_[tr.b];
    const Point& c = points_[tr.c];
    for (std::size_t v = 0; v < num_real_; ++v) {
      if (v == tr.a || v == tr.b || v == tr.c) continue;
      if (InCircleSign(a, b, c, points_[v]) > 0) {
        *why = "empty-circumcircle violation";
        return false;
      }
    }
  }
  return true;
}

}  // namespace vaq
