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

// The triangle mesh of one Bowyer–Watson build. It lives only inside the
// `DelaunayTriangulation` constructor, which reads the fan rows off it and
// then frees it.
class MeshBuilder {
 public:
  // `points` holds the real points followed by the three super vertices.
  explicit MeshBuilder(const std::vector<Point>& points)
      : points_(points), num_real_(points.size() - 3) {
    // Every insertion retires its cavity of c triangles and creates c + 2
    // in their slots plus two fresh ones, so the slot count ends at exactly
    // 2n + 1 and `tris_` never reallocates.
    const std::size_t max_tris = 2 * num_real_ + 1;
    tris_.reserve(max_tris);
    in_cavity_.assign(max_tris, 0);
    edge_from_.assign(points_.size(), 0);
    const auto s0 = static_cast<std::uint32_t>(num_real_);
    tris_.push_back(Tri{{s0, s0 + 1, s0 + 2}, {-1, -1, -1}, true});
  }

  void InsertPoint(std::uint32_t vid);
  // Writes each real vertex's closed CCW fan as its CSR row.
  void WriteFanRows(std::vector<std::uint32_t>* offsets,
                    std::vector<PointId>* adj) const;

 private:
  struct Tri {
    std::uint32_t v[3];   // CCW vertex ids.
    std::int32_t nbr[3];  // nbr[i] is across the edge opposite v[i]; -1 on
                          // the outer boundary of the super triangle.
    bool alive = true;
  };
  struct BoundaryEdge {
    std::uint32_t a, b;  // CCW around the cavity.
    std::int32_t outer;  // Triangle across (a, b); -1 on the outer hull.
    std::uint32_t tri;   // The new triangle (a, b, vid).
  };

  std::uint32_t Locate(const Point& p, std::uint32_t hint) const;
  bool InCavity(const Tri& t, const Point& p) const {
    return InCircleSign(points_[t.v[0]], points_[t.v[1]], points_[t.v[2]],
                        p) > 0;
  }

  const std::vector<Point>& points_;
  const std::size_t num_real_;
  std::vector<Tri> tris_;
  std::uint32_t last_triangle_ = 0;  // Walk hint.

  // Scratch reused across insertions, so that inserting a point allocates
  // nothing once the buffers have grown to the largest cavity.
  std::vector<std::uint32_t> cavity_;
  std::vector<std::uint8_t> in_cavity_;  // Indexed by triangle id.
  std::vector<BoundaryEdge> boundary_;
  std::vector<std::uint32_t> edge_from_;  // Vertex -> `boundary_` index.
  std::vector<std::uint32_t> free_tris_;
};

std::uint32_t MeshBuilder::Locate(const Point& p, std::uint32_t hint) const {
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

void MeshBuilder::InsertPoint(std::uint32_t vid) {
  const Point& p = points_[vid];
  const std::uint32_t t0 = Locate(p, last_triangle_);

#ifndef NDEBUG
  for (int i = 0; i < 3; ++i) {
    assert(points_[tris_[t0].v[i]] != p &&
           "duplicate point inserted into DelaunayTriangulation");
  }
#endif

  cavity_.clear();
  auto seed = [&](std::uint32_t t) {
    if (!in_cavity_[t]) {
      in_cavity_[t] = 1;
      cavity_.push_back(t);
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
  for (std::size_t head = 0; head < cavity_.size(); ++head) {
    const Tri tri = tris_[cavity_[head]];
    for (int i = 0; i < 3; ++i) {
      const std::int32_t nb = tri.nbr[i];
      if (nb >= 0 && !in_cavity_[nb] && InCavity(tris_[nb], p)) {
        seed(static_cast<std::uint32_t>(nb));
      }
    }
  }

  // Collect the boundary edges (CCW around the cavity) with their outer
  // neighbours.
  boundary_.clear();
  for (const std::uint32_t t : cavity_) {
    const Tri& tri = tris_[t];
    for (int i = 0; i < 3; ++i) {
      const std::int32_t nb = tri.nbr[i];
      if (nb < 0 || !in_cavity_[nb]) {
        boundary_.push_back(
            BoundaryEdge{tri.v[(i + 1) % 3], tri.v[(i + 2) % 3], nb, 0});
      }
    }
  }

  // Retire the cavity triangles.
  for (const std::uint32_t t : cavity_) {
    tris_[t].alive = false;
    in_cavity_[t] = 0;
    free_tris_.push_back(t);
  }

  // Create one new triangle (a, b, vid) per boundary edge, reusing the
  // retired slots last-in first-out.
  for (std::uint32_t k = 0; k < boundary_.size(); ++k) {
    BoundaryEdge& e = boundary_[k];
    if (!free_tris_.empty()) {
      e.tri = free_tris_.back();
      free_tris_.pop_back();
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
    edge_from_[e.a] = k;
  }
  // Ring-link the new fan: triangle (a, b, vid) meets (b, c, vid) across
  // edge (b, vid) (opposite a = index 0), and (b, c, vid) meets it back
  // across edge (vid, b) (opposite c = index 1). The boundary is a simple
  // cycle, so every vertex starts exactly one edge.
  for (const BoundaryEdge& e : boundary_) {
    const BoundaryEdge& next = boundary_[edge_from_[e.b]];
    assert(next.a == e.b && "cavity boundary is not a simple cycle");
    tris_[e.tri].nbr[0] = static_cast<std::int32_t>(next.tri);
    tris_[next.tri].nbr[1] = static_cast<std::int32_t>(e.tri);
  }
  last_triangle_ = boundary_.front().tri;
}

void MeshBuilder::WriteFanRows(std::vector<std::uint32_t>* offsets,
                               std::vector<PointId>* adj) const {
  // A vertex's row length is its number of incident triangles.
  offsets->assign(num_real_ + 1, 0);
  for (const Tri& tri : tris_) {
    if (!tri.alive) continue;
    for (const std::uint32_t v : tri.v) {
      if (v < num_real_) ++(*offsets)[v + 1];
    }
  }
  for (std::size_t v = 0; v < num_real_; ++v) {
    (*offsets)[v + 1] += (*offsets)[v];
  }
  // Each fan is walked once, from the vertex's first incident triangle in
  // slot order, which follows insertion order, so consecutive walks touch
  // nearby triangles. In triangle (v, q, r) the next fan triangle is the
  // one across edge (r, v), i.e. opposite q; the super triangle encloses
  // every vertex, so each walk closes.
  adj->assign((*offsets)[num_real_], kInvalidPointId);
  for (std::uint32_t t0 = 0; t0 < tris_.size(); ++t0) {
    if (!tris_[t0].alive) continue;
    for (const std::uint32_t v : tris_[t0].v) {
      if (v >= num_real_ || (*adj)[(*offsets)[v]] != kInvalidPointId) {
        continue;
      }
      PointId* out = adj->data() + (*offsets)[v];
      std::uint32_t t = t0;
      do {
        const Tri& tri = tris_[t];
        const int i = tri.v[0] == v ? 0 : (tri.v[1] == v ? 1 : 2);
        *out++ = tri.v[(i + 1) % 3];
        t = static_cast<std::uint32_t>(tri.nbr[(i + 1) % 3]);
      } while (t != t0);
      assert(out == adj->data() + (*offsets)[v + 1] && "fan did not close");
    }
  }
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

  MeshBuilder mesh(points_);
  if (hilbert_sorted) {
    // Input order is already spatially coherent: insert as-is.
    for (std::uint32_t vid = 0; vid < num_real_; ++vid) mesh.InsertPoint(vid);
  } else {
    const std::vector<std::uint32_t> order =
        HilbertOrder(std::span<const Point>(points_).first(num_real_));
    for (const std::uint32_t vid : order) mesh.InsertPoint(vid);
  }
  mesh.WriteFanRows(&adj_offsets_, &adj_);
}

Point DelaunayTriangulation::FanCircumcenter(PointId p, PointId a,
                                             PointId b) const {
  // `p` is real, so the highest rank is a real id and is unique. A build
  // creates every triangle as (a, b, vid) with vid its newest corner, so on
  // `hilbert_sorted` builds this rotation is the mesh's own vertex order.
  const auto rank = [&](PointId v) -> std::uint64_t {
    return v < num_real_ ? std::uint64_t{v} + 1 : 0;
  };
  const std::uint64_t rp = rank(p), ra = rank(a), rb = rank(b);
  if (rp > ra && rp > rb) {
    return Circumcenter(points_[a], points_[b], points_[p]);
  }
  if (ra > rb) return Circumcenter(points_[b], points_[p], points_[a]);
  return Circumcenter(points_[p], points_[a], points_[b]);
}

template <typename Fn>
void DelaunayTriangulation::ForEachTriangle(Fn&& fn) const {
  for (PointId p = 0; p < num_real_; ++p) {
    const std::span<const PointId> row = NeighborsOf(p);
    for (std::size_t k = 0; k < row.size(); ++k) {
      const PointId a = row[k];
      const PointId b = row[k + 1 == row.size() ? 0 : k + 1];
      if (p < a && p < b && a < num_real_ && b < num_real_) {
        fn(Triangle{p, a, b});
      }
    }
  }
}

std::vector<DelaunayTriangulation::Triangle>
DelaunayTriangulation::Triangles() const {
  std::vector<Triangle> out;
  ForEachTriangle([&](const Triangle& t) { out.push_back(t); });
  return out;
}

std::size_t DelaunayTriangulation::num_triangles() const {
  std::size_t n = 0;
  ForEachTriangle([&](const Triangle&) { ++n; });
  return n;
}

bool DelaunayTriangulation::CheckStructure(std::string* why) const {
  for (PointId p = 0; p < num_real_; ++p) {
    const std::span<const PointId> row = NeighborsOf(p);
    if (row.size() < 3) {
      *why = "fan row shorter than a triangle";
      return false;
    }
    for (std::size_t k = 0; k < row.size(); ++k) {
      const PointId a = row[k];
      const PointId b = row[k + 1 == row.size() ? 0 : k + 1];
      if (a == p || a >= points_.size()) {
        *why = "fan row holds an invalid id";
        return false;
      }
      if (Orient2DSign(points_[p], points_[a], points_[b]) <= 0) {
        *why = "non-CCW fan triangle";
        return false;
      }
      if (a >= num_real_) continue;
      // The same triangle, seen from `a`, is (a, b, p): `b` then `p`.
      const std::span<const PointId> back = NeighborsOf(a);
      const auto it = std::find(back.begin(), back.end(), p);
      if (it == back.end()) {
        *why = "asymmetric neighbour rows";
        return false;
      }
      if (*(it == back.begin() ? back.end() - 1 : it - 1) != b) {
        *why = "fan rows disagree on a triangle";
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
