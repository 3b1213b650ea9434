#ifndef VAQ_DELAUNAY_TRIANGULATION_H_
#define VAQ_DELAUNAY_TRIANGULATION_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geometry/point.h"

namespace vaq {

/// Incremental Delaunay triangulation (Bowyer–Watson) of a set of distinct
/// points in the plane.
///
/// This is the substrate of the paper's contribution: by Delaunay/Voronoi
/// duality (paper Property 4), the *Voronoi neighbours* `VN(P, p)` consumed
/// by Algorithm 1 are exactly the Delaunay-adjacent vertices of `p`, which
/// this class exposes as a CSR adjacency structure (`NeighborsOf`).
///
/// Implementation notes:
/// * points are inserted in Hilbert-curve order (BRIO-like), so locating
///   each insertion by walking from the previously modified triangle is
///   O(1) amortised — construction is O(n log n) in practice;
/// * all predicates (walk orientation, cavity in-circle) are the exact
///   filtered predicates of geometry/predicates.h, so the structure never
///   corrupts on degenerate input (collinear / cocircular points);
/// * construction happens inside a large *finite* super-triangle whose
///   vertices are far outside the data bounding box. The final structure is
///   exactly Delaunay for the n+3 point set; restricted to real points this
///   differs from the true Delaunay triangulation only in hull-adjacent
///   slivers whose circumcircle reaches the super vertices — immaterial for
///   area queries and excluded from user-visible triangles.
///
/// Precondition: input points are pairwise distinct (checked in debug).
class DelaunayTriangulation {
 public:
  /// A triangle of real (non-super) vertices, counter-clockwise.
  struct Triangle {
    PointId a, b, c;
  };

  /// Builds the triangulation of `points`. O(n log n) expected.
  /// Pass `hilbert_sorted = true` when the caller already ordered the
  /// points along a Hilbert curve (e.g. `PointDatabase`'s clustered
  /// storage): insertions then run in input order and the BRIO reorder —
  /// an O(n log n) sort — is skipped. The vector is kept as the
  /// triangulation's point array, with the three super vertices appended;
  /// a caller that reserves `points.size() + 3` keeps its buffer (and so
  /// pointers into it) through the build.
  explicit DelaunayTriangulation(std::vector<Point> points,
                                 bool hilbert_sorted = false);

  /// Number of real points.
  std::size_t num_points() const { return num_real_; }

  /// The real points in id order: `points()[v] == point(v)` for
  /// `v < num_points()`.
  std::span<const Point> points() const { return {points_.data(), num_real_}; }

  /// The coordinates of point `v`. Precondition: `v < num_points() + 3`;
  /// the last three ids are the super vertices `TriangleVertices` yields.
  const Point& point(PointId v) const { return points_[v]; }

  /// The Voronoi neighbours of `v` (= Delaunay-adjacent vertices), i.e.
  /// `VN(P, p)` of the paper. Super vertices are excluded. The spans stay
  /// valid for the lifetime of the triangulation.
  std::span<const PointId> NeighborsOf(PointId v) const;

  /// All triangles whose three corners are real points, CCW.
  std::vector<Triangle> Triangles() const;

  /// Number of real triangles (what `Triangles()` returns).
  std::size_t num_triangles() const;

  /// One incident triangle id per vertex, for fan circulation via
  /// `CirculateCell`. Internal triangle ids are stable after construction.
  std::uint32_t IncidentTriangle(PointId v) const {
    return incident_triangle_[v];
  }

  /// Circulates counter-clockwise around vertex `v`, invoking
  /// `fn(triangle_id)` once per incident triangle (including triangles
  /// touching super vertices, which close the fan for hull vertices).
  template <typename Fn>
  void CirculateCell(PointId v, Fn&& fn) const;

  /// Corner vertices of internal triangle `t` (may include super-vertex
  /// ids `>= num_points()`).
  std::span<const std::uint32_t, 3> TriangleVertices(std::uint32_t t) const;

  /// True if triangle `t` has only real vertices.
  bool IsRealTriangle(std::uint32_t t) const;

  /// Structural self-check (neighbour symmetry, positive orientation,
  /// vertex cover). Used by tests; O(n). Returns false with a message on
  /// failure.
  bool CheckStructure(std::string* why) const;

  /// Empty-circumcircle check of every real triangle against every real
  /// point — O(n * t), tests only.
  bool CheckDelaunay(std::string* why) const;

 private:
  struct Tri {
    std::uint32_t v[3];   // CCW vertex ids.
    std::int32_t nbr[3];  // nbr[i] is across the edge opposite v[i]; -1 on
                          // the outer boundary of the super triangle.
    bool alive = true;
  };

  // Scratch of one build, reused across its insertions so that inserting
  // a point allocates nothing once the buffers have grown to the largest
  // cavity; it dies with the constructor.
  struct BoundaryEdge {
    std::uint32_t a, b;  // CCW around the cavity.
    std::int32_t outer;  // Triangle across (a, b); -1 on the outer hull.
    std::uint32_t tri;   // The new triangle (a, b, vid).
  };
  struct InsertScratch {
    std::vector<std::uint32_t> cavity;
    std::vector<std::uint8_t> in_cavity;  // Indexed by triangle id.
    std::vector<BoundaryEdge> boundary;
    std::vector<std::uint32_t> edge_from;  // Vertex -> `boundary` index.
    std::vector<std::uint32_t> free_tris;
  };

  std::uint32_t Locate(const Point& p, std::uint32_t hint) const;
  void InsertPoint(std::uint32_t vid, std::uint32_t hint,
                   InsertScratch& scratch);
  int IndexOfVertex(const Tri& t, std::uint32_t v) const;
  bool InCavity(const Tri& t, const Point& p) const;
  void BuildAdjacency();

  std::vector<Point> points_;  // Real points then 3 super vertices.
  std::size_t num_real_ = 0;
  std::vector<Tri> tris_;
  std::uint32_t last_triangle_ = 0;  // Walk hint.

  // CSR adjacency over real vertices (built once after construction).
  std::vector<std::uint32_t> adj_offsets_;
  std::vector<PointId> adj_;
  std::vector<std::uint32_t> incident_triangle_;
};

template <typename Fn>
void DelaunayTriangulation::CirculateCell(PointId v, Fn&& fn) const {
  const std::uint32_t start = incident_triangle_[v];
  std::uint32_t t = start;
  do {
    fn(t);
    const Tri& tri = tris_[t];
    const int i = IndexOfVertex(tri, v);
    const std::int32_t next = tri.nbr[(i + 1) % 3];
    if (next < 0) break;  // Cannot happen for real vertices (enclosed).
    t = static_cast<std::uint32_t>(next);
  } while (t != start);
}

}  // namespace vaq

#endif  // VAQ_DELAUNAY_TRIANGULATION_H_
