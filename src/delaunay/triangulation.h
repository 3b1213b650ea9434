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
/// this class exposes as CSR rows (`NeighborsOf`). Each row is `p`'s closed
/// counter-clockwise fan, so the rows are the whole graph: a triangle is
/// two consecutive row entries, and no triangle id survives construction.
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
///   area queries and excluded from user-visible triangles. Super vertices
///   keep their slots in the rows: on degenerate input they sit between
///   real neighbours of a fan.
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
  /// the last three ids are the super vertices.
  const Point& point(PointId v) const { return points_[v]; }

  /// The closed CCW fan of real vertex `v`: with `q_k` its entry k, every
  /// `(v, q_k, q_k+1)`, k + 1 taken cyclically, is a CCW triangle of the
  /// triangulation. Its real entries (`< num_points()`) are `VN(P, p)` of
  /// the paper; entries `>= num_points()` are super vertices, kept in their
  /// cyclic slots. The spans stay valid for the lifetime of the
  /// triangulation.
  std::span<const PointId> NeighborsOf(PointId v) const {
    return {adj_.data() + adj_offsets_[v], adj_.data() + adj_offsets_[v + 1]};
  }

  /// The circumcentre of fan triangle `(p, a, b)` of real vertex `p`. The
  /// operands are taken in one canonical rotation — the one that ends at the
  /// highest real id, super ids ranking below every real id — so every fan
  /// that holds a triangle rounds its circumcentre to the same bits.
  Point FanCircumcenter(PointId p, PointId a, PointId b) const;

  /// All triangles whose three corners are real points, CCW, each listed
  /// once from its smallest id.
  std::vector<Triangle> Triangles() const;

  /// Number of real triangles (what `Triangles()` returns).
  std::size_t num_triangles() const;

  /// Structural self-check of the rows: every consecutive fan triple is
  /// strictly CCW (super coordinates included), every real-real edge is in
  /// both rows, and both rows agree on the triangles they share. Used by
  /// tests; O(sum of squared degrees). Returns false with a message on
  /// failure.
  bool CheckStructure(std::string* why) const;

  /// Empty-circumcircle check of every real triangle against every real
  /// point — O(n * t), tests only.
  bool CheckDelaunay(std::string* why) const;

 private:
  // Calls `fn(Triangle)` for each real triangle, from its smallest id.
  template <typename Fn>
  void ForEachTriangle(Fn&& fn) const;

  std::vector<Point> points_;  // Real points then 3 super vertices.
  std::size_t num_real_ = 0;

  // CSR fan rows over real vertices: row v is adj_[adj_offsets_[v],
  // adj_offsets_[v + 1]).
  std::vector<std::uint32_t> adj_offsets_;
  std::vector<PointId> adj_;
};

}  // namespace vaq

#endif  // VAQ_DELAUNAY_TRIANGULATION_H_
