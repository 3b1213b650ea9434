#ifndef VAQ_GEOMETRY_PREPARED_AREA_H_
#define VAQ_GEOMETRY_PREPARED_AREA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"
#include "geometry/polygon.h"
#include "geometry/segment.h"

namespace vaq {

/// Query-polygon acceleration structure: one-time preprocessing of a simple
/// polygon that makes the per-candidate tests every area query pays — point
/// containment, segment-boundary intersection, box classification — cheap.
///
/// `Polygon::Contains` / `BoundaryIntersects` are O(m) scans over the m
/// polygon edges, so query cost scales with *polygon complexity times
/// candidate count*. `PreparedArea` rasterises the polygon once onto a
/// uniform grid over its MBR and classifies every cell as **inside**,
/// **outside** or **boundary** (the cell meets the boundary ring):
///
///  * points in inside/outside cells are answered in O(1) with zero edge
///    tests — by construction the boundary only passes through boundary
///    cells, so the whole cell shares one containment status;
///  * points in boundary cells fall back to an *exact* crossing-parity test
///    that scans only the edges whose y-range meets the point's grid row
///    (a per-row CSR edge list), not all m edges;
///  * segments test only the edges recorded in the boundary cells their
///    MBR covers (a per-cell CSR edge list);
///  * `ClassifyBox` answers inside/outside/straddling in O(1) from two
///    summed-area tables over the cell classification — this is what lets
///    indexes bulk-accept whole subtrees and prune outside ones.
///
/// **Exactness.** All residual tests run the same robust predicates on a
/// subset of edges that provably contains every edge the naive scan could
/// react to, so `Contains`, `BoundaryIntersects` and `Intersects` agree
/// with the `Polygon` methods *bit for bit*, including points exactly on
/// edges or vertices (see the prepared-vs-naive property test).
/// `ClassifyBox` is conservative: `kInside`/`kOutside` answers are always
/// correct; near the boundary it may answer `kStraddling` where the exact
/// answer is inside or outside, and callers must then fall back to
/// per-point validation (which is always safe).
///
/// **Robustness.** Cell indexing is floating-point; the rasteriser
/// therefore marks every cell whose slightly inflated box the edge touches
/// (an epsilon pad orders of magnitude larger than the worst index-rounding
/// error), so a point whose computed cell is *not* a boundary cell is
/// guaranteed to be safely on that cell's side of the boundary.
///
/// A `PreparedArea` holds no mutable state after `Prepare`, so one instance
/// may be read from any number of threads. `Prepare` reuses all internal
/// buffers: query contexts keep one instance per thread and rebuild it per
/// query, allocating nothing in steady state. The referenced polygon must
/// outlive the prepared structure (it is consulted for residual exact
/// tests).
///
/// Preprocessing costs O(m + cells); see DESIGN.md §6 for when it
/// amortises (it already wins at a few hundred candidates for the paper's
/// decagons, and earlier for more complex polygons).
class PreparedArea {
 public:
  /// Classification of an axis-aligned box against the polygon.
  enum class Region : unsigned char {
    kOutside = 0,     ///< Box and polygon are disjoint (definite).
    kInside = 1,      ///< Box lies entirely inside the polygon (definite).
    kStraddling = 2,  ///< Box may meet the boundary; validate per point.
  };

  /// Per-point classification values written by `ClassifyPoints`; the
  /// numeric values match the internal cell classes.
  static constexpr unsigned char kPointOutside = 0;
  static constexpr unsigned char kPointInside = 1;
  /// Point lies in a boundary cell: caller must run `Contains` on it.
  static constexpr unsigned char kPointBoundary = 2;

  /// Largest grid side `Prepare` builds (hints are clamped to it).
  static constexpr int kMaxGridSide = 512;
  /// Readable bytes after the last cell class, so a vector kernel may load
  /// any cell's class as the low byte of a 32-bit word.
  static constexpr std::size_t kCellClassPadding = 3;

  PreparedArea() = default;
  explicit PreparedArea(const Polygon& area) { Prepare(area); }

  /// (Re)builds the acceleration structure over `area`, reusing internal
  /// buffers. `area` must stay alive and unmodified while this prepared
  /// structure is in use. `grid_side_hint` overrides the automatic grid
  /// resolution (clamped to [4, kMaxGridSide]); 0 picks `~4*sqrt(m)` in
  /// [32, 192].
  void Prepare(const Polygon& area, int grid_side_hint = 0);

  /// Grid resolution balancing one-time build cost (O(side^2) cells)
  /// against the residual exact tests a thinner boundary band avoids, for
  /// a query expected to run `expected_tests` point tests against an
  /// `m`-gon. Derived from build ~ k*side^2 and boundary overhead ~
  /// expected_tests * (c/side) * row_test: the optimum grows with the cube
  /// root of the test count. Returns 0 (the m-based default) when no
  /// estimate is available; pass the result as `grid_side_hint`.
  static int SuggestGridSide(std::size_t m, std::size_t expected_tests);

  /// Expected-test estimate for queries that validate roughly the MBR's
  /// share of a database: `n * area(mbr) / area(domain)`, clamped to `n`.
  /// The common `expected_tests` argument for `SuggestGridSide` when the
  /// exact candidate count is not known up front.
  static std::size_t EstimateMbrShare(std::size_t n, const Box& domain,
                                      const Box& mbr);

  /// Rebinds the accelerated-polygon reference to `area`, with no
  /// rebuild. Every derived structure depends only on the vertex values,
  /// so this is sound precisely when `area` is value-equal (same vertices
  /// in the same order) to the polygon this structure was prepared over —
  /// the caller's guarantee. `QueryContext`'s memo uses it so a cached
  /// grid can serve an equal polygon at a different address after the
  /// originally-prepared object has died; without the rebind, the
  /// residual exact tests would dereference the dead original.
  /// Precondition: `prepared()`.
  void RebindPolygon(const Polygon& area) { polygon_ = &area; }

  /// True once `Prepare` ran on a non-degenerate polygon.
  bool prepared() const { return polygon_ != nullptr; }

  /// The polygon this structure accelerates. Precondition: `prepared()`.
  const Polygon& polygon() const { return *polygon_; }

  /// The polygon's MBR (== `polygon().Bounds()`), the grid's extent.
  const Box& bounds() const { return bounds_; }

  /// O(1) three-way classification of one point against the grid:
  /// `kPointInside` / `kPointOutside` are definite (identical to
  /// `Contains`); `kPointBoundary` means the point lies in a boundary
  /// cell and the caller must confirm with `Contains`. This is the
  /// per-point building block of the batch kernels — cheap enough to run
  /// on every frontier neighbour before deciding whether an exact test
  /// is needed at all.
  unsigned char ClassifyPoint(double x, double y) const {
    if (polygon_ == nullptr || !bounds_.Contains(Point{x, y})) {
      return kPointOutside;
    }
    return cell_class_[CellIndexOf(Point{x, y})];
  }

  /// Exactly `polygon().Contains(p)`: true if `p` is inside or on the
  /// boundary. O(1) for points away from the boundary band.
  bool Contains(const Point& p) const {
    const unsigned char cls = ClassifyPoint(p.x, p.y);
    if (cls != kPointBoundary) return cls == kPointInside;
    return ContainsViaRow(p);
  }

  /// Batched kernel behind the refine step: classifies `n` points (given
  /// as parallel coordinate arrays, SoA) against the grid. Writes
  /// `kPointInside` / `kPointOutside` for definite answers and
  /// `kPointBoundary` for points in boundary cells, which the caller must
  /// confirm with `Contains`. Points outside the MBR get `kPointOutside`.
  void ClassifyPoints(const double* xs, const double* ys, std::size_t n,
                      unsigned char* cls) const;

  /// Exactly `polygon().BoundaryIntersects(s)`: true if `s` crosses or
  /// touches the boundary ring. Tests only edges local to the cells the
  /// segment's MBR covers.
  bool BoundaryIntersects(const Segment& s) const;

  /// Exactly `polygon().Intersects(s)`: boundary crossing or containment.
  bool Intersects(const Segment& s) const {
    if (polygon_ == nullptr || !bounds_.Intersects(s.Bounds())) return false;
    if (BoundaryIntersects(s)) return true;
    return Contains(s.a);
  }

  /// O(1) conservative box classification (two summed-area-table lookups).
  /// `kInside` and `kOutside` answers are always correct; `kStraddling` is
  /// the safe fallback near the boundary.
  Region ClassifyBox(const Box& box) const;

  // -- Introspection (tests and benchmarks) ---------------------------------

  int grid_side() const { return nx_; }
  std::size_t boundary_cell_count() const { return boundary_cells_; }
  std::size_t inside_cell_count() const { return inside_cells_; }

  // -- Raw grid / CSR access for the batch kernels (src/geometry/simd/) -----
  // `PolygonKernel` snapshots these to run the vector twin of
  // `ClassifyPoints` / `ContainsViaRow` on identical values. The returned
  // pointers stay valid until the next `Prepare` (RebindPolygon does not
  // invalidate them).

  int grid_nx() const { return nx_; }
  int grid_ny() const { return ny_; }
  double inv_cell_w() const { return inv_cw_; }
  double inv_cell_h() const { return inv_ch_; }
  /// Per-cell class array, row-major `grid_ny() x grid_nx()`, followed by
  /// `kCellClassPadding` zero bytes.
  const unsigned char* cell_class_data() const { return cell_class_.data(); }
  /// Row CSR: the edges whose y-range meets grid row r are
  /// `row_edges_data()[row_edge_offsets_data()[r] ..
  ///                   row_edge_offsets_data()[r + 1])`.
  const std::uint32_t* row_edge_offsets_data() const {
    return row_edge_offsets_.data();
  }
  const std::uint32_t* row_edges_data() const { return row_edges_.data(); }
  std::size_t row_edges_size() const { return row_edges_.size(); }

 private:
  // Cell classes share the kPoint* values: 0 outside, 1 inside, 2 boundary.

  /// One rasterised (cell, edge) incidence, recorded in generation order.
  struct RasterPair {
    std::uint32_t cell;
    std::uint32_t edge;
  };

  int ColOf(double x) const {
    const int c = static_cast<int>((x - bounds_.min.x) * inv_cw_);
    return c < 0 ? 0 : (c >= nx_ ? nx_ - 1 : c);
  }
  int RowOf(double y) const {
    const int r = static_cast<int>((y - bounds_.min.y) * inv_ch_);
    return r < 0 ? 0 : (r >= ny_ ? ny_ - 1 : r);
  }
  std::size_t CellIndexOf(const Point& p) const {
    return static_cast<std::size_t>(RowOf(p.y)) * nx_ + ColOf(p.x);
  }

  /// Exact crossing-parity containment scanning only the edges of `p`'s
  /// grid row — the same predicate calls `Polygon::Contains` makes, on the
  /// subset of edges whose y-range meets `p.y` (the only edges the naive
  /// loop reacts to).
  bool ContainsViaRow(const Point& p) const;

  /// Invokes `fn(cell_index)` for every grid cell whose epsilon-inflated
  /// box edge `i` touches (conservative supercover rasterisation).
  template <typename Fn>
  void ForEachEdgeCell(std::size_t i, Fn&& fn) const;

  std::uint32_t SatRangeSum(const std::vector<std::uint32_t>& sat, int cx0,
                            int cy0, int cx1, int cy1) const {
    const int w = nx_ + 1;
    return sat[static_cast<std::size_t>(cy1 + 1) * w + cx1 + 1] -
           sat[static_cast<std::size_t>(cy0) * w + cx1 + 1] -
           sat[static_cast<std::size_t>(cy1 + 1) * w + cx0] +
           sat[static_cast<std::size_t>(cy0) * w + cx0];
  }

  const Polygon* polygon_ = nullptr;
  Box bounds_;
  int nx_ = 0;
  int ny_ = 0;
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
  double inv_cw_ = 1.0;
  double inv_ch_ = 1.0;
  double pad_x_ = 0.0;  // Rasterisation inflation, ~1e-6 of a cell.
  double pad_y_ = 0.0;
  std::size_t boundary_cells_ = 0;
  std::size_t inside_cells_ = 0;

  /// Per-cell class (kPointOutside/kPointInside/kPointBoundary), row-major.
  std::vector<unsigned char> cell_class_;
  /// CSR edge lists per boundary cell (empty list for other cells).
  std::vector<std::uint32_t> cell_edge_offsets_;
  std::vector<std::uint32_t> cell_edges_;
  /// CSR edge lists per grid row: every edge whose y-range meets the row.
  std::vector<std::uint32_t> row_edge_offsets_;
  std::vector<std::uint32_t> row_edges_;
  /// Summed-area tables of the inside / boundary cell indicator functions,
  /// (nx+1) x (ny+1), for O(1) ClassifyBox.
  std::vector<std::uint32_t> inside_sat_;
  std::vector<std::uint32_t> boundary_sat_;
  /// Build scratch (rasterised incidences, CSR fill cursors), reused
  /// across Prepare calls so steady-state rebuilds allocate nothing.
  std::vector<RasterPair> raster_pairs_;
  std::vector<std::uint32_t> csr_cursor_;
};

}  // namespace vaq

#endif  // VAQ_GEOMETRY_PREPARED_AREA_H_
