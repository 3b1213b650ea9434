#include "geometry/prepared_area.h"

#include <algorithm>
#include <cmath>

#include "geometry/predicates.h"

namespace vaq {

namespace {

/// Residual exact segment tests walk the cells under the segment's MBR; a
/// degenerate "segment" spanning the whole grid would walk more cells than
/// the naive O(m) scan, so ranges past this cap fall back to the polygon.
constexpr int kSegmentCellCap = 256;

}  // namespace

template <typename Fn>
void PreparedArea::ForEachEdgeCell(std::size_t i, Fn&& fn) const {
  const Point& a = polygon_->vertex(i);
  const Point& b = polygon_->vertex((i + 1) % polygon_->size());
  const double ex0 = std::min(a.x, b.x);
  const double ex1 = std::max(a.x, b.x);
  const int cx0 = ColOf(ex0 - pad_x_);
  const int cx1 = ColOf(ex1 + pad_x_);
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  for (int cx = cx0; cx <= cx1; ++cx) {
    // Clip the edge to this column's epsilon-inflated x-slab and mark every
    // row its y-range meets. The pads absorb both the clip arithmetic's
    // rounding error and the worst-case error of the query-side cell-index
    // computation, so the marked set is a strict superset of every cell any
    // FP-computed index can attribute an edge point to.
    double ylo, yhi;
    if (dx == 0.0) {
      ylo = std::min(a.y, b.y);
      yhi = std::max(a.y, b.y);
    } else {
      const double slab_x0 = bounds_.min.x + cx * cell_w_ - pad_x_;
      const double slab_x1 = bounds_.min.x + (cx + 1) * cell_w_ + pad_x_;
      double t0 = (slab_x0 - a.x) / dx;
      double t1 = (slab_x1 - a.x) / dx;
      t0 = std::clamp(t0, 0.0, 1.0);
      t1 = std::clamp(t1, 0.0, 1.0);
      const double y0 = a.y + t0 * dy;
      const double y1 = a.y + t1 * dy;
      ylo = std::min(y0, y1);
      yhi = std::max(y0, y1);
    }
    const int cy0 = RowOf(ylo - pad_y_);
    const int cy1 = RowOf(yhi + pad_y_);
    for (int cy = cy0; cy <= cy1; ++cy) {
      fn(static_cast<std::size_t>(cy) * nx_ + cx);
    }
  }
}

int PreparedArea::SuggestGridSide(std::size_t m, std::size_t expected_tests) {
  if (expected_tests == 0) return 0;
  // Optimum of build(side) + tests * boundary_fraction(side) * row_test:
  // side* ~ cbrt(tests * c); complex polygons pay more per residual exact
  // test, shifting the optimum up a little.
  const double complexity =
      std::sqrt(std::max(1.0, static_cast<double>(m) / 10.0));
  const double side = std::cbrt(4.0 * static_cast<double>(expected_tests)) *
                      complexity;
  return std::clamp(static_cast<int>(side), 8, 192);
}

std::size_t PreparedArea::EstimateMbrShare(std::size_t n, const Box& domain,
                                           const Box& mbr) {
  const double domain_area = std::max(domain.Area(), 1e-300);
  return static_cast<std::size_t>(static_cast<double>(n) *
                                  std::min(1.0, mbr.Area() / domain_area));
}

void PreparedArea::Prepare(const Polygon& area, int grid_side_hint) {
  polygon_ = nullptr;
  if (area.size() < 3) return;
  polygon_ = &area;
  bounds_ = area.Bounds();
  const std::size_t m = area.size();

  int side = grid_side_hint > 0
                 ? std::clamp(grid_side_hint, 4, kMaxGridSide)
                 : std::clamp(static_cast<int>(
                                  4.0 * std::sqrt(static_cast<double>(m))),
                              32, 192);
  nx_ = ny_ = side;
  cell_w_ = std::max(bounds_.Width(), 1e-300) / nx_;
  cell_h_ = std::max(bounds_.Height(), 1e-300) / ny_;
  inv_cw_ = 1.0 / cell_w_;
  inv_ch_ = 1.0 / cell_h_;
  pad_x_ = cell_w_ * 1e-6;
  pad_y_ = cell_h_ * 1e-6;

  const std::size_t cells = static_cast<std::size_t>(nx_) * ny_;

  // --- Rasterise the boundary once: record (cell, edge) pairs in
  // generation order and count each cell's edges (a cell with edges is a
  // boundary cell); the row lists count their edges in the same loop. No
  // pads on rows: the y -> row mapping is monotone, so an edge straddling
  // p.y always lands in p's row range. Raw pointers keep the hot loops
  // free of reloads through the vectors. ---
  cell_edge_offsets_.assign(cells + 1, 0);
  row_edge_offsets_.assign(ny_ + 1, 0);
  raster_pairs_.clear();
  std::uint32_t* const cell_off = cell_edge_offsets_.data();
  std::uint32_t* const row_off = row_edge_offsets_.data();
  for (std::size_t i = 0; i < m; ++i) {
    const auto edge = static_cast<std::uint32_t>(i);
    ForEachEdgeCell(i, [&](std::size_t cell) {
      ++cell_off[cell + 1];
      raster_pairs_.push_back({static_cast<std::uint32_t>(cell), edge});
    });
    const Point& a = area.vertex(i);
    const Point& b = area.vertex((i + 1) % m);
    const int r1 = RowOf(std::max(a.y, b.y));
    for (int r = RowOf(std::min(a.y, b.y)); r <= r1; ++r) ++row_off[r + 1];
  }
  for (int r = 0; r < ny_; ++r) row_off[r + 1] += row_off[r];
  row_edges_.resize(row_off[ny_]);
  csr_cursor_.assign(row_off, row_off + ny_);
  for (std::size_t i = 0; i < m; ++i) {
    const Point& a = area.vertex(i);
    const Point& b = area.vertex((i + 1) % m);
    const int r1 = RowOf(std::max(a.y, b.y));
    for (int r = RowOf(std::min(a.y, b.y)); r <= r1; ++r) {
      row_edges_[csr_cursor_[r]++] = static_cast<std::uint32_t>(i);
    }
  }

  // --- One row-major pass over the cells: classify them, build both
  // summed-area tables from row running sums, and prefix-sum the cell CSR
  // offsets. The boundary ring only passes through boundary cells, so
  // each 4-connected component of edge-free cells has one containment
  // status. Row-major order reaches every component first at a cell whose
  // left and upper neighbours are both boundary (or off the grid); such a
  // cell is classified on its own (one exact test at its centre, or none
  // on the grid's rim), and every other edge-free cell copies an
  // already-classified left or upper neighbour of its own component. ---
  cell_class_.assign(cells + kCellClassPadding, 0);
  const std::size_t w = nx_ + 1;
  inside_sat_.resize(w * (ny_ + 1));
  boundary_sat_.resize(w * (ny_ + 1));
  unsigned char* const cls = cell_class_.data();
  std::uint32_t* const in_sat = inside_sat_.data();
  std::uint32_t* const bd_sat = boundary_sat_.data();
  std::fill(in_sat, in_sat + w, 0);
  std::fill(bd_sat, bd_sat + w, 0);
  constexpr unsigned char kSeed = 3;  // Edge-free, no classified neighbour.
  const int nx = nx_;
  const int ny = ny_;
  boundary_cells_ = inside_cells_ = 0;
  for (int cy = 0; cy < ny; ++cy) {
    const std::size_t row = static_cast<std::size_t>(cy) * nx;
    const std::size_t at = static_cast<std::size_t>(cy + 1) * w;
    in_sat[at] = 0;
    bd_sat[at] = 0;
    std::uint32_t row_inside = 0;
    std::uint32_t row_boundary = 0;
    unsigned char left = kPointBoundary;  // Off the grid.
    for (int cx = 0; cx < nx; ++cx) {
      const std::size_t c = row + cx;
      const std::uint32_t edges = cell_off[c + 1];
      const unsigned char up = cy > 0 ? cls[c - nx] : kPointBoundary;
      unsigned char v = up != kPointBoundary ? up : kSeed;
      v = left != kPointBoundary ? left : v;
      v = edges != 0 ? kPointBoundary : v;
      if (v == kSeed) {
        if (cx == 0 || cy == 0 || cx == nx - 1 || cy == ny - 1) {
          // An edge-free cell on the grid's rim holds points of the MBR's
          // rim. Those are never interior, and not on the boundary either,
          // so they and their whole component are outside.
          v = kPointOutside;
        } else {
          const Point rep{bounds_.min.x + (cx + 0.5) * cell_w_,
                          bounds_.min.y + (cy + 0.5) * cell_h_};
          v = ContainsViaRow(rep) ? kPointInside : kPointOutside;
        }
      }
      cls[c] = v;
      left = v;
      row_inside += v == kPointInside ? 1 : 0;
      row_boundary += v == kPointBoundary ? 1 : 0;
      in_sat[at + cx + 1] = in_sat[at - w + cx + 1] + row_inside;
      bd_sat[at + cx + 1] = bd_sat[at - w + cx + 1] + row_boundary;
      cell_off[c + 1] = cell_off[c] + edges;
    }
    inside_cells_ += row_inside;
    boundary_cells_ += row_boundary;
  }

  // --- Scatter the recorded pairs into the cell CSR. A stable counting
  // sort keeps each cell's edges in ascending order, as two rasterisation
  // passes would. ---
  cell_edges_.resize(cell_off[cells]);
  csr_cursor_.assign(cell_off, cell_off + cells);
  for (const RasterPair& pair : raster_pairs_) {
    cell_edges_[csr_cursor_[pair.cell]++] = pair.edge;
  }
}

bool PreparedArea::ContainsViaRow(const Point& p) const {
  // The same loop body as Polygon::Contains, over the row's edge subset:
  // every edge the naive scan reacts to (on-edge hit or parity crossing)
  // has p.y inside its y-range, hence is listed in p's row.
  const Polygon& poly = *polygon_;
  const int row = RowOf(p.y);
  const std::uint32_t begin = row_edge_offsets_[row];
  const std::uint32_t end = row_edge_offsets_[row + 1];
  bool inside = false;
  for (std::uint32_t k = begin; k < end; ++k) {
    const std::size_t i = row_edges_[k];
    const Point& a = poly.vertex(i);
    const Point& b = poly.vertex((i + 1) % poly.size());
    if (poly.edge_bounds(i).Contains(p) && Orient2DSign(a, b, p) == 0) {
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

void PreparedArea::ClassifyPoints(const double* xs, const double* ys,
                                  std::size_t n, unsigned char* cls) const {
  if (polygon_ == nullptr) {
    std::fill(cls, cls + n, kPointOutside);
    return;
  }
  const double minx = bounds_.min.x, miny = bounds_.min.y;
  const double maxx = bounds_.max.x, maxy = bounds_.max.y;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = xs[i];
    const double y = ys[i];
    if (x < minx || x > maxx || y < miny || y > maxy) {
      cls[i] = kPointOutside;
      continue;
    }
    int cx = static_cast<int>((x - minx) * inv_cw_);
    int cy = static_cast<int>((y - miny) * inv_ch_);
    cx = cx >= nx_ ? nx_ - 1 : cx;
    cy = cy >= ny_ ? ny_ - 1 : cy;
    cls[i] = cell_class_[static_cast<std::size_t>(cy) * nx_ + cx];
  }
}

bool PreparedArea::BoundaryIntersects(const Segment& s) const {
  if (polygon_ == nullptr) return false;
  const Box sb = s.Bounds();
  if (!bounds_.Intersects(sb)) return false;
  const int cx0 = ColOf(sb.min.x - pad_x_);
  const int cx1 = ColOf(sb.max.x + pad_x_);
  const int cy0 = RowOf(sb.min.y - pad_y_);
  const int cy1 = RowOf(sb.max.y + pad_y_);
  if ((cx1 - cx0 + 1) * (cy1 - cy0 + 1) > kSegmentCellCap) {
    return polygon_->BoundaryIntersects(s);
  }
  // Any edge intersecting `s` does so at a point whose cell lies both in
  // this covering range and in the edge's rasterised cell set, so scanning
  // the boundary cells of the range sees every possible hit. One
  // summed-area lookup rejects ranges away from the boundary outright.
  if (SatRangeSum(boundary_sat_, cx0, cy0, cx1, cy1) == 0) return false;
  const Polygon& poly = *polygon_;
  for (int cy = cy0; cy <= cy1; ++cy) {
    for (int cx = cx0; cx <= cx1; ++cx) {
      const std::size_t cell = static_cast<std::size_t>(cy) * nx_ + cx;
      if (cell_class_[cell] != kPointBoundary) continue;
      const std::uint32_t begin = cell_edge_offsets_[cell];
      const std::uint32_t end = cell_edge_offsets_[cell + 1];
      for (std::uint32_t k = begin; k < end; ++k) {
        const std::size_t i = cell_edges_[k];
        if (!poly.edge_bounds(i).Intersects(sb)) continue;
        if (SegmentsIntersect(poly.edge(i), s)) return true;
      }
    }
  }
  return false;
}

PreparedArea::Region PreparedArea::ClassifyBox(const Box& box) const {
  if (polygon_ == nullptr || box.Empty()) return Region::kOutside;
  if (!bounds_.Intersects(box)) return Region::kOutside;
  const int cx0 = ColOf(box.min.x - pad_x_);
  const int cx1 = ColOf(box.max.x + pad_x_);
  const int cy0 = RowOf(box.min.y - pad_y_);
  const int cy1 = RowOf(box.max.y + pad_y_);
  if (SatRangeSum(boundary_sat_, cx0, cy0, cx1, cy1) > 0) {
    return Region::kStraddling;
  }
  const std::uint32_t inside = SatRangeSum(inside_sat_, cx0, cy0, cx1, cy1);
  const std::uint32_t covered =
      static_cast<std::uint32_t>((cx1 - cx0 + 1) * (cy1 - cy0 + 1));
  if (inside == 0) return Region::kOutside;
  if (inside == covered) {
    // Every covered cell is interior; the box is inside iff it does not
    // stick out of the grid (the region beyond the MBR is outside).
    return bounds_.Contains(box) ? Region::kInside : Region::kStraddling;
  }
  // Inside and outside cells with no boundary cell between them cannot
  // happen within one connected component; a rectangle of cells is
  // connected, so this range must touch the boundary band's pad fringe —
  // classify conservatively.
  return Region::kStraddling;
}

}  // namespace vaq
