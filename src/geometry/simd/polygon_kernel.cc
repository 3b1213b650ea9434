#include "geometry/simd/polygon_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "geometry/predicates.h"
#include "geometry/simd/classify_kernels.h"

namespace vaq {

namespace {

// Internal blocking of ContainsBatch: bounds the scratch class/flag
// buffers so arbitrary-n calls stay on the stack. Matches kRefineBlock so
// the refine loops map 1:1 onto kernel blocks.
constexpr std::size_t kKernelBlock = 256;

// The AVX2 grid kernel writes literal 0 for out-of-MBR lanes.
static_assert(PreparedArea::kPointOutside == 0,
              "grid kernel encodes 'outside' as 0");

}  // namespace

void PolygonKernel::Prepare(const PreparedArea& prep, simd::Arm arm) {
  prep_ = &prep;
  arm_ = arm;
  kind_ = Kind::kNone;
  row_offsets_ = nullptr;
  if (!prep.prepared()) return;
  kind_ = Kind::kGridResidual;
#if defined(VAQ_HAVE_AVX2_KERNELS)
  const Polygon& poly = prep.polygon();
  const std::size_t m = poly.size();
  // Specialisation only pays on the vector arm; the scalar arm stays on
  // the PR 6 grid-residual path so VAQ_FORCE_SCALAR reproduces the
  // pre-SIMD engine behaviour exactly.
  if (arm_ == simd::Arm::kAvx2) {
    int orientation = 0;
    if (m <= kConvexMaxVertices) {
      // Exact convexity: all consecutive-triple orientations share one
      // sign (collinear triples allowed, an all-collinear ring is not a
      // polygon and stays on the grid path), AND the ring winds exactly
      // once. Same-sign turns alone also admit star rings such as the
      // pentagram, whose half-plane intersection is only the inner
      // pentagon. Winding once means the sign of the edge dx changes
      // exactly twice around the ring; the sign of a double difference is
      // exact, and vertical edges (dx == 0) are skipped.
      bool pos = false;
      bool neg = false;
      int first_dx = 0;
      int last_dx = 0;
      int dx_changes = 0;
      for (std::size_t i = 0; i < m; ++i) {
        const Point& a = poly.vertex(i);
        const Point& b = poly.vertex((i + 1) % m);
        const int s = Orient2DSign(a, b, poly.vertex((i + 2) % m));
        pos = pos || s > 0;
        neg = neg || s < 0;
        const int dx = (b.x > a.x) - (b.x < a.x);
        if (dx == 0) continue;
        if (first_dx == 0) {
          first_dx = dx;
        } else if (dx != last_dx) {
          ++dx_changes;
        }
        last_dx = dx;
      }
      if (last_dx != first_dx) ++dx_changes;  // Close the cycle.
      if (pos != neg && dx_changes == 2) orientation = pos ? 1 : -1;
    }
    if (orientation != 0) {
      kind_ = Kind::kConvexHalfPlane;
    } else if (m <= kSmallMMaxVertices) {
      kind_ = Kind::kSmallMEdge;
    }
    if (kind_ != Kind::kGridResidual) {
      // Certified bounding-circle screen around the vertex centroid. The
      // circumscribed radius upper-bounds every vertex distance, so
      // "beyond it" proves outside for any simple polygon. The inscribed
      // radius lower-bounds the centroid's distance to every edge LINE via
      // the same static filter the lane kernels certify signs with
      // (|det| - errbound <= |exact det|); line distance lower-bounds
      // segment distance, so the disk lies inside whenever the centroid
      // does. The 1e-9 relative margins swallow the remaining ~4-ulp
      // rounding of the quotients with six orders of magnitude to spare.
      screen_ = simd::CircleScreen{};
      double ccx = 0.0;
      double ccy = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        ccx += poly.vertex(i).x;
        ccy += poly.vertex(i).y;
      }
      ccx /= static_cast<double>(m);
      ccy /= static_cast<double>(m);
      screen_.cx = ccx;
      screen_.cy = ccy;
      double rout2 = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const double dx = poly.vertex(i).x - ccx;
        const double dy = poly.vertex(i).y - ccy;
        rout2 = std::max(rout2, dx * dx + dy * dy);
      }
      screen_.rout2 = rout2 * (1.0 + 1e-9);
      if (poly.Contains({ccx, ccy})) {
        double rin2 = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < m; ++i) {
          const Point& a = poly.vertex(i);
          const Point& b = poly.vertex((i + 1) % m);
          const double l = (a.x - ccx) * (b.y - ccy);
          const double r = (a.y - ccy) * (b.x - ccx);
          const double num = std::abs(l - r) -
                             simd::kCcwErrBound * (std::abs(l) + std::abs(r));
          const double ex = b.x - a.x;
          const double ey = b.y - a.y;
          const double den2 = ex * ex + ey * ey;
          if (num <= 0.0 || den2 <= 0.0) {
            rin2 = 0.0;
            break;
          }
          rin2 = std::min(rin2, (num * num) / den2 * (1.0 - 1e-9));
        }
        screen_.rin2 = std::isfinite(rin2) ? rin2 : 0.0;
      }

      // Ring edges in SoA; convex CW rings store swapped endpoints so the
      // inner side is uniformly orient(a, b, p) >= 0.
      const bool flip = kind_ == Kind::kConvexHalfPlane && orientation < 0;
      ax_.resize(m);
      ay_.resize(m);
      bx_.resize(m);
      by_.resize(m);
      ebminx_.resize(m);
      ebmaxx_.resize(m);
      ebminy_.resize(m);
      ebmaxy_.resize(m);
      for (std::size_t i = 0; i < m; ++i) {
        Point a = poly.vertex(i);
        Point b = poly.vertex((i + 1) % m);
        if (flip) std::swap(a, b);
        ax_[i] = a.x;
        ay_[i] = a.y;
        bx_[i] = b.x;
        by_[i] = b.y;
        const Box& eb = poly.edge_bounds(i);
        ebminx_[i] = eb.min.x;
        ebmaxx_[i] = eb.max.x;
        ebminy_[i] = eb.min.y;
        ebmaxy_[i] = eb.max.y;
      }
    } else {
      // Row-CSR edge coordinates for the vectorised boundary-band resolve,
      // in the PreparedArea's concatenation order (order is irrelevant to
      // parity/on-edge, so matching it is only for cache locality).
      const std::uint32_t* row_edges = prep.row_edges_data();
      const std::size_t rn = prep.row_edges_size();
      row_offsets_ = prep.row_edge_offsets_data();
      rax_.resize(rn);
      ray_.resize(rn);
      rbx_.resize(rn);
      rby_.resize(rn);
      rebminx_.resize(rn);
      rebmaxx_.resize(rn);
      rebminy_.resize(rn);
      rebmaxy_.resize(rn);
      for (std::size_t k = 0; k < rn; ++k) {
        const std::size_t i = row_edges[k];
        const Point& a = poly.vertex(i);
        const Point& b = poly.vertex((i + 1) % m);
        rax_[k] = a.x;
        ray_[k] = a.y;
        rbx_[k] = b.x;
        rby_[k] = b.y;
        const Box& eb = poly.edge_bounds(i);
        rebminx_[k] = eb.min.x;
        rebmaxx_[k] = eb.max.x;
        rebminy_[k] = eb.min.y;
        rebmaxy_[k] = eb.max.y;
      }
      const Box& gb = prep.bounds();
      gminx_ = gb.min.x;
      gminy_ = gb.min.y;
      gmaxx_ = gb.max.x;
      gmaxy_ = gb.max.y;
      ginv_cw_ = prep.inv_cell_w();
      ginv_ch_ = prep.inv_cell_h();
      gnx_ = prep.grid_nx();
      gny_ = prep.grid_ny();
    }
  }
#endif
}

std::uint64_t PolygonKernel::stats_mask() const {
  std::uint64_t mask = 0;
  switch (kind_) {
    case Kind::kGridResidual:
      mask = kStatsGridResidual;
      break;
    case Kind::kConvexHalfPlane:
      mask = kStatsConvexHalfPlane;
      break;
    case Kind::kSmallMEdge:
      mask = kStatsSmallMEdge;
      break;
    case Kind::kNone:
      return 0;
  }
  if (arm_ == simd::Arm::kAvx2) mask |= kStatsAvx2;
  return mask;
}

const char* PolygonKernel::KindName(Kind kind) {
  switch (kind) {
    case Kind::kGridResidual:
      return "grid_residual";
    case Kind::kConvexHalfPlane:
      return "convex_half_plane";
    case Kind::kSmallMEdge:
      return "small_m_edge";
    case Kind::kNone:
      break;
  }
  return "none";
}

void PolygonKernel::ContainsBatch(const double* xs, const double* ys,
                                  std::size_t n, bool* inside) const {
  if (kind_ == Kind::kNone) {
    std::fill(inside, inside + n, false);
    return;
  }
#if defined(VAQ_HAVE_AVX2_KERNELS)
  if (arm_ == simd::Arm::kAvx2) {
    if (kind_ == Kind::kGridResidual) {
      ContainsBatchAvx2Grid(xs, ys, n, inside);
    } else {
      ContainsBatchAvx2Ring(xs, ys, n, inside);
    }
    return;
  }
#endif
  ContainsBatchScalarGrid(xs, ys, n, inside);
}

void PolygonKernel::ContainsBatchScalarGrid(const double* xs, const double* ys,
                                            std::size_t n,
                                            bool* inside) const {
  // The PR 6 refine loop verbatim: grid class per point, exact row-local
  // test in the boundary band.
  unsigned char cls[kKernelBlock];
  for (std::size_t base = 0; base < n; base += kKernelBlock) {
    const std::size_t c = std::min(kKernelBlock, n - base);
    prep_->ClassifyPoints(xs + base, ys + base, c, cls);
    for (std::size_t j = 0; j < c; ++j) {
      inside[base + j] = cls[j] == PreparedArea::kPointInside ||
                         (cls[j] == PreparedArea::kPointBoundary &&
                          prep_->Contains({xs[base + j], ys[base + j]}));
    }
  }
}

#if defined(VAQ_HAVE_AVX2_KERNELS)

void PolygonKernel::ContainsBatchAvx2Grid(const double* xs, const double* ys,
                                          std::size_t n, bool* inside) const {
  simd::GridView gv;
  gv.minx = gminx_;
  gv.miny = gminy_;
  gv.maxx = gmaxx_;
  gv.maxy = gmaxy_;
  gv.inv_cw = ginv_cw_;
  gv.inv_ch = ginv_ch_;
  gv.nx = gnx_;
  gv.ny = gny_;
  gv.cell_class = prep_->cell_class_data();
  simd::EdgeSoA soa;
  soa.ax = rax_.data();
  soa.ay = ray_.data();
  soa.bx = rbx_.data();
  soa.by = rby_.data();
  soa.ebminx = rebminx_.data();
  soa.ebmaxx = rebmaxx_.data();
  soa.ebminy = rebminy_.data();
  soa.ebmaxy = rebmaxy_.data();
  // A block's boundary lanes (`row << 16 | lane`), counting-sorted by grid
  // row so that the lanes of one row share one broadcast pass over the
  // row's edges.
  std::uint32_t tagged[kKernelBlock];
  std::uint16_t sorted_lanes[kKernelBlock];
  double bxs[kKernelBlock];
  double bys[kKernelBlock];
  signed char verdicts[kKernelBlock];
  std::uint16_t row_ends[PreparedArea::kMaxGridSide + 1];
  for (std::size_t base = 0; base < n; base += kKernelBlock) {
    const std::size_t c = std::min(kKernelBlock, n - base);
    const std::size_t nb = simd::ClassifyGridBlockAvx2(
        gv, xs + base, ys + base, c, inside + base, tagged);
    if (nb == 0) continue;
    // Only the rows the block's boundary lanes occupy are counted.
    int rmin = gny_;
    int rmax = -1;
    for (std::size_t k = 0; k < nb; ++k) {
      rmin = std::min(rmin, static_cast<int>(tagged[k] >> 16));
      rmax = std::max(rmax, static_cast<int>(tagged[k] >> 16));
    }
    std::fill(row_ends + rmin, row_ends + rmax + 2, std::uint16_t{0});
    for (std::size_t k = 0; k < nb; ++k) ++row_ends[(tagged[k] >> 16) + 1];
    for (int r = rmin; r <= rmax; ++r) row_ends[r + 1] += row_ends[r];
    // row_ends[r] is now row r's first slot; the scatter advances it to
    // the row's end, which is row r + 1's first slot.
    for (std::size_t k = 0; k < nb; ++k) {
      const std::uint16_t at = row_ends[tagged[k] >> 16]++;
      const std::size_t lane = tagged[k] & 0xFFFFu;
      sorted_lanes[at] = static_cast<std::uint16_t>(lane);
      bxs[at] = xs[base + lane];
      bys[at] = ys[base + lane];
    }
    std::size_t first = 0;
    for (int r = rmin; r <= rmax; ++r) {
      const std::size_t last = row_ends[r];
      if (last > first) {
        simd::RowParityLanesAvx2(soa, row_offsets_[r], row_offsets_[r + 1],
                                 bxs + first, bys + first, last - first,
                                 verdicts + first);
      }
      first = last;
    }
    // Lanes the filter cannot certify fall back to the scalar exact row
    // test.
    for (std::size_t k = 0; k < nb; ++k) {
      inside[base + sorted_lanes[k]] =
          verdicts[k] < 0 ? prep_->Contains({bxs[k], bys[k]})
                          : verdicts[k] == 1;
    }
  }
}

void PolygonKernel::ContainsBatchAvx2Ring(const double* xs, const double* ys,
                                          std::size_t n, bool* inside) const {
  simd::EdgeSoA soa;
  soa.ax = ax_.data();
  soa.ay = ay_.data();
  soa.bx = bx_.data();
  soa.by = by_.data();
  soa.ebminx = ebminx_.data();
  soa.ebmaxx = ebmaxx_.data();
  soa.ebminy = ebminy_.data();
  soa.ebmaxy = ebmaxy_.data();
  const Box& b = prep_->bounds();
  const std::size_t m = ax_.size();
  bool needs_exact[kKernelBlock];
  for (std::size_t base = 0; base < n; base += kKernelBlock) {
    const std::size_t c = std::min(kKernelBlock, n - base);
    bool any_exact;
    if (kind_ == Kind::kConvexHalfPlane) {
      any_exact = simd::ConvexContainsAvx2(soa, m, screen_, b.min.x, b.min.y,
                                           b.max.x, b.max.y, xs + base,
                                           ys + base, c, inside + base,
                                           needs_exact);
    } else {
      any_exact = simd::CrossingParityAvx2(soa, m, screen_, b.min.x, b.min.y,
                                           b.max.x, b.max.y, xs + base,
                                           ys + base, c, inside + base,
                                           needs_exact);
    }
    if (!any_exact) continue;
    for (std::size_t j = 0; j < c; ++j) {
      if (needs_exact[j]) {
        inside[base + j] = prep_->Contains({xs[base + j], ys[base + j]});
      }
    }
  }
}

#endif  // VAQ_HAVE_AVX2_KERNELS

void ClassifyCellsOnArm(const PreparedArea& prep, simd::Arm arm,
                        const double* xs, const double* ys, std::size_t n,
                        unsigned char* cls) {
#if defined(VAQ_HAVE_AVX2_KERNELS)
  if (arm == simd::Arm::kAvx2 && simd::Avx2Available() && prep.prepared()) {
    simd::GridView gv;
    const Box& b = prep.bounds();
    gv.minx = b.min.x;
    gv.miny = b.min.y;
    gv.maxx = b.max.x;
    gv.maxy = b.max.y;
    gv.inv_cw = prep.inv_cell_w();
    gv.inv_ch = prep.inv_cell_h();
    gv.nx = prep.grid_nx();
    gv.ny = prep.grid_ny();
    gv.cell_class = prep.cell_class_data();
    simd::ClassifyCellsAvx2(gv, xs, ys, n, cls);
    return;
  }
#else
  (void)arm;
#endif
  prep.ClassifyPoints(xs, ys, n, cls);
}

}  // namespace vaq
