#ifndef VAQ_GEOMETRY_SIMD_CLASSIFY_KERNELS_H_
#define VAQ_GEOMETRY_SIMD_CLASSIFY_KERNELS_H_

#include <cfloat>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace vaq::simd {

/// Shewchuk's static "A" error bound for the orient2d determinant filter —
/// the same constant `geometry/predicates.cc` uses. A lane whose |det|
/// reaches `kCcwErrBound * (|detleft| + |detright|)` has a certified sign
/// (equal to the exact real-arithmetic sign); anything closer to zero is
/// resolved by the scalar exact path. The uniform |det| >= bound test also
/// subsumes the scalar filter's opposite-sign early returns: there
/// det == detsum bit for bit, so the inequality holds trivially.
inline constexpr double kCcwErrBound =
    (3.0 + 16.0 * (DBL_EPSILON / 2.0)) * (DBL_EPSILON / 2.0);

/// Value copy of a `PreparedArea` grid header for the cell-classification
/// kernel: the exact quantities the scalar `ClassifyPoints` loop reads, so
/// the vector arm performs the identical arithmetic (subtract, multiply,
/// truncate, clamp-high) on identical values.
struct GridView {
  double minx = 0.0;
  double miny = 0.0;
  double maxx = 0.0;
  double maxy = 0.0;
  double inv_cw = 1.0;
  double inv_ch = 1.0;
  int nx = 0;
  int ny = 0;
  const unsigned char* cell_class = nullptr;
};

/// Parallel edge-coordinate arrays (SoA), either the polygon's ring edges
/// (convex / small-m kernels: one entry per ring edge, index-aligned) or
/// the per-row CSR concatenation (grid-residual boundary resolve). The
/// `eb*` arrays are the cached per-edge MBRs the scalar containment test
/// gates its on-edge check on.
struct EdgeSoA {
  const double* ax = nullptr;
  const double* ay = nullptr;
  const double* bx = nullptr;
  const double* by = nullptr;
  const double* ebminx = nullptr;
  const double* ebmaxx = nullptr;
  const double* ebminy = nullptr;
  const double* ebmaxy = nullptr;
};

/// Certified bounding-circle pre-screen for the ring kernels. Both radii
/// are conservatively rounded at Prepare time so the lane tests are
/// mathematically exact despite being two multiplies and a compare:
/// computed |p-c|^2 < `rin2` proves p strictly inside the polygon (the
/// disk of that radius around c lies inside), and computed |p-c|^2 >
/// `rout2` proves p strictly outside (beyond every vertex). Lanes in the
/// annulus fall through to the edge chain or the exact scalar path. The
/// degenerate values (`rin2` 0, `rout2` infinity) disable the respective
/// half, never producing a wrong certificate.
struct CircleScreen {
  double cx = 0.0;
  double cy = 0.0;
  double rin2 = 0.0;
  double rout2 = std::numeric_limits<double>::infinity();
};

#if defined(VAQ_HAVE_AVX2_KERNELS)

/// AVX2 arm of `PreparedArea::ClassifyPoints`: writes the grid cell class
/// (0 outside / 1 inside / 2 boundary) of each point, bit-identical to the
/// scalar loop for finite coordinates. Tail lanes (n % 4) run through the
/// same masked vector path, not a separate scalar loop.
void ClassifyCellsAvx2(const GridView& g, const double* xs, const double* ys,
                       std::size_t n, unsigned char* cls);

/// The grid-residual kernel's first step over one block of n <= 65536
/// points: the same cell classes as `ClassifyCellsAvx2`, consumed in place.
/// Writes `inside[j]` = (class is inside) for every point, appends each
/// boundary-class point as `row << 16 | j` to `boundary` (its grid row
/// clamped like `PreparedArea::RowOf`), in point order, and returns how
/// many it appended. `boundary` needs room for n rounded up to a multiple
/// of 4. Reads 32-bit words of `g.cell_class`, which must be followed by
/// `PreparedArea::kCellClassPadding` readable bytes.
std::size_t ClassifyGridBlockAvx2(const GridView& g, const double* xs,
                                  const double* ys, std::size_t n,
                                  bool* inside, std::uint32_t* boundary);

/// Convex half-plane chain: `inside[j]` = point j is on the inner side of
/// every edge (edges pre-oriented so inside means orient(a,b,p) >= 0),
/// evaluated 8 lanes per iteration with the certified static filter.
/// Lanes the filter cannot certify get `needs_exact[j] = true` and an
/// unspecified `inside[j]`; the caller must resolve them with the exact
/// scalar containment test. The polygon MBR [bminx,bmaxx]x[bminy,bmaxy]
/// gate mirrors `Polygon::Contains`' bounds reject. The circle screen
/// short-circuits whole 8-lane groups: when it decides all but at most
/// two lanes, the chain is skipped and the stragglers are flagged
/// `needs_exact` instead (cheaper than m edge iterations). Returns true
/// when any lane was flagged `needs_exact`, so callers can skip the
/// resolve scan entirely for fully-certified blocks.
bool ConvexContainsAvx2(const EdgeSoA& e, std::size_t m,
                        const CircleScreen& cs, double bminx, double bminy,
                        double bmaxx, double bmaxy, const double* xs,
                        const double* ys, std::size_t n, bool* inside,
                        bool* needs_exact);

/// Crossing-parity containment over all m ring edges (the small-m kernel),
/// points in lanes. Same certification contract as `ConvexContainsAvx2`:
/// certified lanes reproduce `Polygon::Contains` exactly (including the
/// on-edge => true rule); uncertain lanes are flagged for the scalar
/// exact path. Honours the same circle-screen short-circuit as
/// `ConvexContainsAvx2`, and the same any-needs-exact return.
bool CrossingParityAvx2(const EdgeSoA& e, std::size_t m,
                        const CircleScreen& cs, double bminx, double bminy,
                        double bmaxx, double bmaxy, const double* xs,
                        const double* ys, std::size_t n, bool* inside,
                        bool* needs_exact);

/// Crossing-parity test of `n` points against ONE shared edge range
/// [begin, end) — the boundary-band resolve of the grid-residual kernel
/// for the points of one grid row: points in lanes, the row CSR slice
/// (contiguous in `e`) broadcast one edge at a time. Writes per point
/// `verdict[j]` = 1 (contained), 0 (not contained) or -1 when some
/// relevant edge cannot be certified and the caller must run the exact
/// row test instead.
void RowParityLanesAvx2(const EdgeSoA& e, std::size_t begin, std::size_t end,
                        const double* xs, const double* ys, std::size_t n,
                        signed char* verdict);

#endif  // VAQ_HAVE_AVX2_KERNELS

}  // namespace vaq::simd

#endif  // VAQ_GEOMETRY_SIMD_CLASSIFY_KERNELS_H_
