// Build oracle for `PreparedArea::Prepare`: a reference copy of the
// two-pass rasteriser, the BFS flood fill and the four-term summed-area
// tables it replaced, run side by side with the one-pass build. Cell
// classes, the row CSR and every `ClassifyBox` / `BoundaryIntersects`
// answer must be equal at the grid sides the planned path and the default
// pick use, on shapes that stress the fill: star decagons and 40-gons,
// combs, thin spikes, rectilinear shapes whose edges lie exactly on cell
// lines, and 1e-6-wide polygons at coordinates ~1e6.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "geometry/polygon.h"
#include "geometry/predicates.h"
#include "geometry/prepared_area.h"
#include "geometry/segment.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit{{0.0, 0.0}, {1.0, 1.0}};
constexpr unsigned char kOut = PreparedArea::kPointOutside;
constexpr unsigned char kIn = PreparedArea::kPointInside;
constexpr unsigned char kBnd = PreparedArea::kPointBoundary;
constexpr unsigned char kUnknown = 3;

/// The reference build: the same grid header as `Prepare`, then two
/// rasterisation passes, a BFS flood from the first unclassified cell of
/// each component and SATs from the four-term recurrence.
struct RefGrid {
  const Polygon* poly = nullptr;
  Box bounds;
  int nx = 0, ny = 0;
  double cell_w = 1.0, cell_h = 1.0, inv_cw = 1.0, inv_ch = 1.0;
  double pad_x = 0.0, pad_y = 0.0;
  std::vector<unsigned char> cls;
  std::vector<std::uint32_t> cell_off, cell_edges, row_off, row_edges;
  std::vector<std::uint32_t> inside_sat, boundary_sat;

  int ColOf(double x) const {
    const int c = static_cast<int>((x - bounds.min.x) * inv_cw);
    return c < 0 ? 0 : (c >= nx ? nx - 1 : c);
  }
  int RowOf(double y) const {
    const int r = static_cast<int>((y - bounds.min.y) * inv_ch);
    return r < 0 ? 0 : (r >= ny ? ny - 1 : r);
  }

  template <typename Fn>
  void ForEachEdgeCell(std::size_t i, Fn&& fn) const {
    const Point& a = poly->vertex(i);
    const Point& b = poly->vertex((i + 1) % poly->size());
    const int cx0 = ColOf(std::min(a.x, b.x) - pad_x);
    const int cx1 = ColOf(std::max(a.x, b.x) + pad_x);
    const double dx = b.x - a.x;
    const double dy = b.y - a.y;
    for (int cx = cx0; cx <= cx1; ++cx) {
      double ylo, yhi;
      if (dx == 0.0) {
        ylo = std::min(a.y, b.y);
        yhi = std::max(a.y, b.y);
      } else {
        const double slab_x0 = bounds.min.x + cx * cell_w - pad_x;
        const double slab_x1 = bounds.min.x + (cx + 1) * cell_w + pad_x;
        const double t0 = std::clamp((slab_x0 - a.x) / dx, 0.0, 1.0);
        const double t1 = std::clamp((slab_x1 - a.x) / dx, 0.0, 1.0);
        const double y0 = a.y + t0 * dy;
        const double y1 = a.y + t1 * dy;
        ylo = std::min(y0, y1);
        yhi = std::max(y0, y1);
      }
      const int cy0 = RowOf(ylo - pad_y);
      const int cy1 = RowOf(yhi + pad_y);
      for (int cy = cy0; cy <= cy1; ++cy) {
        fn(static_cast<std::size_t>(cy) * nx + cx);
      }
    }
  }

  bool ContainsViaRow(const Point& p) const {
    const int row = RowOf(p.y);
    bool inside = false;
    for (std::uint32_t k = row_off[row]; k < row_off[row + 1]; ++k) {
      const std::size_t i = row_edges[k];
      const Point& a = poly->vertex(i);
      const Point& b = poly->vertex((i + 1) % poly->size());
      if (poly->edge_bounds(i).Contains(p) && Orient2DSign(a, b, p) == 0) {
        return true;
      }
      if (a.y <= p.y) {
        if (b.y > p.y && Orient2DSign(a, b, p) > 0) inside = !inside;
      } else {
        if (b.y <= p.y && Orient2DSign(a, b, p) < 0) inside = !inside;
      }
    }
    return inside;
  }

  void Build(const Polygon& area, int side) {
    poly = &area;
    bounds = area.Bounds();
    const std::size_t m = area.size();
    nx = ny = std::clamp(side, 4, 512);
    cell_w = std::max(bounds.Width(), 1e-300) / nx;
    cell_h = std::max(bounds.Height(), 1e-300) / ny;
    inv_cw = 1.0 / cell_w;
    inv_ch = 1.0 / cell_h;
    pad_x = cell_w * 1e-6;
    pad_y = cell_h * 1e-6;
    const std::size_t cells = static_cast<std::size_t>(nx) * ny;
    cls.assign(cells, kUnknown);
    cell_off.assign(cells + 1, 0);
    for (std::size_t i = 0; i < m; ++i) {
      ForEachEdgeCell(i, [&](std::size_t c) {
        cls[c] = kBnd;
        ++cell_off[c + 1];
      });
    }
    for (std::size_t c = 0; c < cells; ++c) cell_off[c + 1] += cell_off[c];
    cell_edges.resize(cell_off[cells]);
    std::vector<std::uint32_t> cur(cell_off.begin(), cell_off.end() - 1);
    for (std::size_t i = 0; i < m; ++i) {
      ForEachEdgeCell(i, [&](std::size_t c) {
        cell_edges[cur[c]++] = static_cast<std::uint32_t>(i);
      });
    }
    row_off.assign(ny + 1, 0);
    for (std::size_t i = 0; i < m; ++i) {
      const Point& a = area.vertex(i);
      const Point& b = area.vertex((i + 1) % m);
      for (int r = RowOf(std::min(a.y, b.y)); r <= RowOf(std::max(a.y, b.y));
           ++r) {
        ++row_off[r + 1];
      }
    }
    for (int r = 0; r < ny; ++r) row_off[r + 1] += row_off[r];
    row_edges.resize(row_off[ny]);
    cur.assign(row_off.begin(), row_off.end() - 1);
    for (std::size_t i = 0; i < m; ++i) {
      const Point& a = area.vertex(i);
      const Point& b = area.vertex((i + 1) % m);
      for (int r = RowOf(std::min(a.y, b.y)); r <= RowOf(std::max(a.y, b.y));
           ++r) {
        row_edges[cur[r]++] = static_cast<std::uint32_t>(i);
      }
    }
    std::vector<std::int32_t> queue;
    for (std::size_t start = 0; start < cells; ++start) {
      if (cls[start] != kUnknown) continue;
      const int scx = static_cast<int>(start % nx);
      const int scy = static_cast<int>(start / nx);
      const Point rep{bounds.min.x + (scx + 0.5) * cell_w,
                      bounds.min.y + (scy + 0.5) * cell_h};
      const unsigned char c = ContainsViaRow(rep) ? kIn : kOut;
      cls[start] = c;
      queue.assign(1, static_cast<std::int32_t>(start));
      while (!queue.empty()) {
        const std::int32_t q = queue.back();
        queue.pop_back();
        const int qx = q % nx;
        const int qy = q / nx;
        const std::int32_t nb[4] = {q - 1, q + 1, q - nx, q + nx};
        const bool ok[4] = {qx > 0, qx + 1 < nx, qy > 0, qy + 1 < ny};
        for (int k = 0; k < 4; ++k) {
          if (ok[k] && cls[nb[k]] == kUnknown) {
            cls[nb[k]] = c;
            queue.push_back(nb[k]);
          }
        }
      }
    }
    const std::size_t w = nx + 1;
    inside_sat.assign(w * (ny + 1), 0);
    boundary_sat.assign(w * (ny + 1), 0);
    for (int cy = 0; cy < ny; ++cy) {
      for (int cx = 0; cx < nx; ++cx) {
        const unsigned char c = cls[static_cast<std::size_t>(cy) * nx + cx];
        const std::size_t at = static_cast<std::size_t>(cy + 1) * w + cx + 1;
        inside_sat[at] = (c == kIn ? 1 : 0) + inside_sat[at - 1] +
                         inside_sat[at - w] - inside_sat[at - w - 1];
        boundary_sat[at] = (c == kBnd ? 1 : 0) + boundary_sat[at - 1] +
                           boundary_sat[at - w] - boundary_sat[at - w - 1];
      }
    }
  }

  std::uint32_t SatSum(const std::vector<std::uint32_t>& sat, int cx0,
                       int cy0, int cx1, int cy1) const {
    const int w = nx + 1;
    return sat[static_cast<std::size_t>(cy1 + 1) * w + cx1 + 1] -
           sat[static_cast<std::size_t>(cy0) * w + cx1 + 1] -
           sat[static_cast<std::size_t>(cy1 + 1) * w + cx0] +
           sat[static_cast<std::size_t>(cy0) * w + cx0];
  }

  PreparedArea::Region ClassifyBox(const Box& box) const {
    using Region = PreparedArea::Region;
    if (box.Empty() || !bounds.Intersects(box)) return Region::kOutside;
    const int cx0 = ColOf(box.min.x - pad_x);
    const int cx1 = ColOf(box.max.x + pad_x);
    const int cy0 = RowOf(box.min.y - pad_y);
    const int cy1 = RowOf(box.max.y + pad_y);
    if (SatSum(boundary_sat, cx0, cy0, cx1, cy1) > 0) {
      return Region::kStraddling;
    }
    const std::uint32_t inside = SatSum(inside_sat, cx0, cy0, cx1, cy1);
    const auto covered =
        static_cast<std::uint32_t>((cx1 - cx0 + 1) * (cy1 - cy0 + 1));
    if (inside == 0) return Region::kOutside;
    if (inside == covered) {
      return bounds.Contains(box) ? Region::kInside : Region::kStraddling;
    }
    return Region::kStraddling;
  }

  bool BoundaryIntersects(const Segment& s) const {
    const Box sb = s.Bounds();
    if (!bounds.Intersects(sb)) return false;
    const int cx0 = ColOf(sb.min.x - pad_x);
    const int cx1 = ColOf(sb.max.x + pad_x);
    const int cy0 = RowOf(sb.min.y - pad_y);
    const int cy1 = RowOf(sb.max.y + pad_y);
    if ((cx1 - cx0 + 1) * (cy1 - cy0 + 1) > 256) {
      return poly->BoundaryIntersects(s);
    }
    if (SatSum(boundary_sat, cx0, cy0, cx1, cy1) == 0) return false;
    for (int cy = cy0; cy <= cy1; ++cy) {
      for (int cx = cx0; cx <= cx1; ++cx) {
        const std::size_t c = static_cast<std::size_t>(cy) * nx + cx;
        if (cls[c] != kBnd) continue;
        for (std::uint32_t k = cell_off[c]; k < cell_off[c + 1]; ++k) {
          const std::size_t i = cell_edges[k];
          if (!poly->edge_bounds(i).Intersects(sb)) continue;
          if (SegmentsIntersect(poly->edge(i), s)) return true;
        }
      }
    }
    return false;
  }
};

constexpr int kSides[] = {4, 8, 15, 32, 192};
/// Random boxes and short segments per (shape family, side).
constexpr int kProbesPerFamily = 10000;

/// Builds both grids over every polygon of `family` at every side and
/// compares arrays and probe answers.
void ExpectBuildsAgree(const std::vector<Polygon>& family,
                       const std::string& label, std::uint64_t seed) {
  Rng rng(seed);
  PreparedArea prep;
  RefGrid ref;
  for (const int side : kSides) {
    const int per_poly =
        kProbesPerFamily / static_cast<int>(family.size()) + 1;
    for (std::size_t f = 0; f < family.size(); ++f) {
      const Polygon& poly = family[f];
      const std::string where = label + " #" + std::to_string(f) +
                                " side " + std::to_string(side);
      prep.Prepare(poly, side);
      ref.Build(poly, side);
      ASSERT_EQ(prep.grid_side(), ref.nx) << where;
      const std::size_t cells = static_cast<std::size_t>(ref.nx) * ref.ny;
      ASSERT_TRUE(std::equal(ref.cls.begin(), ref.cls.end(),
                             prep.cell_class_data()))
          << where << ": cell classes differ";
      ASSERT_EQ(prep.boundary_cell_count(),
                static_cast<std::size_t>(
                    std::count(ref.cls.begin(), ref.cls.end(), kBnd)))
          << where;
      ASSERT_EQ(prep.inside_cell_count(),
                static_cast<std::size_t>(
                    std::count(ref.cls.begin(), ref.cls.end(), kIn)))
          << where;
      ASSERT_EQ(cells, ref.cls.size());
      ASSERT_TRUE(std::equal(ref.row_off.begin(), ref.row_off.end(),
                             prep.row_edge_offsets_data()))
          << where << ": row offsets differ";
      ASSERT_EQ(prep.row_edges_size(), ref.row_edges.size()) << where;
      ASSERT_TRUE(std::equal(ref.row_edges.begin(), ref.row_edges.end(),
                             prep.row_edges_data()))
          << where << ": row edges differ";

      const Box& b = poly.Bounds();
      const double w = b.Width(), h = b.Height();
      for (int k = 0; k < per_poly; ++k) {
        const Point lo{b.min.x + rng.Uniform(-0.2, 1.1) * w,
                       b.min.y + rng.Uniform(-0.2, 1.1) * h};
        const Box box{lo, lo + Point{rng.Uniform(0.0, 0.4) * w,
                                     rng.Uniform(0.0, 0.4) * h}};
        ASSERT_EQ(prep.ClassifyBox(box), ref.ClassifyBox(box))
            << where << " box " << box;
        const Segment s{lo, lo + Point{rng.Uniform(-0.05, 0.05) * w,
                                       rng.Uniform(-0.05, 0.05) * h}};
        ASSERT_EQ(prep.BoundaryIntersects(s), ref.BoundaryIntersects(s))
            << where << " segment " << s;
      }
    }
  }
}

/// `poly` mapped by x -> ox + sx * x, y -> oy + sy * y.
Polygon Affine(const Polygon& poly, double ox, double oy, double sx,
               double sy) {
  std::vector<Point> v;
  for (std::size_t i = 0; i < poly.size(); ++i) {
    v.push_back({ox + sx * poly.vertex(i).x, oy + sy * poly.vertex(i).y});
  }
  return Polygon(std::move(v));
}

std::vector<Polygon> StarFamily(int vertices, int count, std::uint64_t seed) {
  Rng rng(seed);
  PolygonSpec spec;
  spec.vertices = vertices;
  std::vector<Polygon> out;
  for (int i = 0; i < count; ++i) {
    spec.query_size_fraction = rng.Uniform(0.005, 0.3);
    out.push_back(GenerateQueryPolygon(spec, kUnit, &rng));
  }
  return out;
}

/// Stars whose tips are thin spikes: `spikes` needles of half-width
/// `spike_angle` radians around a small core.
Polygon ThinSpikes(int spikes, double spike_angle, double core) {
  std::vector<Point> v;
  const double kTwoPi = 6.283185307179586;
  for (int k = 0; k < spikes; ++k) {
    const double t = kTwoPi * k / spikes;
    const double r = 0.5 - 0.1 * (k % 3);
    v.push_back({0.5 + core * std::cos(t - 0.5 * kTwoPi / spikes),
                 0.5 + core * std::sin(t - 0.5 * kTwoPi / spikes)});
    v.push_back({0.5 + r * std::cos(t - spike_angle),
                 0.5 + r * std::sin(t - spike_angle)});
    v.push_back({0.5 + r * std::cos(t + spike_angle),
                 0.5 + r * std::sin(t + spike_angle)});
  }
  return Polygon(std::move(v));
}

/// A rectilinear "histogram" over [0, side]^2 with integer vertices: the
/// grid of that side has unit cells, so every edge lies on a cell line.
Polygon Histogram(int side, Rng* rng) {
  std::vector<Point> v{{0.0, 0.0}, {static_cast<double>(side), 0.0}};
  std::vector<int> heights(side);
  for (int& h : heights) h = static_cast<int>(rng->UniformInt(1, side));
  heights[rng->UniformInt(0, side - 1)] = side;  // MBR = [0, side]^2.
  for (int c = side - 1; c >= 0; --c) {
    v.push_back({static_cast<double>(c + 1), static_cast<double>(heights[c])});
    v.push_back({static_cast<double>(c), static_cast<double>(heights[c])});
  }
  return Polygon(std::move(v));
}

TEST(PreparedAreaOracleTest, DecagonsMatchTheTwoPassBuild) {
  ExpectBuildsAgree(StarFamily(10, 40, 11), "decagon", 1);
}

TEST(PreparedAreaOracleTest, FortyGonsMatchTheTwoPassBuild) {
  ExpectBuildsAgree(StarFamily(40, 40, 12), "40-gon", 2);
}

TEST(PreparedAreaOracleTest, CombsAndSpikesMatchTheTwoPassBuild) {
  std::vector<Polygon> family;
  for (int teeth = 2; teeth <= 24; teeth += 2) {
    family.push_back(GenerateCombPolygon(Box{{0.125, 0.25}, {0.875, 0.75}},
                                         teeth));
  }
  for (int spikes : {3, 5, 8, 13, 21}) {
    for (double angle : {1e-2, 1e-4, 1e-7}) {
      family.push_back(ThinSpikes(spikes, angle, 0.02));
    }
  }
  ExpectBuildsAgree(family, "comb/spike", 3);
}

TEST(PreparedAreaOracleTest, EdgesOnCellLinesMatchTheTwoPassBuild) {
  Rng rng(13);
  std::vector<Polygon> family;
  for (const int side : kSides) {
    const auto s = static_cast<double>(side);
    family.push_back(Polygon({{0.0, 0.0}, {s, 0.0}, {s, s}, {0.0, s}}));
    for (int i = 0; i < 4; ++i) family.push_back(Histogram(side, &rng));
    // A plus sign: every reflex corner on an interior cell corner.
    const double a = std::floor(s / 4), b = s - std::floor(s / 4);
    family.push_back(Polygon({{a, 0}, {b, 0}, {b, a}, {s, a}, {s, b}, {b, b},
                              {b, s}, {a, s}, {a, b}, {0, b}, {0, a}, {a, a}}));
  }
  ExpectBuildsAgree(family, "rectilinear", 4);
}

TEST(PreparedAreaOracleTest, MicroPolygonsFarFromTheOriginMatch) {
  std::vector<Polygon> family;
  for (const Polygon& p : StarFamily(10, 10, 14)) {
    family.push_back(Affine(p, 1e6, 1e6, 1e-6, 1e-6));  // ~1e-6 extent.
    family.push_back(Affine(p, 1e6, -1e6, 1e-6, 1.0));  // 1e-6-wide sliver.
  }
  for (const Polygon& p : StarFamily(40, 5, 15)) {
    family.push_back(Affine(p, -1e6, 1e6, 1e-6, 1e-6));
  }
  family.push_back(Affine(GenerateCombPolygon(kUnit, 6), 1e6, 1e6, 1e-6, 1.0));
  ExpectBuildsAgree(family, "micro", 5);
}

}  // namespace
}  // namespace vaq
