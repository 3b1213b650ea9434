// Bit-exactness of the batch classification kernels (src/geometry/simd/):
// on BOTH dispatch arms and for EVERY specialised kind, PolygonKernel::
// ContainsBatch must equal the naive Polygon::Contains byte for byte, and
// the raw grid classification must be bit-identical across arms — on
// adversarial inputs: stars, combs, collinear/degenerate vertices, points
// exactly on edges and vertices, ±0.0 and denormal coordinates, and every
// tail length (the n % block remainder runs the same masked kernel entry
// as full blocks, so short lengths are first-class test cases).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numbers>
#include <utility>
#include <vector>

#include "geometry/polygon.h"
#include "geometry/prepared_area.h"
#include "geometry/simd/polygon_kernel.h"
#include "geometry/simd/simd_dispatch.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit{{0.0, 0.0}, {1.0, 1.0}};

/// Probe points stressing every lane outcome: random points in and around
/// the MBR (inside cells, outside cells, out-of-MBR rejects), every vertex
/// and edge midpoint/quarter-point (exact on-edge and one-ulp-off ties for
/// the certified filter), and grid cell-corner lattice points (index
/// rounding ties).
std::vector<Point> ProbePoints(const Polygon& poly, const PreparedArea& prep,
                               Rng* rng, int random_count) {
  std::vector<Point> probes;
  const Box& b = poly.Bounds();
  const double w = b.Width(), h = b.Height();
  for (int i = 0; i < random_count; ++i) {
    probes.push_back({b.min.x + rng->Uniform(-0.1, 1.1) * w,
                      b.min.y + rng->Uniform(-0.1, 1.1) * h});
  }
  for (std::size_t i = 0; i < poly.size(); ++i) {
    const Point& a = poly.vertex(i);
    const Point& c = poly.vertex((i + 1) % poly.size());
    probes.push_back(a);
    probes.push_back(Midpoint(a, c));
    probes.push_back(Midpoint(a, Midpoint(a, c)));
  }
  const int side = prep.grid_side();
  for (int k = 0; k < 8 && side > 0; ++k) {
    const int cx = rng->UniformInt(0, side);
    const int cy = rng->UniformInt(0, side);
    probes.push_back({b.min.x + cx * (w / side), b.min.y + cy * (h / side)});
  }
  return probes;
}

/// Runs `kernel.ContainsBatch` over the probes at several lengths —
/// including sub-lane tails, one-full-vector, and around the internal 256
/// block — and checks every verdict against the naive polygon test.
void ExpectBatchMatchesNaive(const Polygon& poly, const PolygonKernel& kernel,
                             const std::vector<Point>& probes,
                             const char* label) {
  std::vector<double> xs, ys;
  for (const Point& p : probes) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  std::vector<bool> naive;
  for (const Point& p : probes) naive.push_back(poly.Contains(p));

  std::vector<std::size_t> lengths = {probes.size()};
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{7}, std::size_t{8}, std::size_t{9},
        std::size_t{255}, std::size_t{256}, std::size_t{257}}) {
    if (n <= probes.size()) lengths.push_back(n);
  }
  // The kernel must not touch flags past n: a sentinel slot beyond every
  // tested length starts poisoned and is re-checked after each call. The
  // poison value is `!naive[n]` so a one-past-the-end write of the correct
  // verdict for slot n is also caught.
  std::unique_ptr<bool[]> flags(new bool[probes.size() + 1]);
  for (const std::size_t n : lengths) {
    const bool poison = n < naive.size() ? !naive[n] : true;
    flags[n] = poison;
    kernel.ContainsBatch(xs.data(), ys.data(), n, flags.get());
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(flags[j], naive[j])
          << label << " kind=" << PolygonKernel::KindName(kernel.kind())
          << " arm=" << simd::ArmName(kernel.arm()) << " n=" << n
          << " disagreement at " << probes[j];
    }
    ASSERT_EQ(flags[n], poison) << label << " wrote past n=" << n;
  }
}

/// Raw grid classification: both arms bit-identical over the probes.
void ExpectClassifyArmsIdentical(const PreparedArea& prep,
                                 const std::vector<Point>& probes,
                                 const char* label) {
  if (!simd::Avx2Available()) return;
  std::vector<double> xs, ys;
  for (const Point& p : probes) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  std::vector<unsigned char> scalar_cls(probes.size(), 255);
  std::vector<unsigned char> avx2_cls(probes.size(), 254);
  ClassifyCellsOnArm(prep, simd::Arm::kScalar, xs.data(), ys.data(),
                     probes.size(), scalar_cls.data());
  ClassifyCellsOnArm(prep, simd::Arm::kAvx2, xs.data(), ys.data(),
                     probes.size(), avx2_cls.data());
  ASSERT_EQ(0, std::memcmp(scalar_cls.data(), avx2_cls.data(), probes.size()))
      << label << " ClassifyPoints arms diverge";
}

/// The full cross-check for one polygon: kernels on both arms vs the naive
/// oracle, plus the raw-classification arm agreement, plus a light
/// boundary-segment agreement pass (prepared vs naive) over probe pairs.
void ExpectAllKernelsExact(const Polygon& poly, Rng* rng, int random_count,
                           const char* label,
                           PolygonKernel::Kind expected_avx2_kind =
                               PolygonKernel::Kind::kNone) {
  const PreparedArea prep(poly);
  const std::vector<Point> probes = ProbePoints(poly, prep, rng, random_count);

  PolygonKernel kernel;
  kernel.Prepare(prep, simd::Arm::kScalar);
  ASSERT_EQ(kernel.kind(), PolygonKernel::Kind::kGridResidual);
  ExpectBatchMatchesNaive(poly, kernel, probes, label);

  if (simd::Avx2Available()) {
    kernel.Prepare(prep, simd::Arm::kAvx2);
    if (expected_avx2_kind != PolygonKernel::Kind::kNone) {
      ASSERT_EQ(kernel.kind(), expected_avx2_kind) << label;
    }
    ExpectBatchMatchesNaive(poly, kernel, probes, label);
  }
  ExpectClassifyArmsIdentical(prep, probes, label);

  for (std::size_t i = 0; i + 1 < probes.size(); i += 8) {
    const Segment s{probes[i], probes[i + 1]};
    ASSERT_EQ(prep.BoundaryIntersects(s), poly.BoundaryIntersects(s))
        << label << " BoundaryIntersects disagreement at " << s;
  }
}

TEST(SimdClassifyPropertyTest, RandomStarPolygons) {
  Rng rng(20260807);
  PolygonSpec spec;
  for (int rep = 0; rep < 300; ++rep) {
    spec.vertices = 3 + rng.UniformInt(0, 38);
    spec.query_size_fraction = rng.Uniform(0.005, 0.5);
    const Polygon poly = GenerateQueryPolygon(spec, kUnit, &rng);
    Rng probe_rng(1000 + rep);
    ExpectAllKernelsExact(poly, &probe_rng, 48, "star");
  }
}

TEST(SimdClassifyPropertyTest, ConvexRegularNGonsBothWindings) {
  // Convex rings across the whole accepted size range, both CCW and CW
  // (the CW edge-swap path), selected onto the half-plane kernel.
  Rng rng(42);
  for (int m = 3; m <= 64; m += (m < 12 ? 1 : 7)) {
    const Polygon ccw = Polygon::RegularNGon({0.5, 0.5}, 0.37, m);
    ExpectAllKernelsExact(ccw, &rng, 64, "ngon-ccw",
                          PolygonKernel::Kind::kConvexHalfPlane);
    const Polygon cw = ccw.Reversed();
    ExpectAllKernelsExact(cw, &rng, 64, "ngon-cw",
                          PolygonKernel::Kind::kConvexHalfPlane);
  }
}

TEST(SimdClassifyPropertyTest, SelfIntersectingStarRingsBothWindings) {
  // Regular star rings {n/q} turn the same way at every vertex but wind q
  // times, so they must not take the convex half-plane kernel (which would
  // return only the inner core). Containment is even-odd, as in
  // `Polygon::Contains`.
  constexpr double kPi = std::numbers::pi;
  Rng rng(5272);
  for (const auto [n, q] :
       {std::pair{5, 2}, std::pair{7, 2}, std::pair{7, 3}}) {
    std::vector<Point> ring;
    for (int i = 0; i < n; ++i) {
      const double angle = kPi / 2 + 2 * kPi * i * q / n;
      ring.push_back(
          {0.5 + 0.4 * std::cos(angle), 0.5 + 0.4 * std::sin(angle)});
    }
    const Polygon star(ring);
    ExpectAllKernelsExact(star, &rng, 400, "star-ccw");
    ExpectAllKernelsExact(star.Reversed(), &rng, 400, "star-cw");
  }
}

TEST(SimdClassifyPropertyTest, AdversarialCombs) {
  // Thin-pronged combs: heavily concave, collinear axis-aligned edges,
  // exactly-representable on-edge probes. Large combs take the generic
  // grid-residual path on both arms.
  Rng rng(777);
  for (int teeth = 2; teeth <= 24; teeth += 4) {
    const Polygon poly =
        GenerateCombPolygon(Box{{0.125, 0.25}, {0.875, 0.75}}, teeth);
    ExpectAllKernelsExact(poly, &rng, 300, "comb",
                          PolygonKernel::Kind::kGridResidual);
  }
}

TEST(SimdClassifyPropertyTest, SmallConcavePolygons) {
  // Concave quads ("darts") and hexagons: small-m non-convex rings that
  // select the unrolled crossing-parity kernel on the vector arm.
  Rng rng(99);
  const Polygon dart({{0.1, 0.1}, {0.9, 0.5}, {0.1, 0.9}, {0.35, 0.5}});
  ExpectAllKernelsExact(dart, &rng, 200, "dart",
                        PolygonKernel::Kind::kSmallMEdge);
  const Polygon hex({{0.0, 0.0},
                     {0.5, 0.25},
                     {1.0, 0.0},
                     {1.0, 1.0},
                     {0.5, 0.4},
                     {0.0, 1.0}});
  ExpectAllKernelsExact(hex, &rng, 200, "concave-hex",
                        PolygonKernel::Kind::kSmallMEdge);
}

TEST(SimdClassifyPropertyTest, CollinearVerticesStayConvex) {
  // A rectangle with redundant collinear vertices on its edges: consecutive
  // triples include zero orientations, which must not defeat the convexity
  // detection, and the duplicate supporting lines are on-edge tie cases.
  Rng rng(31337);
  const Polygon poly({{0.0, 0.0},
                      {0.25, 0.0},
                      {0.5, 0.0},
                      {1.0, 0.0},
                      {1.0, 0.5},
                      {1.0, 1.0},
                      {0.5, 1.0},
                      {0.0, 1.0},
                      {0.0, 0.5}});
  ExpectAllKernelsExact(poly, &rng, 200, "collinear-rect",
                        PolygonKernel::Kind::kConvexHalfPlane);
  // On-edge lattice points: exactly representable, exactly on the ring.
  const PreparedArea prep(poly);
  PolygonKernel kernel;
  std::vector<Point> lattice;
  for (int i = 0; i <= 16; ++i) {
    lattice.push_back({i / 16.0, 0.0});
    lattice.push_back({i / 16.0, 1.0});
    lattice.push_back({0.0, i / 16.0});
    lattice.push_back({1.0, i / 16.0});
  }
  for (const simd::Arm arm : {simd::Arm::kScalar, simd::Arm::kAvx2}) {
    if (arm == simd::Arm::kAvx2 && !simd::Avx2Available()) continue;
    kernel.Prepare(prep, arm);
    ExpectBatchMatchesNaive(poly, kernel, lattice, "lattice");
  }
}

TEST(SimdClassifyPropertyTest, SignedZeroAndDenormalCoordinates) {
  // A polygon spanning the origin probed at ±0.0 and denormal coordinates:
  // the sign of zero must not flip containment (-0.0 == 0.0 in every
  // comparison) and denormals must classify identically on both arms (no
  // FTZ/DAZ divergence between the vector and scalar units).
  const Polygon diamond(
      {{-1.0, 0.0}, {0.0, -1.0}, {1.0, 0.0}, {0.0, 1.0}});
  const double denorm = 4.9406564584124654e-324;  // min subnormal
  const double tiny = 1.0e-310;                   // subnormal
  std::vector<Point> probes = {
      {0.0, 0.0},       {-0.0, 0.0},     {0.0, -0.0},    {-0.0, -0.0},
      {denorm, 0.0},    {-denorm, 0.0},  {0.0, denorm},  {0.0, -denorm},
      {denorm, denorm}, {tiny, -tiny},   {-tiny, tiny},  {tiny, tiny},
      {1.0, 0.0},       {-1.0, -0.0},    {0.5, 0.5},     {0.5 + tiny, 0.5},
      {-0.0, 1.0},      {denorm, -1.0},  {2.0, 0.0},     {-0.0, -1.0},
  };
  const PreparedArea prep(diamond);
  PolygonKernel kernel;
  for (const simd::Arm arm : {simd::Arm::kScalar, simd::Arm::kAvx2}) {
    if (arm == simd::Arm::kAvx2 && !simd::Avx2Available()) continue;
    kernel.Prepare(prep, arm);
    ExpectBatchMatchesNaive(diamond, kernel, probes, "signed-zero");
  }
  ExpectClassifyArmsIdentical(prep, probes, "signed-zero");

  // Same probes against a degenerate-thin convex sliver whose determinants
  // underflow: certified-or-fallback must still match the exact oracle.
  const Polygon sliver({{-1.0, -tiny}, {1.0, -tiny}, {1.0, tiny}, {-1.0, tiny}});
  const PreparedArea sprep(sliver);
  for (const simd::Arm arm : {simd::Arm::kScalar, simd::Arm::kAvx2}) {
    if (arm == simd::Arm::kAvx2 && !simd::Avx2Available()) continue;
    kernel.Prepare(sprep, arm);
    ExpectBatchMatchesNaive(sliver, kernel, probes, "sliver");
  }
}

TEST(SimdClassifyPropertyTest, BlockBoundaryLengths) {
  // A probe set larger than the internal 256 block, checked at lengths
  // around every boundary: sub-lane, lane, 8-lane, and block edges.
  Rng rng(2468);
  PolygonSpec spec;
  spec.vertices = 10;
  spec.query_size_fraction = 0.2;
  const Polygon poly = GenerateQueryPolygon(spec, kUnit, &rng);
  const PreparedArea prep(poly);
  std::vector<Point> probes = ProbePoints(poly, prep, &rng, 600);
  probes.resize(600);
  PolygonKernel kernel;
  for (const simd::Arm arm : {simd::Arm::kScalar, simd::Arm::kAvx2}) {
    if (arm == simd::Arm::kAvx2 && !simd::Avx2Available()) continue;
    kernel.Prepare(prep, arm);
    ExpectBatchMatchesNaive(poly, kernel, probes, "block-boundary");
  }
}

}  // namespace
}  // namespace vaq
