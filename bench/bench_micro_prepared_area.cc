// google-benchmark micro-benchmarks of the PreparedArea accelerator:
// prepared vs naive polygon tests across polygon complexity, the one-time
// preprocessing cost (at the default side and at the sides the planned
// path asks for), one batched refine through `PolygonKernel`, and the
// build-plus-validate crossover that decides when preparing a query
// polygon amortises (DESIGN.md §6).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "geometry/polygon.h"
#include "geometry/prepared_area.h"
#include "geometry/simd/polygon_kernel.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit{{0.0, 0.0}, {1.0, 1.0}};

Polygon BenchPolygon(int vertices) {
  Rng rng(7);
  PolygonSpec spec;
  spec.vertices = vertices;
  spec.query_size_fraction = 0.25;
  return GenerateQueryPolygon(spec, kUnit, &rng);
}

std::vector<Point> BenchPoints(std::size_t n) {
  Rng rng(42);
  std::vector<Point> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  return points;
}

void BM_NaiveContains(benchmark::State& state) {
  const Polygon poly = BenchPolygon(static_cast<int>(state.range(0)));
  const auto pts = BenchPoints(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(poly.Contains(pts[i++ & 1023]));
  }
}
BENCHMARK(BM_NaiveContains)->Arg(10)->Arg(40)->Arg(160)->Arg(640);

void BM_PreparedContains(benchmark::State& state) {
  const Polygon poly = BenchPolygon(static_cast<int>(state.range(0)));
  const PreparedArea prep(poly);
  const auto pts = BenchPoints(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prep.Contains(pts[i++ & 1023]));
  }
}
BENCHMARK(BM_PreparedContains)->Arg(10)->Arg(40)->Arg(160)->Arg(640);

void BM_PreparedBuild(benchmark::State& state) {
  const Polygon poly = BenchPolygon(static_cast<int>(state.range(0)));
  PreparedArea prep;
  for (auto _ : state) {
    prep.Prepare(poly);
    benchmark::DoNotOptimize(prep.boundary_cell_count());
  }
}
BENCHMARK(BM_PreparedBuild)->Arg(10)->Arg(40)->Arg(160)->Arg(640);

/// The build the planned path pays: a decagon at the grid side
/// `SuggestGridSide` picks for `range(0)` expected point tests.
void BM_PreparedBuildPlanned(benchmark::State& state) {
  const Polygon poly = BenchPolygon(10);
  const auto tests = static_cast<std::size_t>(state.range(0));
  const int side = PreparedArea::SuggestGridSide(poly.size(), tests);
  PreparedArea prep;
  for (auto _ : state) {
    prep.Prepare(poly, side);
    benchmark::DoNotOptimize(prep.boundary_cell_count());
  }
  state.counters["side"] = side;
}
BENCHMARK(BM_PreparedBuildPlanned)->Arg(100)->Arg(1000)->Arg(10000);

/// The refine half: one `ContainsBatch` over `range(0)` candidates inside
/// a decagon's MBR, on the dispatch arm, against the grid the planned path
/// builds for that many tests. `boundary_share` is the candidates' share
/// in boundary cells, the lanes that take the row-parity resolve.
void BM_ContainsBatch(benchmark::State& state) {
  const Polygon poly = BenchPolygon(10);
  const auto n = static_cast<std::size_t>(state.range(0));
  PreparedArea prep;
  prep.Prepare(poly, PreparedArea::SuggestGridSide(poly.size(), n));
  PolygonKernel kernel;
  kernel.Prepare(prep);
  Rng rng(42);
  const Box& b = poly.Bounds();
  std::vector<double> xs(n), ys(n);
  std::vector<unsigned char> cls(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = rng.Uniform(b.min.x, b.max.x);
    ys[i] = rng.Uniform(b.min.y, b.max.y);
  }
  prep.ClassifyPoints(xs.data(), ys.data(), n, cls.data());
  std::unique_ptr<bool[]> inside(new bool[n]);
  for (auto _ : state) {
    kernel.ContainsBatch(xs.data(), ys.data(), n, inside.get());
    benchmark::DoNotOptimize(inside.get());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["boundary_share"] =
      static_cast<double>(std::count(cls.begin(), cls.end(),
                                     PreparedArea::kPointBoundary)) /
      static_cast<double>(n);
}
BENCHMARK(BM_ContainsBatch)->Arg(1000);

void BM_NaiveBoundaryIntersects(benchmark::State& state) {
  const Polygon poly = BenchPolygon(static_cast<int>(state.range(0)));
  const auto pts = BenchPoints(2048);
  std::size_t i = 0;
  for (auto _ : state) {
    // Short segments, like the Delaunay edges the Voronoi flood tests.
    const Point& a = pts[i & 1023];
    const Segment s{a, {a.x + 0.01, a.y + 0.01}};
    benchmark::DoNotOptimize(poly.BoundaryIntersects(s));
    ++i;
  }
}
BENCHMARK(BM_NaiveBoundaryIntersects)->Arg(10)->Arg(160);

void BM_PreparedBoundaryIntersects(benchmark::State& state) {
  const Polygon poly = BenchPolygon(static_cast<int>(state.range(0)));
  const PreparedArea prep(poly);
  const auto pts = BenchPoints(2048);
  std::size_t i = 0;
  for (auto _ : state) {
    const Point& a = pts[i & 1023];
    const Segment s{a, {a.x + 0.01, a.y + 0.01}};
    benchmark::DoNotOptimize(prep.BoundaryIntersects(s));
    ++i;
  }
}
BENCHMARK(BM_PreparedBoundaryIntersects)->Arg(10)->Arg(160);

void BM_PreparedClassifyBox(benchmark::State& state) {
  const Polygon poly = BenchPolygon(40);
  const PreparedArea prep(poly);
  const auto pts = BenchPoints(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const Point& a = pts[i & 1023];
    const Box box{a, {a.x + 0.03, a.y + 0.03}};
    benchmark::DoNotOptimize(prep.ClassifyBox(box));
    ++i;
  }
}
BENCHMARK(BM_PreparedClassifyBox);

/// The whole-query crossover: validate `range(1)` candidates against an
/// `range(0)`-gon, naive scan vs build-the-grid-then-batch. Shows where the
/// one-time Prepare cost amortises (a few hundred candidates for the
/// paper's decagons; earlier for complex polygons).
void BM_ValidateNaive(benchmark::State& state) {
  const Polygon poly = BenchPolygon(static_cast<int>(state.range(0)));
  const auto pts = BenchPoints(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    std::size_t hits = 0;
    for (const Point& p : pts) hits += poly.Contains(p) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_ValidateNaive)
    ->Args({10, 100})
    ->Args({10, 1000})
    ->Args({10, 10000})
    ->Args({160, 1000});

void BM_ValidatePrepared(benchmark::State& state) {
  const Polygon poly = BenchPolygon(static_cast<int>(state.range(0)));
  const auto pts = BenchPoints(static_cast<std::size_t>(state.range(1)));
  PreparedArea prep;
  for (auto _ : state) {
    prep.Prepare(poly);  // Charged per batch, as a query would pay it.
    std::size_t hits = 0;
    for (const Point& p : pts) hits += prep.Contains(p) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_ValidatePrepared)
    ->Args({10, 100})
    ->Args({10, 1000})
    ->Args({10, 10000})
    ->Args({160, 1000});

}  // namespace
}  // namespace vaq

BENCHMARK_MAIN();
