// google-benchmark micro-benchmarks of the Delaunay/Voronoi substrate:
// construction throughput, neighbour iteration and diagram extraction,
// plus the stages of a base build (Hilbert ordering, the presorted
// Delaunay path, the whole `PointDatabase`) and a compaction.

#include <benchmark/benchmark.h>

#include <optional>

#include "core/dynamic_point_database.h"
#include "core/point_database.h"
#include "delaunay/hilbert.h"
#include "delaunay/triangulation.h"
#include "delaunay/voronoi.h"
#include "workload/point_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit{{0.0, 0.0}, {1.0, 1.0}};

std::vector<Point> BenchPoints(std::size_t n, PointDistribution d) {
  Rng rng(2024);
  return GeneratePoints(n, kUnit, d, &rng);
}

void BM_DelaunayBuildUniform(benchmark::State& state) {
  const auto points = BenchPoints(static_cast<std::size_t>(state.range(0)),
                                  PointDistribution::kUniform);
  for (auto _ : state) {
    DelaunayTriangulation dt(points);
    benchmark::DoNotOptimize(dt.num_triangles());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_DelaunayBuildUniform)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_DelaunayBuildClustered(benchmark::State& state) {
  const auto points = BenchPoints(100000, PointDistribution::kClustered);
  for (auto _ : state) {
    DelaunayTriangulation dt(points);
    benchmark::DoNotOptimize(dt.num_triangles());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_DelaunayBuildClustered)->Unit(benchmark::kMillisecond);

// An exact lattice: every insertion meets collinear and cocircular
// neighbours, so the predicates take their exact fallback throughout.
void BM_DelaunayBuildGrid(benchmark::State& state) {
  Rng rng(2024);
  const auto points = GenerateGridPoints(
      static_cast<std::size_t>(state.range(0)), kUnit, /*jitter=*/0.0, &rng);
  for (auto _ : state) {
    DelaunayTriangulation dt(points);
    benchmark::DoNotOptimize(dt.num_triangles());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_DelaunayBuildGrid)->Arg(6400)->Unit(benchmark::kMillisecond);

// The path every `PointDatabase` build and compaction takes: points
// already in Hilbert order, inserted as-is.
void BM_DelaunayBuildHilbertSorted(benchmark::State& state) {
  const auto raw = BenchPoints(static_cast<std::size_t>(state.range(0)),
                               PointDistribution::kUniform);
  std::vector<Point> points;
  points.reserve(raw.size());
  for (const std::uint32_t i : HilbertOrder(raw)) points.push_back(raw[i]);
  for (auto _ : state) {
    DelaunayTriangulation dt(points, /*hilbert_sorted=*/true);
    benchmark::DoNotOptimize(dt.num_triangles());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_DelaunayBuildHilbertSorted)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_HilbertOrder(benchmark::State& state) {
  const auto points = BenchPoints(static_cast<std::size_t>(state.range(0)),
                                  PointDistribution::kUniform);
  for (auto _ : state) {
    const std::vector<std::uint32_t> order = HilbertOrder(points);
    benchmark::DoNotOptimize(order.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_HilbertOrder)->Arg(100000)->Unit(benchmark::kMillisecond);

// Distinctness check, Hilbert relabelling, R-tree and Delaunay together.
void BM_PointDatabaseBuild(benchmark::State& state) {
  const auto points = BenchPoints(static_cast<std::size_t>(state.range(0)),
                                  PointDistribution::kUniform);
  for (auto _ : state) {
    PointDatabase db(points);
    benchmark::DoNotOptimize(db.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_PointDatabaseBuild)->Arg(100000)->Unit(benchmark::kMillisecond);

// One `Compact()` of a 1e5-point base after 300 inserts and 300 erases;
// the database set-up, the mutations and the teardown are untimed.
void BM_DynamicCompact(benchmark::State& state) {
  constexpr std::size_t kBase = 100000;
  constexpr int kPairs = 300;
  const auto points = BenchPoints(kBase, PointDistribution::kUniform);
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  Rng rng(7);
  std::optional<DynamicPointDatabase> db;
  for (auto _ : state) {
    state.PauseTiming();
    db.reset();
    db.emplace(points, options);
    for (int i = 0; i < kPairs; ++i) {
      db->Insert({rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)});
      db->Erase(static_cast<PointId>(i * 331));
    }
    state.ResumeTiming();
    db->Compact();
    benchmark::DoNotOptimize(db->Size());
  }
}
BENCHMARK(BM_DynamicCompact)->Unit(benchmark::kMillisecond);

void BM_NeighborIteration(benchmark::State& state) {
  const auto points = BenchPoints(100000, PointDistribution::kUniform);
  DelaunayTriangulation dt(points);
  PointId v = 0;
  for (auto _ : state) {
    std::size_t degree_sum = 0;
    for (const PointId u : dt.NeighborsOf(v)) degree_sum += u;
    benchmark::DoNotOptimize(degree_sum);
    v = (v + 1) % static_cast<PointId>(points.size());
  }
}
BENCHMARK(BM_NeighborIteration);

void BM_VoronoiExtraction(benchmark::State& state) {
  const auto points = BenchPoints(static_cast<std::size_t>(state.range(0)),
                                  PointDistribution::kUniform);
  DelaunayTriangulation dt(points);
  for (auto _ : state) {
    VoronoiDiagram vd(dt, kUnit);
    benchmark::DoNotOptimize(vd.TotalArea());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_VoronoiExtraction)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vaq

BENCHMARK_MAIN();
