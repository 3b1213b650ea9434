// Quickstart: build a point database, run an area query both ways, compare,
// then push a batch through the multi-threaded QueryEngine.
//
// This is the 60-second tour of the library: generate points, wrap them in
// a PointDatabase (implicit Hilbert R-tree + Delaunay) and print what each
// structure holds, define a concave query polygon, and run the traditional
// filter-refine query next to the paper's Voronoi-based incremental query —
// first directly, then as a parallel batch through the engine.

#include <cstdio>
#include <vector>

#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "engine/query_engine.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

int main() {
  using namespace vaq;

  // 1. A database of 50,000 uniform random points in the unit square.
  Rng rng(7);
  const Box domain{{0.0, 0.0}, {1.0, 1.0}};
  PointDatabase db(GenerateUniformPoints(50000, domain, &rng));
  std::printf("database: %zu points, R-tree height %d, %zu Delaunay triangles\n",
              db.size(), db.rtree().Height(), db.delaunay().num_triangles());
  const PointDatabase::StructureBytes bytes = db.MemoryFootprint();
  std::printf("resident KiB: coordinates %zu, CSR graph %zu, index %zu, "
              "id permutation %zu, page-cache frames %zu (total %zu)\n",
              bytes.coordinates / 1024, bytes.csr_graph / 1024,
              bytes.index / 1024, bytes.id_permutation / 1024,
              bytes.page_cache_frames / 1024, bytes.total() / 1024);

  // 2. A concave 10-vertex query area covering ~2%% of the domain's MBR.
  PolygonSpec spec;
  spec.query_size_fraction = 0.02;
  const Polygon area = GenerateQueryPolygon(spec, domain, &rng);
  std::printf("query area: %d vertices, area=%.4f, MBR area=%.4f (ratio %.2f)\n",
              static_cast<int>(area.size()), area.Area(),
              area.Bounds().Area(), area.Area() / area.Bounds().Area());

  // 3. Run both implementations.
  TraditionalAreaQuery traditional(&db);
  VoronoiAreaQuery voronoi(&db);
  QueryStats trad_stats, vaq_stats;
  const auto trad_result = traditional.Run(area, &trad_stats);
  const auto vaq_result = voronoi.Run(area, &vaq_stats);

  std::printf("\n%-14s %10s %12s %12s %10s\n", "method", "results",
              "candidates", "redundant", "time(ms)");
  std::printf("%-14s %10zu %12llu %12llu %10.3f\n", "traditional",
              trad_result.size(),
              static_cast<unsigned long long>(trad_stats.candidates),
              static_cast<unsigned long long>(trad_stats.RedundantValidations()),
              trad_stats.elapsed_ms);
  std::printf("%-14s %10zu %12llu %12llu %10.3f\n", "voronoi",
              vaq_result.size(),
              static_cast<unsigned long long>(vaq_stats.candidates),
              static_cast<unsigned long long>(vaq_stats.RedundantValidations()),
              vaq_stats.elapsed_ms);

  std::printf("\nresults identical: %s\n",
              trad_result == vaq_result ? "yes" : "NO (bug!)");
  if (trad_result != vaq_result) return 1;

  // 4. The same comparison as a parallel batch: query objects are
  // stateless, so one engine serves both methods from a 4-thread pool.
  QueryEngine engine({.num_threads = 4});
  const int trad_id = engine.RegisterMethod(&traditional);
  const int vaq_id = engine.RegisterMethod(&voronoi);

  std::vector<Polygon> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back(GenerateQueryPolygon(spec, domain, &rng));
  }
  const auto trad_batch = engine.RunBatch(batch, trad_id);
  const auto vaq_batch = engine.RunBatch(batch, vaq_id);
  int batch_mismatches = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (trad_batch[i].ids != vaq_batch[i].ids) ++batch_mismatches;
  }

  const EngineStats es = engine.Stats();
  std::printf("\nengine: %d threads, %llu queries, %.0f q/s, "
              "latency p50/p95/p99 = %.3f/%.3f/%.3f ms\n",
              engine.num_threads(),
              static_cast<unsigned long long>(es.queries_completed),
              es.throughput_qps, es.latency_p50_ms, es.latency_p95_ms,
              es.latency_p99_ms);
  for (const MethodEngineStats& m : es.methods) {
    std::printf("  %-14s %6llu queries %12llu candidates %10llu loads\n",
                m.name.c_str(), static_cast<unsigned long long>(m.queries),
                static_cast<unsigned long long>(m.totals.candidates),
                static_cast<unsigned long long>(m.totals.geometry_loads));
  }
  std::printf("batch mismatches across %zu polygons: %d\n", batch.size(),
              batch_mismatches);
  return batch_mismatches == 0 ? 0 : 1;
}
