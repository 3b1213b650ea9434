// Planner benchmark: proves `--method auto` earns its keep.
//
// Two parts, one committed baseline (BENCH_planner.json):
//
//  * **Grid cells** — {data size} x {query size} x {backend} where backend
//    is raw in-memory timing vs the paper's simulated disk (1us per
//    object fetch, busy-wait model). Each (data size, backend) pair gets
//    its own `DynamicPointDatabase`: auto runs through its planned path,
//    and the static methods are timed on its base
//    (`Snapshot::BaseQuery`). In memory the traditional
//    filter-refine method wins every cell; under IO the Voronoi method's
//    smaller candidate set wins every cell (the paper's crossover). The
//    planner sees only the backend configuration and the query polygon,
//    so these cells measure whether the cost model lands on the right
//    side of the crossover *without* being told; `--check` requires
//    every memory cell to plan traditional only and every sim_io cell
//    Voronoi only. Each cell reports
//    `auto_vs_best_static` (planned time / best static method's time;
//    gated <= a bound in CI — auto may pay planning overhead but must
//    never pick badly) and `auto_vs_worst_static` (must stay well below 1
//    on cells where the statics genuinely diverge). Every planned result
//    is compared id-for-id against the traditional run (mismatches gate
//    to 0).
//
//  * **Cache cell** — a `DynamicPointDatabase` queried with a fixed set
//    of polygons, each twice per round, across rounds separated by an
//    Insert / Erase / Compact. The cache holds base passes keyed on the
//    base generation, so the insert and erase rounds hit (each query
//    patches the cached base pass with its tombstones and delta) and
//    only the compaction round re-misses. Second-hit admission shapes
//    round 0: a first-seen polygon's first execution is declined (hash
//    recorded, ids dropped) and its second execution is stored, so
//    round 0 is 2 misses/polygon with no hits; rounds 1-2 are 2 hits;
//    round 3 is 1 miss (new base, admitted immediately — the hash is
//    known) + 1 hit per polygon. Counters are exact by construction —
//    3 x polygons misses, 5 x polygons hits — and gated exactly in CI;
//    every answer (cached or not) is compared against an uncached run of
//    the same planned path.
//
// Usage: bench_planner [--quick] [--json] [--check]
//   --quick: fewer repetitions, same cell grid (rows key-match the
//     committed BENCH_planner.json baseline).
//   --json: write BENCH_planner.json in the working directory.
//   --check: exit 1 on any mismatch, off-by-construction cache counter,
//     or grid cell whose auto `plan_method` is not the crossover's side
//     (the differential and crossover gates without the baseline file).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <vector>

#include "core/dynamic_point_database.h"
#include "planner/planned_area_query.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace {

using namespace vaq;

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};
constexpr std::uint64_t kSeed = 20260807;

struct GridRow {
  std::size_t data_size = 0;
  double query_size = 0.0;
  const char* backend = "memory";
  double fetch_ns = 0.0;
  double auto_ms = 0.0;
  double trad_ms = 0.0;
  double vor_ms = 0.0;
  std::uint64_t plan_method = 0;
  std::uint64_t plan_reason = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  int mismatches = 0;
  bool crossover = false;  // Filled after both backends of the cell ran.

  double BestStatic() const { return std::min(trad_ms, vor_ms); }
  double WorstStatic() const { return std::max(trad_ms, vor_ms); }
};

std::vector<Polygon> QueryStream(double query_size, int reps) {
  Rng rng(kSeed ^ 0x9E3779B97F4A7C15ULL);
  PolygonSpec spec;
  spec.query_size_fraction = query_size;
  std::vector<Polygon> areas;
  areas.reserve(reps);
  for (int rep = 0; rep < reps; ++rep) {
    areas.push_back(GenerateQueryPolygon(spec, kUnit, &rng));
  }
  return areas;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }

  const int reps = quick ? 12 : 40;
  const std::size_t data_sizes[] = {100000, 250000};
  const double query_sizes[] = {0.01, 0.08, 0.32};
  // Raw in-memory vs the paper's disk-resident regime. 1us per fetch is
  // the crossover study's smallest simulated latency — the hardest IO
  // cell for the planner to call (larger latencies only widen the gap).
  const double fetch_grid[] = {0.0, 1000.0};

  std::vector<GridRow> rows;
  int total_mismatches = 0;

  std::cout << "=== Planner grid: auto vs static methods, " << reps
            << " reps/cell ===\n";
  for (const std::size_t n : data_sizes) {
    Rng data_rng(kSeed);
    const std::vector<Point> points =
        GenerateUniformPoints(n, kUnit, &data_rng);

    for (const double fetch_ns : fetch_grid) {
      // A fresh database per cell: auto runs against a cold result cache.
      DynamicPointDatabase::Options options;
      options.simulated_fetch_ns = fetch_ns;
      const DynamicPointDatabase db(points, options);
      const auto snap = db.snapshot();
      const AreaQuery& traditional =
          snap->BaseQuery(DynamicMethod::kTraditional);
      const AreaQuery& voronoi = snap->BaseQuery(DynamicMethod::kVoronoi);
      const PlannedAreaQuery& planned = *db.PlannedQuery();

      for (const double query_size : query_sizes) {
        const std::vector<Polygon> areas = QueryStream(query_size, reps);
        GridRow row;
        row.data_size = n;
        row.query_size = query_size;
        row.backend = fetch_ns > 0.0 ? "sim_io" : "memory";
        row.fetch_ns = fetch_ns;

        QueryContext ctx;
        std::vector<std::vector<PointId>> truth;
        truth.reserve(areas.size());
        const auto run =
            [&](const AreaQuery& q, double* total_ms, bool planned_run) {
              double ms = 0.0;
              for (std::size_t i = 0; i < areas.size(); ++i) {
                std::vector<PointId> ids = q.Run(areas[i], ctx);
                ms += ctx.stats.elapsed_ms;
                if (planned_run) {
                  row.plan_method |= ctx.stats.plan_method;
                  row.plan_reason |= ctx.stats.plan_reason;
                  row.cache_hits += ctx.stats.result_cache_hits;
                  row.cache_misses += ctx.stats.result_cache_misses;
                  if (ids != truth[i]) ++row.mismatches;
                } else if (truth.size() <= i) {
                  // The base answers in its internal ids, the planned
                  // path in stable ids (input positions).
                  for (PointId& id : ids) id = snap->StableId(id);
                  std::sort(ids.begin(), ids.end());
                  truth.push_back(std::move(ids));
                }
              }
              *total_ms = ms;
            };
        run(traditional, &row.trad_ms, false);
        run(voronoi, &row.vor_ms, false);
        run(planned, &row.auto_ms, true);
        total_mismatches += row.mismatches;
        rows.push_back(row);

        std::cout << std::fixed << "n=" << n << " @" << std::setprecision(0)
                  << query_size * 100.0 << "% " << std::setw(6)
                  << row.backend << "  auto " << std::setprecision(3)
                  << row.auto_ms / reps << " ms/q  trad "
                  << row.trad_ms / reps << "  vor " << row.vor_ms / reps
                  << "  auto/best " << std::setprecision(2)
                  << row.auto_ms / row.BestStatic() << "  mismatches "
                  << row.mismatches << "\n";
      }
    }
  }

  // A cell is a crossover cell when the winning static method flips
  // between its memory and sim_io rows — the regime boundary the planner
  // exists for. On those rows auto must beat the *worst* static: a
  // static pick is wrong on one side of the flip by construction.
  for (GridRow& a : rows) {
    for (const GridRow& b : rows) {
      if (a.data_size == b.data_size && a.query_size == b.query_size &&
          std::strcmp(a.backend, b.backend) != 0) {
        a.crossover = (a.trad_ms < a.vor_ms) != (b.trad_ms < b.vor_ms);
      }
    }
  }

  // --- Cache cell: exact counters + differential under churn. ---------
  const int kCachePolygons = 8;
  Rng cache_data_rng(kSeed + 1);
  DynamicPointDatabase cache_db(
      GenerateUniformPoints(20000, kUnit, &cache_data_rng));
  const std::vector<Polygon> cache_areas = QueryStream(0.05, kCachePolygons);

  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  int cache_mismatches = 0;
  std::optional<PointId> churn_id;
  QueryContext cctx;
  PlanHints uncached;
  uncached.use_cache = false;
  // Rounds separated by each mutation kind. The cache holds base passes
  // keyed on the base generation: an insert or erase keeps the base, so
  // its round hits with the base pass patched per query — round 1's
  // insert lies inside polygon 0, so a stale patch would change that
  // answer and count as a mismatch. Only round 3's compaction builds a
  // new base and re-misses once per polygon. It inserts first:
  // compaction of an unchanged live set is a no-op that builds nothing.
  // Round 1's point: polygon 0's MBR center, else the first cell center
  // of a 16x16 lattice over that MBR that the polygon contains.
  const Polygon& first_area = cache_areas.front();
  const Box first_mbr = first_area.Bounds();
  Point inside_first = first_mbr.Center();
  for (int i = 0; i < 16 * 16 && !first_area.Contains(inside_first); ++i) {
    inside_first = {
        first_mbr.min.x + (first_mbr.max.x - first_mbr.min.x) *
                              (i % 16 + 0.5) / 16.0,
        first_mbr.min.y + (first_mbr.max.y - first_mbr.min.y) *
                              (i / 16 + 0.5) / 16.0};
  }
  for (int round = 0; round < 4; ++round) {
    if (round == 1) churn_id = cache_db.Insert(inside_first);
    if (round == 2 && churn_id.has_value()) cache_db.Erase(*churn_id);
    if (round == 3) {
      cache_db.Insert({2.5, 2.5});
      cache_db.Compact();
    }
    for (const Polygon& area : cache_areas) {
      const std::vector<PointId> first = cache_db.Query(area, cctx);
      cache_hits += cctx.stats.result_cache_hits;
      cache_misses += cctx.stats.result_cache_misses;
      const std::vector<PointId> second = cache_db.Query(area, cctx);
      cache_hits += cctx.stats.result_cache_hits;
      cache_misses += cctx.stats.result_cache_misses;
      const std::vector<PointId> fresh =
          cache_db.Query(area, cctx, uncached);
      if (first != fresh || second != fresh) ++cache_mismatches;
    }
  }
  // 4 rounds x 2 executions: round 0 is miss+miss (second-hit admission
  // declines the first-seen execution), rounds 1-2 (insert, erase) are
  // hit+hit, round 3 (compaction) is miss+hit.
  const std::uint64_t expected_hits = 5ull * kCachePolygons;
  const std::uint64_t expected_misses = 3ull * kCachePolygons;
  std::cout << "cache: hits " << cache_hits << "/" << expected_hits
            << "  misses " << cache_misses << "/" << expected_misses
            << "  mismatches " << cache_mismatches << "\n";
  total_mismatches += cache_mismatches;

  if (json) {
    std::ofstream out("BENCH_planner.json");
    out << "[\n";
    for (const GridRow& row : rows) {
      out << "  {\"bench\": \"planner\", \"cell\": \"grid\""
          << ", \"data_size\": " << row.data_size
          << ", \"query_size_fraction\": " << row.query_size
          << ", \"backend\": \"" << row.backend << "\""
          << ", \"simulated_fetch_ns\": " << row.fetch_ns
          << ", \"reps\": " << reps
          << ", \"crossover\": " << (row.crossover ? "true" : "false")
          << ", \"mismatches\": " << row.mismatches
          << ",\n   \"auto\": {\"time_ms\": " << row.auto_ms / reps
          << ", \"plan_method\": " << row.plan_method
          << ", \"plan_reason\": " << row.plan_reason
          << ", \"result_cache_hits\": "
          << static_cast<double>(row.cache_hits)
          << ", \"result_cache_misses\": "
          << static_cast<double>(row.cache_misses) << "}"
          << ",\n   \"traditional\": {\"time_ms\": " << row.trad_ms / reps
          << "}, \"voronoi\": {\"time_ms\": " << row.vor_ms / reps << "}"
          << ", \"auto_vs_best_static\": " << row.auto_ms / row.BestStatic()
          << ", \"auto_vs_worst_static\": "
          << row.auto_ms / row.WorstStatic() << "},\n";
    }
    out << "  {\"bench\": \"planner\", \"cell\": \"cache\""
        << ", \"rounds\": 4, \"polygons\": " << kCachePolygons
        << ", \"result_cache_hits\": " << cache_hits
        << ", \"result_cache_misses\": " << cache_misses
        << ", \"mismatches\": " << cache_mismatches << "}\n"
        << "]\n";
    std::cout << "wrote BENCH_planner.json (" << rows.size() + 1
              << " rows)\n";
  }

  if (check) {
    // The crossover gate: auto plans one method per cell, the side of the
    // crossover its backend lies on.
    int wrong_side = 0;
    for (const GridRow& row : rows) {
      const std::uint64_t expected = MethodBit(
          row.fetch_ns > 0.0 ? DynamicMethod::kVoronoi
                             : DynamicMethod::kTraditional);
      if (row.plan_method != expected) {
        ++wrong_side;
        std::cerr << "crossover: n=" << row.data_size << " @"
                  << row.query_size << " " << row.backend
                  << " plan_method " << row.plan_method << " (expected "
                  << expected << ")\n";
      }
    }
    if (total_mismatches > 0 || cache_hits != expected_hits ||
        cache_misses != expected_misses || wrong_side > 0) {
      std::cerr << "CHECK FAILED: mismatches=" << total_mismatches
                << " cache_hits=" << cache_hits << " (expected "
                << expected_hits << ") cache_misses=" << cache_misses
                << " (expected " << expected_misses
                << ") wrong_side_cells=" << wrong_side << "\n";
      return 1;
    }
    std::cout << "check passed\n";
  }
  return 0;
}
