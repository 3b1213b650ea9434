// File-driven area-query CLI: load a point dataset and a query polygon
// from disk, run the chosen implementation, print result ids and cost
// counters. This is the adoption path for external data (e.g. a public
// POI extract exported to CSV).
//
// Usage:
//   area_query_cli <points.{vaqp|csv}> <polygon.csv> [method] [--ids]
//                  [--backend=memory|mmap]
//                  [--cache-pages=N] [--page-size=B]
//     method: voronoi (default) | traditional | brute | auto | all.
//       Every method runs on one `DynamicPointDatabase` built from the
//       file: a static method runs the base's bundled query object
//       (`voronoi` is the exact dual-edge rule), and `auto` routes
//       through its planner (src/planner): the cost model picks
//       traditional or voronoi per query and the CLI prints the choice
//       and its reasons before the stats line.
//     --ids : print the matching point ids (one per line) after the stats
//     --backend: what serves the point geometry — the resident point
//       array (default) or an mmap page file behind an LRU cache of N pages of
//       B bytes (see src/storage/page_store.h); out-of-core when N pages
//       hold less than the dataset. Results are backend-invariant; the
//       page columns of the stats line are live only on mmap backends.
//
// Point files: binary (VAQP magic, see workload/dataset_io.h) by ".vaqp"
// extension, otherwise CSV "x,y" lines. Polygon files: CSV ring.
//
// Exit status — the one authoritative table, printed by the usage text
// too so scripts can branch without reading the source (failure domains
// in DESIGN.md §12):
//   0  success
//   1  bad input data (unreadable/empty points, bad polygon, duplicates)
//   2  usage error (unknown flag, backend or method)
//   3  malformed page file (corrupt header/truncation, PageFileError)
//   4  page read failure (IO fault / quarantined page, PageReadError)
//   5  query aborted (deadline or cancellation, QueryAbortedError)
//   6  engine unavailable (stopped or overloaded admission-rejection,
//      EngineStoppedError / EngineOverloadedError — see
//      src/engine/errors.h)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/cancel.h"
#include "core/dynamic_point_database.h"
#include "core/point_database.h"
#include "engine/errors.h"
#include "planner/planned_area_query.h"
#include "storage/page_format.h"
#include "storage/page_store.h"
#include "workload/dataset_io.h"

namespace {

using namespace vaq;

bool EndsWith(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

std::string PlanReasonString(std::uint64_t reason) {
  static constexpr struct {
    std::uint64_t bit;
    const char* name;
  } kBits[] = {
      {plan_reason::kSeedModel, "seed-model"},
      {plan_reason::kForced, "forced"},
      {plan_reason::kCacheHit, "cache-hit"},
      {plan_reason::kIoBound, "io-bound"},
      {plan_reason::kScatter, "scatter"},
      {plan_reason::kInline, "inline"},
  };
  std::string s;
  for (const auto& b : kBits) {
    if ((reason & b.bit) == 0) continue;
    if (!s.empty()) s += ",";
    s += b.name;
  }
  return s.empty() ? "none" : s;
}

/// Runs `query` and prints its stats line. `db` serves the geometry; when
/// `internal_ids`, the query answers in `db`'s Hilbert-relabelled ids,
/// otherwise already in input positions (the planned path's stable ids).
void RunOne(const PointDatabase& db, const AreaQuery& query,
            const Polygon& area, bool print_ids, bool internal_ids = true) {
  QueryStats stats;
  const std::vector<PointId> result = query.Run(area, &stats);
  std::printf("%-17s results=%zu candidates=%llu redundant=%llu "
              "fetches=%llu index_pages=%llu time=%.3fms\n",
              std::string(query.Name()).c_str(), result.size(),
              static_cast<unsigned long long>(stats.candidates),
              static_cast<unsigned long long>(stats.RedundantValidations()),
              static_cast<unsigned long long>(stats.geometry_loads),
              static_cast<unsigned long long>(stats.index_node_accesses),
              stats.elapsed_ms);
  if (db.storage_backend() != StorageBackend::kInMemory) {
    std::printf("%-17s pages=%llu cache_hits=%llu cache_misses=%llu\n", "",
                static_cast<unsigned long long>(stats.pages_touched),
                static_cast<unsigned long long>(stats.page_cache_hits),
                static_cast<unsigned long long>(stats.page_cache_misses));
  }
  if (print_ids) {
    // Ids are printed in the caller's frame of reference: the database
    // stores points Hilbert-relabelled, so map each internal id back to
    // its position in the input file — and print ascending, as before
    // the relabelling.
    std::vector<PointId> original = result;
    if (internal_ids) {
      for (PointId& id : original) id = db.OriginalId(id);
      std::sort(original.begin(), original.end());
    }
    for (const PointId id : original) std::printf("%u\n", id);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <points.{vaqp|csv}> <polygon.csv> "
                 "[voronoi|traditional|brute|auto|all] [--ids]\n"
                 "       [--backend=memory|mmap] "
                 "[--cache-pages=N] [--page-size=B]\n"
                 "  auto: the planner picks traditional or voronoi per query "
                 "(choice and reasons are printed)\n"
                 "exit codes: 0 success; 1 bad input data; 2 usage error; "
                 "3 malformed page file;\n"
                 "  4 page read failure; 5 query aborted "
                 "(deadline/cancellation); 6 engine unavailable\n"
                 "  (stopped/overloaded)\n",
                 argv[0]);
    return 2;
  }
  const std::string points_path = argv[1];
  const std::string polygon_path = argv[2];
  std::string method = "voronoi";
  bool print_ids = false;
  PointDatabase::Options db_options;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ids") {
      print_ids = true;
    } else if (arg.rfind("--backend=", 0) == 0) {
      const std::string backend = arg.substr(10);
      if (backend == "memory") {
        db_options.storage.backend = StorageBackend::kInMemory;
      } else if (backend == "mmap") {
        db_options.storage.backend = StorageBackend::kMmap;
      } else {
        std::fprintf(stderr, "error: unknown backend '%s'\n",
                     backend.c_str());
        return 2;
      }
    } else if (arg.rfind("--cache-pages=", 0) == 0) {
      db_options.storage.cache_pages = std::stoull(arg.substr(14));
    } else if (arg.rfind("--page-size=", 0) == 0) {
      db_options.storage.page_size_bytes =
          static_cast<std::uint32_t>(std::stoul(arg.substr(12)));
    } else {
      method = arg;
    }
  }
  // A usage error exits before any input is read or any database built.
  if (method != "voronoi" && method != "traditional" && method != "brute" &&
      method != "auto" && method != "all") {
    std::fprintf(stderr, "error: unknown method '%s'\n", method.c_str());
    return 2;
  }

  std::vector<Point> points;
  const bool loaded = EndsWith(points_path, ".vaqp")
                          ? LoadPointsBinary(points_path, &points)
                          : LoadPointsCsv(points_path, &points);
  if (!loaded || points.empty()) {
    std::fprintf(stderr, "error: cannot load points from %s\n",
                 points_path.c_str());
    return 1;
  }
  Polygon area;
  if (!LoadPolygonCsv(polygon_path, &area)) {
    std::fprintf(stderr, "error: cannot load polygon from %s\n",
                 polygon_path.c_str());
    return 1;
  }
  if (!area.IsSimple()) {
    std::fprintf(stderr, "error: polygon ring is self-intersecting\n");
    return 1;
  }

  std::printf("# %zu points, %zu-vertex query area (%.4g of its MBR)\n",
              points.size(), area.size(), area.Area() / area.Bounds().Area());
  // The database enforces pairwise distinctness (the Delaunay builder's
  // precondition); report the offending rows in the caller's frame — the
  // point order of the input file (comment/blank lines excluded).
  // Failure exits map 1:1 to the exception types caught below; the
  // code table lives in the header comment (and the usage text) only.
  try {
    DynamicPointDatabase::Options options;
    options.base = db_options;
    const DynamicPointDatabase db(std::move(points), options);
    const std::shared_ptr<const DynamicPointDatabase::Snapshot> snapshot =
        db.snapshot();
    const PointDatabase& base = snapshot->base();
    const bool ids = print_ids && method != "all";
    static constexpr struct {
      const char* name;
      DynamicMethod method;
    } kStatic[] = {
        {"voronoi", DynamicMethod::kVoronoi},
        {"traditional", DynamicMethod::kTraditional},
        {"brute", DynamicMethod::kBruteForce},
    };
    for (const auto& m : kStatic) {
      if (method == m.name || method == "all") {
        RunOne(base, snapshot->BaseQuery(m.method), area, ids);
      }
    }
    if (method == "auto" || method == "all") {
      const PlannedAreaQuery& planned = *db.PlannedQuery();
      const QueryPlan plan = planned.PlanFor(area);
      std::printf(
          "# planner: method=%s reason=%s predicted_candidates=%.0f "
          "predicted_cost=%.3fms\n",
          std::string(MethodName(plan.method)).c_str(),
          PlanReasonString(plan.reason).c_str(), plan.predicted_candidates,
          plan.predicted_cost_ns / 1e6);
      RunOne(base, planned, area, ids, /*internal_ids=*/false);
    }
  } catch (const DuplicatePointError& e) {
    std::fprintf(stderr,
                 "error: %s: duplicate point (%.17g, %.17g) at input rows "
                 "%zu and %zu (0-based, comment/blank lines excluded)\n",
                 points_path.c_str(), e.point().x, e.point().y,
                 e.first_index(), e.second_index());
    return 1;
  } catch (const PageFileError& e) {
    std::fprintf(stderr, "error: malformed page file: %s\n", e.what());
    return 3;
  } catch (const PageReadError& e) {
    std::fprintf(stderr, "error: page read failed: %s\n", e.what());
    return 4;
  } catch (const QueryAbortedError& e) {
    std::fprintf(stderr, "error: query aborted: %s\n", e.what());
    return 5;
  } catch (const EngineStoppedError& e) {
    std::fprintf(stderr, "error: engine unavailable: %s\n", e.what());
    return 6;
  } catch (const EngineOverloadedError& e) {
    std::fprintf(stderr, "error: engine unavailable: %s\n", e.what());
    return 6;
  }
  return 0;
}
