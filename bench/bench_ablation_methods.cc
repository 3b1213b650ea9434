// Ablation: all three area-query strategies side by side —
//   brute force (no index), traditional (R-tree window filter + refine),
//   Voronoi (the paper's Algorithm 1).
// Reports validations, redundant validations, record fetches and time for
// the paper's workload at three query sizes, raw and under the 1us IO
// model.

#include <iomanip>
#include <iostream>
#include <vector>

#include "core/brute_force_area_query.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

int main() {
  using namespace vaq;
  constexpr Box kUnit{{0.0, 0.0}, {1.0, 1.0}};
  constexpr int kReps = 50;

  Rng rng(2468);
  PointDatabase db(GenerateUniformPoints(100000, kUnit, &rng));
  const BruteForceAreaQuery brute(&db);
  const TraditionalAreaQuery trad(&db);
  const VoronoiAreaQuery vaq(&db);
  const AreaQuery* methods[] = {&brute, &trad, &vaq};

  for (const double fetch_ns : {0.0, 1000.0}) {
    db.set_simulated_fetch_ns(fetch_ns);
    std::cout << "\n=== Method ablation (1E5 uniform points, " << kReps
              << " reps, "
              << (fetch_ns > 0 ? "IO MODEL 1us/fetch" : "RAW") << ") ===\n";
    for (const double qs : {0.01, 0.08, 0.32}) {
      PolygonSpec spec;
      spec.query_size_fraction = qs;
      std::cout << "\n-- query size " << qs * 100 << "% --\n";
      std::cout << std::left << std::setw(14) << "method" << std::right
                << std::setw(12) << "validated" << std::setw(12) << "redund"
                << std::setw(12) << "fetches" << std::setw(12) << "time(ms)"
                << "\n";
      for (const AreaQuery* method : methods) {
        Rng qrng(13579);  // Same queries for every method.
        QueryStats total, stats;
        std::size_t results = 0;
        for (int rep = 0; rep < kReps; ++rep) {
          const Polygon area = GenerateQueryPolygon(spec, kUnit, &qrng);
          results += method->Run(area, &stats).size();
          total += stats;
        }
        std::cout << std::left << std::setw(14) << method->Name()
                  << std::right << std::fixed << std::setprecision(1)
                  << std::setw(12)
                  << static_cast<double>(total.candidates) / kReps
                  << std::setw(12)
                  << static_cast<double>(total.RedundantValidations()) / kReps
                  << std::setw(12)
                  << static_cast<double>(total.geometry_loads) / kReps
                  << std::setw(12) << std::setprecision(3)
                  << total.elapsed_ms / kReps << "   (avg results "
                  << std::setprecision(1)
                  << static_cast<double>(results) / kReps << ")\n";
      }
    }
  }
  return 0;
}
