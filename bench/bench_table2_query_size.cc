// Reproduces Table II, Fig. 6 and Fig. 7 of the paper: traditional vs
// Voronoi-based area query as the query size grows from 1% to 32% of the
// domain (data size fixed at 1E5 points). See bench_table1_data_size.cc
// for the two timing models.
//
// Usage: bench_table2_query_size [--quick] [--threads] [--json]
//   --threads: additionally re-run every row through the QueryEngine at
//   1/2/4/8 worker threads and print a thread-scaling table per row
//   (blocking IO model, so the scaling is visible on any core count).
//   --json: additionally write every row (RAW + IO model) to
//   BENCH_table2.json in the working directory, for trajectory tracking.
//   (The planner's choice against these statics is bench_planner's job.)

#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "workload/experiment.h"

int main(int argc, char** argv) {
  using namespace vaq;
  bool quick = false;
  bool threads = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--threads") == 0) threads = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  const std::vector<double> query_sizes =
      quick ? std::vector<double>{0.01, 0.08, 0.32}
            : std::vector<double>{0.01, 0.02, 0.04, 0.08, 0.16, 0.32};
  const int reps = quick ? 20 : 100;

  std::vector<ExperimentRow> all_rows;
  for (const double fetch_ns : {0.0, 1000.0}) {
    std::vector<ExperimentRow> rows;
    for (const double qs : query_sizes) {
      ExperimentConfig config;
      config.data_size = 100000;  // Paper: fixed at 1E5.
      config.query_size_fraction = qs;
      config.repetitions = reps;
      config.seed = 20200202;
      config.simulated_fetch_ns = fetch_ns;
      rows.push_back(RunExperiment(config));
    }
    std::cout << "\n=== Table II (" << (fetch_ns > 0 ? "IO MODEL, 1us/fetch" : "RAW")
              << "): data size 1E5, " << reps << " reps/row ===\n";
    PrintPaperTable(rows, /*vary_query_size=*/true, std::cout);
    std::cout << "\n--- Fig. 6 (time) & Fig. 7 (redundant validations) series ---\n";
    PrintFigureSeries(rows, /*vary_query_size=*/true, std::cout);
    int mismatches = 0;
    for (const ExperimentRow& r : rows) mismatches += r.mismatches;
    std::cout << "result-set mismatches between methods: " << mismatches
              << "\n";
    all_rows.insert(all_rows.end(), rows.begin(), rows.end());
  }

  if (json) {
    std::ofstream out("BENCH_table2.json");
    WriteRowsJson(all_rows, out);
    std::cout << "\nwrote BENCH_table2.json (" << all_rows.size()
              << " rows)\n";
  }

  if (threads) {
    for (const double qs : query_sizes) {
      ExperimentConfig config;
      config.data_size = 100000;
      config.query_size_fraction = qs;
      config.repetitions = reps;
      config.seed = 20200202;
      config.simulated_fetch_ns = 20000.0;
      config.blocking_fetch = true;
      std::cout << "\n=== Table II thread scaling: query size " << qs * 100.0
                << "% (blocking IO, 20us/fetch) ===\n";
      PrintThreadScalingTable(RunThreadSweep(config, {1, 2, 4, 8}),
                              std::cout);
    }
  }
  return 0;
}
