// Reproduces Table I, Fig. 4 and Fig. 5 of the paper: traditional vs
// Voronoi-based area query as the data size grows from 1E5 to 1E6 points
// (query size fixed at 1%).
//
// Two timing models are reported:
//  * RAW        — pure in-memory C++ wall-clock;
//  * IO MODEL   — every candidate geometry fetch charged 1us, restoring the
//                 paper's cost regime (disk-framed, interpreted stack); see
//                 DESIGN.md "Substitutions".
// Candidate / redundant-validation counts are identical across models and
// are the paper's primary effect (Fig. 5).
//
// Usage: bench_table1_data_size [--quick] [--threads] [--json]
//                               [--data-size=N] [--reps=R]
//                               [--backend=memory|mmap]
//                               [--cache-pages=C]
//   --quick: 3 data sizes, 20 repetitions (CI smoke run). Default: the
//   paper's full 10 sizes at 100 repetitions.
//   --threads: additionally re-run every row through the QueryEngine at
//   1/2/4/8 worker threads and print a thread-scaling table per row
//   (blocking IO model, so the scaling is visible on any core count).
//   --json: additionally write every row (RAW + IO model) to
//   BENCH_table1.json in the working directory, for trajectory tracking.
//   --data-size=N: run a single row at N points instead of the size grid
//   (e.g. the 1E7 out-of-core row in README.md); --reps overrides the
//   repetition count for such large runs.
//   --backend/--cache-pages: serve geometry from an mmap page file behind
//   an LRU cache of C 4-KiB pages instead of in-memory arrays (see
//   src/storage/page_store.h) — with C pages smaller than the dataset
//   this is the genuinely out-of-core regime. Candidate/result counts
//   are backend-invariant; the page hit/miss columns become live.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "workload/experiment.h"

int main(int argc, char** argv) {
  using namespace vaq;
  bool quick = false;
  bool threads = false;
  bool json = false;
  std::size_t single_data_size = 0;
  int reps_override = 0;
  StorageBackend backend = StorageBackend::kInMemory;
  std::size_t cache_pages = 4096;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    if (arg == "--threads") threads = true;
    if (arg == "--json") json = true;
    if (arg.rfind("--data-size=", 0) == 0) {
      single_data_size = std::stoull(arg.substr(12));
    }
    if (arg.rfind("--reps=", 0) == 0) reps_override = std::stoi(arg.substr(7));
    if (arg.rfind("--cache-pages=", 0) == 0) {
      cache_pages = std::stoull(arg.substr(14));
    }
    if (arg.rfind("--backend=", 0) == 0) {
      const std::string name = arg.substr(10);
      if (name == "memory") backend = StorageBackend::kInMemory;
      else if (name == "mmap") backend = StorageBackend::kMmap;
      else {
        std::cerr << "unknown backend: " << name << "\n";
        return 1;
      }
    }
  }

  std::vector<std::size_t> data_sizes;
  if (single_data_size > 0) {
    data_sizes = {single_data_size};
  } else if (quick) {
    data_sizes = {100000, 300000, 500000};
  } else {
    for (int i = 1; i <= 10; ++i) data_sizes.push_back(100000u * i);
  }
  const int reps = reps_override > 0 ? reps_override : (quick ? 20 : 100);

  std::vector<ExperimentRow> all_rows;
  for (const double fetch_ns : {0.0, 1000.0}) {
    std::vector<ExperimentRow> rows;
    for (const std::size_t n : data_sizes) {
      ExperimentConfig config;
      config.data_size = n;
      config.query_size_fraction = 0.01;  // Paper: fixed at 1%.
      config.repetitions = reps;
      config.seed = 20200101;
      config.simulated_fetch_ns = fetch_ns;
      config.storage_backend = backend;
      config.page_cache_pages = cache_pages;
      rows.push_back(RunExperiment(config));
    }
    std::cout << "\n=== Table I (" << (fetch_ns > 0 ? "IO MODEL, 1us/fetch" : "RAW")
              << "): query size 1%, " << reps << " reps/row, backend "
              << StorageBackendName(backend) << " ===\n";
    PrintPaperTable(rows, /*vary_query_size=*/false, std::cout);
    std::cout << "\n--- Fig. 4 (time) & Fig. 5 (redundant validations) series ---\n";
    PrintFigureSeries(rows, /*vary_query_size=*/false, std::cout);
    int mismatches = 0;
    for (const ExperimentRow& r : rows) mismatches += r.mismatches;
    std::cout << "result-set mismatches between methods: " << mismatches
              << "\n";
    if (backend != StorageBackend::kInMemory) {
      std::cout << "--- page cache traffic per query (cache "
                << cache_pages << " pages) ---\n"
                << "data_size  trad: touched  hits  misses  |  "
                   "voronoi: touched  hits  misses\n";
      for (const ExperimentRow& r : rows) {
        std::cout << r.config.data_size << "  " << r.traditional.pages_touched
                  << "  " << r.traditional.page_cache_hits << "  "
                  << r.traditional.page_cache_misses << "  |  "
                  << r.voronoi.pages_touched << "  "
                  << r.voronoi.page_cache_hits << "  "
                  << r.voronoi.page_cache_misses << "\n";
      }
    }
    all_rows.insert(all_rows.end(), rows.begin(), rows.end());
  }

  if (json) {
    std::ofstream out("BENCH_table1.json");
    WriteRowsJson(all_rows, out);
    std::cout << "\nwrote BENCH_table1.json (" << all_rows.size()
              << " rows)\n";
  }

  if (threads) {
    for (const std::size_t n : data_sizes) {
      ExperimentConfig config;
      config.data_size = n;
      config.query_size_fraction = 0.01;
      config.repetitions = reps;
      config.seed = 20200101;
      config.simulated_fetch_ns = 20000.0;
      config.blocking_fetch = true;
      config.storage_backend = backend;
      config.page_cache_pages = cache_pages;
      std::cout << "\n=== Table I thread scaling: data size " << n
                << " (blocking IO, 20us/fetch) ===\n";
      PrintThreadScalingTable(RunThreadSweep(config, {1, 2, 4, 8}),
                              std::cout);
    }
  }
  return 0;
}
