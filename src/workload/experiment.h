#ifndef VAQ_WORKLOAD_EXPERIMENT_H_
#define VAQ_WORKLOAD_EXPERIMENT_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/point_database.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"

namespace vaq {

/// One experiment cell of the paper's evaluation: a database of
/// `data_size` points and `repetitions` random query polygons of a given
/// query size, timed for both methods.
struct ExperimentConfig {
  std::size_t data_size = 100000;
  double query_size_fraction = 0.01;
  int repetitions = 200;
  std::uint64_t seed = 42;
  int polygon_vertices = 10;
  PointDistribution distribution = PointDistribution::kUniform;
  /// Also run the brute-force scan and verify both methods return exactly
  /// its result set (counted in `ExperimentRow::mismatches`).
  bool verify = false;
  /// Simulated per-candidate object-fetch latency (see
  /// `PointDatabase::set_simulated_fetch_ns`). 0 = raw in-memory timing.
  double simulated_fetch_ns = 0.0;
  /// Spend the simulated latency blocking (sleep) instead of spinning, so
  /// concurrent queries overlap their IO waits. Only meaningful with
  /// `simulated_fetch_ns > 0`; see `PointDatabase::FetchLatencyModel`.
  bool blocking_fetch = false;
  /// Worker threads of the `QueryEngine` the repetitions run through.
  /// 1 reproduces the paper's sequential setting; the per-query averages
  /// are thread-count independent (results are deterministic), only the
  /// batch wall-clock and throughput change.
  int num_threads = 1;
  /// What backs the database's object-fetch boundary (see
  /// `StorageOptions`): the resident point array (default), or an
  /// mmap-backed page file behind an LRU cache of `page_cache_pages`
  /// pages of `page_size_bytes` each — the out-of-core regime when the
  /// cache is smaller than the dataset. Result sets are backend-invariant
  /// (the page file stores the exact same doubles); only timings and the
  /// page counters change.
  StorageBackend storage_backend = StorageBackend::kInMemory;
  std::size_t page_cache_pages = 4096;
  std::uint32_t page_size_bytes = 4096;
};

/// Per-method averages over the repetitions, plus batch-level throughput.
struct MethodAverages {
  double candidates = 0.0;
  double redundant = 0.0;
  double time_ms = 0.0;
  double node_accesses = 0.0;
  double geometry_loads = 0.0;
  /// Results bulk-accepted without per-point validation (see
  /// `QueryStats::bulk_accepted`).
  double bulk_accepted = 0.0;
  /// Scatter-gather fan-out averages of a sharded method (see
  /// `QueryStats::shards_hit`/`shards_pruned`); 0 for unsharded methods.
  double shards_hit = 0.0;
  double shards_pruned = 0.0;
  /// Page-cache traffic per query on the out-of-core backends (see
  /// `QueryStats::pages_touched`); all 0 on the in-memory backend.
  double pages_touched = 0.0;
  double page_cache_hits = 0.0;
  double page_cache_misses = 0.0;
  /// Failure-domain averages (see `QueryStats::io_retries` etc.): storage
  /// read retries and quarantined pages per query.
  /// All exactly 0 without fault injection — the perf-smoke gate pins
  /// them to zero so fault hooks can never silently fire on the happy
  /// path.
  double io_retries = 0.0;
  double pages_quarantined = 0.0;
  /// OR of the `QueryStats::kernel_kind` bitmasks across repetitions —
  /// which batch classification kernels (and arm) the method's refine
  /// steps executed. A mask, not an average: Finish does not divide it.
  std::uint64_t kernel_kind = 0;
  /// Wall-clock of the whole batch through the engine and the resulting
  /// queries/second (equals repetitions / wall when the pool is saturated).
  double batch_wall_ms = 0.0;
  double throughput_qps = 0.0;
};

/// One row of Table I / Table II.
struct ExperimentRow {
  ExperimentConfig config;
  double result_size = 0.0;
  MethodAverages traditional;
  MethodAverages voronoi;
  int mismatches = 0;          // Only populated when config.verify.
  /// Hilbert ordering plus the database's R-tree build (its MBR levels),
  /// replayed apart.
  double build_rtree_ms = 0.0;
  /// The whole `PointDatabase` build — distinctness check, Hilbert
  /// relabelling, R-tree and Delaunay — not the triangulation alone.
  double build_delaunay_ms = 0.0;

  /// Relative savings of the Voronoi method, as the paper reports them.
  double TimeSavedFraction() const {
    return 1.0 - voronoi.time_ms / traditional.time_ms;
  }
  double CandidatesSavedFraction() const {
    return 1.0 - voronoi.candidates / traditional.candidates;
  }
};

/// Runs one experiment cell on an already-built database (non-const: the
/// runner applies `config.simulated_fetch_ns` to the database). The
/// repetitions execute as one batch per method through a `QueryEngine`
/// with `config.num_threads` workers.
ExperimentRow RunExperimentOnDatabase(PointDatabase& db,
                                      const ExperimentConfig& config);

/// Generates the database from `config` (seeded), builds the structures and
/// runs the cell. Build times are reported in the row.
ExperimentRow RunExperiment(const ExperimentConfig& config);

/// Runs the same cell at each thread count in `thread_counts` on one
/// shared database (so rows differ only in parallelism).
std::vector<ExperimentRow> RunThreadSweep(
    const ExperimentConfig& config, const std::vector<int>& thread_counts);

/// Pretty-prints rows in the layout of the paper's Table I (first column =
/// data size) or Table II (first column = query size), selected by
/// `vary_query_size`.
void PrintPaperTable(const std::vector<ExperimentRow>& rows,
                     bool vary_query_size, std::ostream& os);

/// Prints the series behind the paper's figures (Fig. 4/6: time; Fig. 5/7:
/// redundant validations) as aligned columns.
void PrintFigureSeries(const std::vector<ExperimentRow>& rows,
                       bool vary_query_size, std::ostream& os);

/// Prints a thread-scaling table for rows produced by `RunThreadSweep`:
/// throughput of both methods per thread count and speedup vs. the first
/// row.
void PrintThreadScalingTable(const std::vector<ExperimentRow>& rows,
                             std::ostream& os);

/// Serialises rows as a JSON array for machine-readable benchmark
/// trajectories (`BENCH_*.json` artifacts; see the benches' `--json`
/// flag). One object per row: the experiment knobs plus per-method
/// averages.
void WriteRowsJson(const std::vector<ExperimentRow>& rows, std::ostream& os);

}  // namespace vaq

#endif  // VAQ_WORKLOAD_EXPERIMENT_H_
