#ifndef VAQ_PLANNER_COST_MODEL_H_
#define VAQ_PLANNER_COST_MODEL_H_

#include <cstddef>

#include "core/method.h"

namespace vaq {

/// Per-query features the planner's cost model consumes. All are O(1) to
/// compute at plan time: the shares come from the query polygon's own
/// geometry against the database bounds (the `PreparedArea::
/// EstimateMbrShare` idea), the IO figures from the backend's
/// configuration, never from running the query.
struct PlanFeatures {
  /// Live points in the (pinned) database version.
  std::size_t n = 0;
  /// Query-MBR area / database-bounds area, clamped to [0, 1]. The
  /// selectivity proxy of the filter-refine methods: the window filter
  /// produces ~ n * mbr_share candidates.
  double mbr_share = 0.0;
  /// Polygon area / database-bounds area, clamped to [0, 1]. The Voronoi
  /// flood's result-size proxy: it visits ~ n * poly_share interior
  /// points plus a boundary shell.
  double poly_share = 0.0;
  /// Simulated object-fetch latency per geometry load
  /// (`PointDatabase::simulated_fetch_ns`); the paper's disk-resident
  /// cost knob. 0 on raw in-memory timing.
  double io_ns_per_load = 0.0;
  /// True when geometry is served by an out-of-core page-cache backend
  /// (mmap/pread); adds an effective per-load cost even when
  /// `io_ns_per_load` is 0.
  bool paged = false;
  /// Shard count of the database (1 = unsharded); with the per-leg
  /// estimate, drives the fanout-vs-inline call.
  std::size_t num_shards = 1;
};

/// Static cost model: per-method candidate and wall-time estimators with
/// coefficients seeded from a fit to the committed BENCH_table1/2
/// baselines (see PAPER.md for the rows). The seed encodes the paper's
/// crossover — per-candidate CPU favours the traditional filter-refine
/// path, per-candidate IO favours the Voronoi method's smaller candidate
/// set. `QueryPlanner` uses it as is: an unforced plan compares only the
/// Voronoi and traditional rows; the brute-force row prices forced plans.
struct CostModel {
  /// One method's coefficients.
  struct MethodCost {
    /// Per-candidate CPU cost (ns).
    double cpu_ns;
    /// Per-query fixed overhead (ns): index descent / flood seeding /
    /// prepared-grid build amortisation.
    double fixed_ns;
  };
  /// Fit note: measured per-candidate cost falls with candidate count
  /// (bulk accept covers more interior as selectivity grows: ~57 -> ~14
  /// ns for traditional from 1% to 32% queries); the seed takes the
  /// mid-range. The slope does not move the crossover: traditional stays
  /// cheaper in memory and Voronoi under IO from 1% to 32%. Brute force's
  /// 3.5 ns is about 5x below its measured cost, so scored as an arm it
  /// would win 32% memory queries it runs ~3.8x slower than the best
  /// method.
  MethodCost voronoi{62.0, 12000.0};
  MethodCost traditional{30.0, 6000.0};
  MethodCost brute{3.5, 1500.0};
  /// Voronoi boundary shell: visited-but-rejected points scale with the
  /// result perimeter, ~ shell_coeff * sqrt(results) on uniform data
  /// (measured ~4.7 across the baseline rows).
  double shell_coeff = 4.7;
  /// Effective extra per-load cost (ns) on paged backends when no
  /// explicit `io_ns_per_load` is configured: an amortised page-cache
  /// probe (hits dominate after warm-up; misses are rare but expensive).
  double paged_load_ns = 60.0;
  /// Per-leg submit/future overhead of the sharded scatter path; legs
  /// cheaper than this run inline even when a pool is available.
  double scatter_overhead_ns = 25000.0;

  /// Expected candidate count of `m` under `f` (validated points, the
  /// quantity both `QueryStats::candidates` and the paper's Table I/II
  /// report).
  double ExpectedCandidates(DynamicMethod m, const PlanFeatures& f) const;

  /// Expected wall time (ns) of `m` under `f`, given an explicit
  /// candidate estimate (so the sharded fanout call can price one leg's
  /// share): fixed + candidates * (cpu + effective per-load IO).
  double EstimateCostNs(DynamicMethod m, const PlanFeatures& f,
                        double candidates) const;

  /// Effective per-geometry-load IO cost (ns) under `f`.
  double IoNsPerLoad(const PlanFeatures& f) const;
};

}  // namespace vaq

#endif  // VAQ_PLANNER_COST_MODEL_H_
