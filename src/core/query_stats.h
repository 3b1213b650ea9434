#ifndef VAQ_CORE_QUERY_STATS_H_
#define VAQ_CORE_QUERY_STATS_H_

#include <cstddef>
#include <cstdint>

namespace vaq {

/// Cost counters collected by one area-query execution. These mirror the
/// quantities the paper reports:
///  * `candidates`            — Table I/II "Candidate number": points whose
///                              full geometry was loaded and validated;
///  * `RedundantValidations()`— Fig. 5/7 "times of redundant validations":
///                              validated candidates that were not results;
///  * `geometry_loads`        — object fetches (IO proxy in a disk-resident
///                              database);
///  * `index_node_accesses`   — index pages touched (filter-step IO proxy);
///  * `elapsed_ms`            — wall-clock time of the whole query.
/// The Voronoi method additionally counts its graph work
/// (`neighbor_expansions`, `segment_tests`).
struct QueryStats {
  std::uint64_t candidates = 0;
  std::uint64_t candidate_hits = 0;  // Candidates that passed validation.
  std::uint64_t results = 0;
  std::uint64_t geometry_loads = 0;
  std::uint64_t index_node_accesses = 0;
  std::uint64_t neighbor_expansions = 0;
  /// Exact segment-vs-polygon tests the Voronoi flood ran. Under the
  /// paper rule this depends on visit order, not only on the query: an
  /// already-visited neighbour is skipped before its segment test, so
  /// whichever boundary point reaches a shared outside neighbour first
  /// decides whether that neighbour's segment is tested again. Reordering
  /// the graph's rows alone moves it (by ~1% on `BENCH_micro_flood`)
  /// while candidates, results and expansions stay the same.
  std::uint64_t segment_tests = 0;
  /// Results accepted wholesale without a per-point geometric test: points
  /// of index subtrees / grid cells whose MBR the `PreparedArea` classified
  /// as fully inside the query polygon.
  std::uint64_t bulk_accepted = 0;
  /// Candidates whose geometry was loaded and validated but that were NOT
  /// results — the explicit counterpart of `RedundantValidations()`. For
  /// the Voronoi flood this is the visited boundary shell (visited points
  /// outside A), reported distinctly so the epilogue invariant
  /// `candidates == candidate_hits + visited_rejected` is checkable
  /// instead of being hidden by `candidate_hits = results`.
  std::uint64_t visited_rejected = 0;
  /// Of `candidates`, how many came from a dynamic database's in-memory
  /// delta buffer (see `DynamicPointDatabase`). Delta candidates are
  /// validated like any other candidate (they participate in the
  /// `candidates == candidate_hits + visited_rejected` invariant) but are
  /// *not* charged as `geometry_loads`: the delta buffer is the memtable a
  /// log-structured store keeps resident, so scanning it costs no object
  /// IO. Always 0 for queries on an immutable `PointDatabase`.
  std::uint64_t delta_candidates = 0;
  /// Scatter-gather accounting of a query run by `RunShardedSnapshotQuery`
  /// (every planned query): views whose leg actually ran vs. views
  /// skipped because their MBR was classified outside the area (or they
  /// held no live points). `shards_hit + shards_pruned` equals the
  /// snapshot's view count: K for a `ShardedDatabase`, 1 for a
  /// `DynamicPointDatabase`. Always 0 for a method run directly (a base
  /// query, `RunDynamicSnapshotQuery`).
  std::uint64_t shards_hit = 0;
  std::uint64_t shards_pruned = 0;
  /// Page-granular object IO of the out-of-core backends (see
  /// `PageStore`): distinct page runs the query's gathers streamed
  /// through the page cache, split into hits and misses. Every touch is
  /// exactly one hit or one miss, so
  ///   `page_cache_hits + page_cache_misses == pages_touched`
  /// holds on every exit path (and survives the sharded per-leg
  /// summation). All three are 0 on the in-memory backend, where
  /// `geometry_loads` remains the only (object-level) IO proxy.
  std::uint64_t pages_touched = 0;
  std::uint64_t page_cache_hits = 0;
  std::uint64_t page_cache_misses = 0;
  /// Bitmask of the `PolygonKernel` paths the refine step executed (see
  /// `PolygonKernel::kStats*`): which specialised classifier ran
  /// (grid-residual / convex half-plane / small-m edge loop) and whether
  /// it ran on the AVX2 arm. A *mask*, not an enum value, so the merge
  /// across sharded legs and accumulated repetitions is a plain OR and
  /// every kernel that participated stays visible in experiment JSON.
  /// 0 when the query never invoked a batch kernel (pure bulk-accept or
  /// index-only paths).
  std::uint64_t kernel_kind = 0;
  /// Failure-domain accounting (DESIGN.md §12). `io_retries` counts page
  /// read attempts beyond the first — transient faults the storage layer
  /// absorbed with retry/backoff; `pages_quarantined` counts pages the
  /// store gave up on (two consecutive checksum failures) during this
  /// query. Both are 0 on every happy path and whenever fault injection
  /// is disabled.
  std::uint64_t io_retries = 0;
  std::uint64_t pages_quarantined = 0;
  /// Planner accounting (src/planner). `plan_method` is the OR of
  /// `MethodBit(m)` for every method a planned execution ran (a mask like
  /// `kernel_kind`, so sharded legs and engine totals merge losslessly);
  /// `plan_reason` ORs the `PlanReason` bits explaining the choice. Both
  /// 0 when the query was dispatched by hand rather than planned.
  std::uint64_t plan_method = 0;
  std::uint64_t plan_reason = 0;
  /// Result-cache traffic of a planned query: exactly one of the two is
  /// 1 per planned execution with caching enabled. A hit served every
  /// leg's base pass from the cache, so only the per-snapshot finish ran:
  /// the base work counters stay 0 and `candidates` is the delta scan.
  /// Additive across repetitions, so engine totals count hits/misses.
  std::uint64_t result_cache_hits = 0;
  std::uint64_t result_cache_misses = 0;
  double elapsed_ms = 0.0;

  /// Number of fields above — the merge contract's checksum. `MergeFrom`
  /// static-asserts `sizeof(QueryStats) == kFieldCount * 8` (every field
  /// is a uint64 or double), so adding a field without teaching the merge
  /// about it fails the build instead of silently dropping counters in
  /// engine aggregation and sharded gathers.
  static constexpr std::size_t kFieldCount = 23;

  /// Candidates that failed refinement — the waste both methods try to
  /// minimise. Every method counts its results as validated candidates,
  /// so on one leg this equals candidates - results.
  std::uint64_t RedundantValidations() const {
    return candidates - candidate_hits;
  }

  void Reset() { *this = QueryStats{}; }

  /// The one merge of two stats records, used everywhere partial stats
  /// combine: the engine's per-method aggregation, the sharded gather's
  /// per-leg summation, the experiment runner's repetition averages.
  /// Counters add; the mask fields (`kernel_kind`, `plan_method`,
  /// `plan_reason`) OR, so the merge is lossless for them too. Preserves
  /// the `candidates == candidate_hits + visited_rejected` invariant when
  /// both operands satisfy it.
  QueryStats& MergeFrom(const QueryStats& o) {
    static_assert(sizeof(QueryStats) == kFieldCount * sizeof(std::uint64_t),
                  "QueryStats gained/lost a field: update MergeFrom (and "
                  "kFieldCount) so the new field merges instead of being "
                  "silently dropped by engine/shard aggregation");
    candidates += o.candidates;
    candidate_hits += o.candidate_hits;
    results += o.results;
    geometry_loads += o.geometry_loads;
    index_node_accesses += o.index_node_accesses;
    neighbor_expansions += o.neighbor_expansions;
    segment_tests += o.segment_tests;
    bulk_accepted += o.bulk_accepted;
    visited_rejected += o.visited_rejected;
    delta_candidates += o.delta_candidates;
    shards_hit += o.shards_hit;
    shards_pruned += o.shards_pruned;
    pages_touched += o.pages_touched;
    page_cache_hits += o.page_cache_hits;
    page_cache_misses += o.page_cache_misses;
    kernel_kind |= o.kernel_kind;  // Mask of kernels that ran, not a sum.
    io_retries += o.io_retries;
    pages_quarantined += o.pages_quarantined;
    plan_method |= o.plan_method;  // Masks, like kernel_kind.
    plan_reason |= o.plan_reason;
    result_cache_hits += o.result_cache_hits;
    result_cache_misses += o.result_cache_misses;
    elapsed_ms += o.elapsed_ms;
    return *this;
  }

  /// Element-wise accumulation (the experiment runner's averaging loop);
  /// an alias of `MergeFrom` so there is exactly one merge to maintain.
  QueryStats& operator+=(const QueryStats& o) { return MergeFrom(o); }
};

}  // namespace vaq

#endif  // VAQ_CORE_QUERY_STATS_H_
