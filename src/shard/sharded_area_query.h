#ifndef VAQ_SHARD_SHARDED_AREA_QUERY_H_
#define VAQ_SHARD_SHARDED_AREA_QUERY_H_

#include "core/area_query.h"
#include "core/dynamic_point_database.h"
#include "engine/query_engine.h"
#include "shard/sharded_database.h"

namespace vaq {

class ResultCache;

/// The one area-query executor: runs `method` against an already-pinned
/// snapshot — the K views of a `ShardedDatabase`, or the single view a
/// `DynamicPointDatabase` pins as (`Snapshot::Single`). The planner
/// (`PlannedAreaQuery`) executes every plan through it; fixed-method
/// callers pass `*db.snapshot()` themselves.
///
///  1. **Prune** (K > 1 only): classify each live shard's MBR against the
///     prepared query polygon (`PreparedArea::ClassifyBox`, O(1) per
///     shard); a `kOutside` verdict skips the shard. The MBRs are
///     conservative (exact after compaction, grown by inserts), so a
///     prune is always sound. A single view is never pruned, so an
///     unsharded query prepares its polygon only inside its method.
///  2. **Scatter** the surviving views: each runs its base pass
///     (`Snapshot::BaseQuery(method)`) and `FinishDynamicSnapshotLeg`
///     against its pinned view and, when the view has an id map, remaps
///     its hits to global stable ids. With a `scatter_engine` and more
///     than one survivor the legs run as `QueryEngine::SubmitWith` jobs
///     in parallel — under the blocking IO model the shards overlap their
///     object fetches, which is where the sharded layout's throughput
///     comes from; otherwise they run sequentially on the caller's
///     context.
///  3. **Gather**: concatenate the per-view hits. Each leg's hits ascend
///     in its view's stable ids (`FinishDynamicSnapshotLeg`), so the
///     single view of an unsharded database is returned as is; with K > 1
///     views, or an id map, global ids interleave and one sort orders the
///     merged set. Merge the per-leg
///     `QueryStats` by summation, which preserves the `candidates ==
///     candidate_hits + visited_rejected` invariant.
///     `stats.shards_hit`/`shards_pruned` record the fan-out (they sum
///     to the view count); `elapsed_ms` is the end-to-end wall time, not
///     the sum of the legs.
///
/// `ctx.stats` is reset and filled like any `AreaQuery::Run`.
///
/// **Failures are all-or-nothing** (DESIGN.md §12): the answer is exact,
/// or the query throws a typed error. Inline legs run in order and the
/// first error propagates. Scattered legs are all drained before the
/// first leg error is rethrown; each polls a child of the parent's
/// cancel token, and a cancelled parent throws `QueryAbortedError`
/// whatever the legs threw.
///
/// **Result cache.** With a `cache` (null = uncached), each surviving leg
/// looks up its base pass under (`base_generation()`, `polygon_hash`)
/// before any leg runs. A hit leg skips the base pass and finishes a copy
/// of the cached ids against its own snapshot: one sequential pass over
/// the answer plus the delta screen, no sort. A miss leg runs the base
/// pass, orders it by stable id (`OrderBasePassByStableId`) and offers
/// it. Second-hit admission is decided once per
/// query (`ResultCache::Admit`), only if some leg missed. A leg that
/// fails offers nothing from an unfinished base pass. Per leg,
/// `stats.result_cache_hits`/`result_cache_misses` count 1 and merge by
/// summation; `PlannedAreaQuery` folds them into its one hit or miss.
///
/// **Pool rule**: the scatter engine should be a pool dedicated to shard
/// legs — a sharded query blocks its calling thread until its legs
/// finish, so legs queued behind other sharded queries occupying every
/// worker of the same pool would deadlock. Running on a worker of the
/// scatter engine anyway is *safe but pointless*: the executor detects it
/// (`QueryEngine::OnWorkerThread`) and degrades to inline legs. Fan-out
/// legs are `SubmitWith` tasks, excluded from the scatter engine's
/// client-facing `Stats()`.
std::vector<PointId> RunShardedSnapshotQuery(
    const ShardedDatabase::Snapshot& snap, DynamicMethod method,
    const Polygon& area, QueryContext& ctx,
    QueryEngine* scatter_engine = nullptr, ResultCache* cache = nullptr,
    std::uint64_t polygon_hash = 0);

}  // namespace vaq

#endif  // VAQ_SHARD_SHARDED_AREA_QUERY_H_
