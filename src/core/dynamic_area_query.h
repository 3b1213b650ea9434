#ifndef VAQ_CORE_DYNAMIC_AREA_QUERY_H_
#define VAQ_CORE_DYNAMIC_AREA_QUERY_H_

#include "core/area_query.h"
#include "core/dynamic_point_database.h"

namespace vaq {

/// Fixed-method area query over one pinned `DynamicPointDatabase`
/// version: runs `method`'s base implementation (voronoi / traditional /
/// brute-force) over the immutable base, orders its hits by
/// stable id (`OrderBasePassByStableId`), then finishes them
/// (`FinishDynamicSnapshotLeg`): drops tombstoned hits, remaps the rest
/// to stable ids and appends the delta-refine hits. Results are stable
/// ids (see `DynamicPointDatabase`), sorted ascending with no final sort.
///
/// The snapshot pin makes the call safe against concurrent `Insert`/
/// `Erase`/`Compact`: pass `*db.snapshot()` for the current version.
/// Per-execution scratch lives in `ctx` (the delta pass uses
/// `ScratchDelta`). This is the fixed-method path benches and
/// differential tests use; planned traffic goes through
/// `DynamicPointDatabase::Query`, whose executor runs the same body.
///
/// Stats: `ctx.stats` is reset and filled with the base execution's
/// counters plus the delta pass — delta scans count as `candidates` (and
/// `delta_candidates`) and keep the `candidates == candidate_hits +
/// visited_rejected` invariant, but charge no `geometry_loads` (the delta
/// buffer is memory-resident by design). `candidate_hits` counts
/// geometric hits; `results` can be smaller when tombstones exclude
/// validated base hits.
std::vector<PointId> RunDynamicSnapshotQuery(
    const DynamicPointDatabase::Snapshot& snap, DynamicMethod method,
    const Polygon& area, QueryContext& ctx);

/// Reorders a base pass's base-internal ids (`snap.BaseQuery(method).Run`
/// returns them ascending by internal id) by ascending stable id: one
/// radix sort (`QueryContext::SortIdsByKey`) over the digits
/// `stable_limit()` needs, in context scratch. The order the result cache
/// stores and `FinishDynamicSnapshotLeg` expects; it is paid once, when
/// the base pass runs, never on a cache hit.
void OrderBasePassByStableId(const DynamicPointDatabase::Snapshot& snap,
                             std::vector<PointId>& ids, QueryContext& ctx);

/// The snapshot-specific half of a dynamic query, after its base pass and
/// `OrderBasePassByStableId`. `ids` holds base-internal ids in ascending
/// stable-id order; in one sequential pass the finish drops the
/// tombstoned ones in place and maps the rest to stable ids, which stay
/// ascending. It then appends the delta-refine hits, sorted: every delta
/// stable id exceeds every base stable id (stable ids only grow, and a
/// compaction folds the whole delta into the base), so the output is
/// sorted ascending without a merge. The delta pass screens every delta
/// point against MBR(A) and classifies only the survivors — with the
/// context's kernel when it already holds `area` or a grid sized to the
/// survivors pays for its build, by `Polygon::Contains` otherwise (and
/// always for `kBruteForce`). It adds to `ctx.stats` without resetting
/// it or setting `results`/`elapsed_ms`; `kernel_kind` gains a bit only
/// when the kernel ran.
///
/// The base pass depends only on the base, which every snapshot of one
/// `base_generation()` shares, and tombstones only grow within a
/// generation. So this finish is exact over base-pass ids taken from any
/// snapshot of the same generation — which is what lets
/// `RunShardedSnapshotQuery` serve cached base passes in O(answer).
void FinishDynamicSnapshotLeg(const DynamicPointDatabase::Snapshot& snap,
                              DynamicMethod method, const Polygon& area,
                              std::vector<PointId>& ids, QueryContext& ctx);

}  // namespace vaq

#endif  // VAQ_CORE_DYNAMIC_AREA_QUERY_H_
