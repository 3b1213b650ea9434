#ifndef VAQ_CORE_DYNAMIC_AREA_QUERY_H_
#define VAQ_CORE_DYNAMIC_AREA_QUERY_H_

#include "core/area_query.h"
#include "core/dynamic_point_database.h"

namespace vaq {

/// Fixed-method area query over one pinned `DynamicPointDatabase`
/// version: runs `method`'s base implementation (voronoi / traditional /
/// grid-sweep / brute-force) over the immutable base, drops tombstoned
/// hits, remaps base-internal ids to stable ids, then merges a
/// delta-refine pass — the snapshot's SoA delta buffer streamed through
/// the same blocked classification kernel the base methods use. Results
/// are stable ids (see `DynamicPointDatabase`), sorted ascending.
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

/// The snapshot-specific half of a dynamic query, after its base pass
/// (`snap.BaseQuery(method).Run`): drops tombstoned hits from `ids` (the
/// base pass's base-internal ids) in place, maps the rest to stable ids
/// and appends the delta-refine hits. Unsorted, and adds to `ctx.stats`
/// without resetting it or setting `results`/`elapsed_ms`.
///
/// The base pass depends only on the base, which every snapshot of one
/// `base_generation()` shares, and tombstones only grow within a
/// generation. So this finish is exact over base-pass ids taken from any
/// snapshot of the same generation — which is what lets
/// `RunShardedSnapshotQuery` serve cached base passes.
void FinishDynamicSnapshotLeg(const DynamicPointDatabase::Snapshot& snap,
                              DynamicMethod method, const Polygon& area,
                              std::vector<PointId>& ids, QueryContext& ctx);

}  // namespace vaq

#endif  // VAQ_CORE_DYNAMIC_AREA_QUERY_H_
