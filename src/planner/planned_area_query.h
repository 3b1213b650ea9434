#ifndef VAQ_PLANNER_PLANNED_AREA_QUERY_H_
#define VAQ_PLANNER_PLANNED_AREA_QUERY_H_

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "core/area_query.h"
#include "planner/query_plan.h"
#include "planner/query_planner.h"
#include "planner/result_cache.h"
#include "shard/sharded_area_query.h"

namespace vaq {

/// The planned query path: one `AreaQuery` that plans each query with
/// the cost-model `QueryPlanner` and executes the chosen method through
/// `RunShardedSnapshotQuery` against a snapshot it pins itself. It serves
/// a `DynamicPointDatabase` (pinned as one view) and a `ShardedDatabase`
/// (K views) alike; each database builds its instance lazily behind
/// `Query`/`PlannedQuery()`.
///
/// Per query:
///  1. Pin the database's current snapshot.
///  2. Compute `PlanFeatures` (live size, the polygon's MBR/area shares
///     of the union of the view MBRs, the base's IO configuration, the
///     view count) and ask the planner for a `QueryPlan` — method,
///     scatter-or-inline call, predicted test count, reason bits.
///  3. Execute the planned method against the pinned snapshot through
///     `RunShardedSnapshotQuery` (scattering onto the engine only when the
///     plan says so), with the result cache: each leg's base pass is
///     looked up under (the view's base generation, polygon bit-hash) and
///     run only on a miss, while every leg applies its own snapshot's
///     tombstones and delta. The bit-hash keys on the exact vertex bits,
///     so a patched hit is bit-identical to a fresh run.
///  4. Fold the per-leg cache outcomes into one hit (every leg that ran
///     hit) or one miss. A failed leg fails the query and offers nothing
///     to the cache; a completed base pass is exact.
///
/// `ctx.stats` always carries `plan_method` / `plan_reason`, and exactly
/// one of `result_cache_hits` / `result_cache_misses` when caching is on.
/// A hit's base work counters are 0; its `candidates` are the delta scan.
///
/// Stateless per-execution like every `AreaQuery` (scratch in the ctx);
/// the planner is immutable and the cache internally synchronized, so one
/// instance serves concurrent threads and planning takes no lock.
class PlannedAreaQuery final : public AreaQuery {
 public:
  /// Pins the current version of the database being planned over.
  using Pinner =
      std::function<std::shared_ptr<const ShardedDatabase::Snapshot>()>;

  /// `pin` is called once per query. A null `scatter_engine` runs every
  /// plan's legs inline; otherwise it must outlive this object.
  explicit PlannedAreaQuery(Pinner pin, QueryEngine* scatter_engine = nullptr);

  using AreaQuery::Run;
  std::vector<PointId> Run(const Polygon& area,
                           QueryContext& ctx) const override;

  /// `Run` with explicit hints (forced method, cache/scatter opt-outs).
  std::vector<PointId> RunPlanned(const Polygon& area, QueryContext& ctx,
                                  const PlanHints& hints) const;

  /// What would run, without running it (CLI/bench plan reporting). Pins
  /// and releases a snapshot; does not touch the cache.
  QueryPlan PlanFor(const Polygon& area, const PlanHints& hints = {}) const;

  std::string_view Name() const override { return "auto"; }

  const ResultCache& cache() const { return cache_; }

 private:
  /// Features + pinned-version context of one planning round.
  struct Pinned;
  Pinned Pin(const Polygon& area) const;

  Pinner pin_;
  QueryEngine* scatter_engine_ = nullptr;

  const QueryPlanner planner_;
  mutable ResultCache cache_;
};

}  // namespace vaq

#endif  // VAQ_PLANNER_PLANNED_AREA_QUERY_H_
