#ifndef VAQ_PLANNER_PLANNED_AREA_QUERY_H_
#define VAQ_PLANNER_PLANNED_AREA_QUERY_H_

#include <memory>
#include <string_view>
#include <vector>

#include "core/area_query.h"
#include "planner/query_plan.h"
#include "planner/query_planner.h"
#include "planner/result_cache.h"
#include "shard/sharded_area_query.h"

namespace vaq {

/// The unified planned query path: one `AreaQuery` that serves any of the
/// three backends (immutable `PointDatabase`, `DynamicPointDatabase`,
/// `ShardedDatabase`) by planning each query with the cost-model
/// `QueryPlanner` and executing the chosen method against a snapshot it
/// pins itself.
///
/// Per query:
///  1. Pin the backend's current snapshot (static backends are version 0
///     forever — they cannot mutate).
///  2. Compute `PlanFeatures` (live size, the polygon's MBR/area shares
///     of the database bounds, the backend's IO configuration) and ask
///     the planner for a `QueryPlan` — method, sharded fanout call,
///     predicted test count, reason bits.
///  3. Probe the result cache under (snapshot version, polygon bit-hash).
///     A hit returns the cached ids without executing anything: the COW
///     snapshot counter guarantees the pinned version saw no mutation
///     since the entry was stored, and the bit-hash keys on the exact
///     vertex bits, so the cached answer is bit-identical to a fresh run.
///  4. On a miss, execute the planned method against the pinned snapshot
///     (for sharded plans, scattering onto the engine only when the plan
///     says so), feed the measured `QueryStats` back into the planner's
///     EWMAs, and cache the result (unless it is degraded-partial — a
///     subset answer must never be served as the truth later).
///
/// `ctx.stats` always carries `plan_method` / `plan_reason`, and exactly
/// one of `result_cache_hits` / `result_cache_misses` when caching is on.
///
/// Stateless per-execution like every `AreaQuery` (scratch in the ctx);
/// the planner EWMAs and the cache are internally synchronized, so one
/// instance serves concurrent threads — `DynamicPointDatabase::Query` and
/// `ShardedDatabase::Query` share one lazily-built instance per database.
class PlannedAreaQuery final : public AreaQuery {
 public:
  struct Options {
    /// Result-cache entries (0 disables caching entirely: no lookups, no
    /// inserts, and the cache counters stay 0 in `QueryStats`).
    std::size_t cache_capacity = 128;
    /// Cost-model seed; defaults to the committed-baseline fit.
    CostModel model{};
  };

  /// Immutable backend: the planner owns the four method query objects.
  /// `db` must outlive this object.
  explicit PlannedAreaQuery(const PointDatabase* db)
      : PlannedAreaQuery(db, Options{}) {}
  PlannedAreaQuery(const PointDatabase* db, Options opts);
  /// Dynamic backend. `db` must outlive this object.
  explicit PlannedAreaQuery(const DynamicPointDatabase* db)
      : PlannedAreaQuery(db, Options{}) {}
  PlannedAreaQuery(const DynamicPointDatabase* db, Options opts);
  /// Sharded backend. A null `scatter_engine` pins every plan inline.
  /// `db` (and the engine, if given) must outlive this object.
  explicit PlannedAreaQuery(const ShardedDatabase* db,
                            QueryEngine* scatter_engine = nullptr,
                            ShardPolicy policy = {})
      : PlannedAreaQuery(db, scatter_engine, policy, Options{}) {}
  PlannedAreaQuery(const ShardedDatabase* db, QueryEngine* scatter_engine,
                   ShardPolicy policy, Options opts);
  ~PlannedAreaQuery() override;

  using AreaQuery::Run;
  std::vector<PointId> Run(const Polygon& area,
                           QueryContext& ctx) const override;

  /// `Run` with explicit hints (forced method, cache/scatter opt-outs).
  std::vector<PointId> RunPlanned(const Polygon& area, QueryContext& ctx,
                                  const PlanHints& hints) const;

  /// What would run, without running it (CLI/bench plan reporting). Pins
  /// and releases a snapshot; does not touch the cache or the EWMAs.
  QueryPlan PlanFor(const Polygon& area, const PlanHints& hints = {}) const;

  std::string_view Name() const override { return "auto"; }

  const QueryPlanner& planner() const { return planner_; }
  const ResultCache& cache() const { return cache_; }

 private:
  struct StaticBundle;  // The four method queries over a PointDatabase.

  /// Features + pinned-version context of one planning round.
  struct Pinned;
  Pinned Pin(const Polygon& area) const;

  std::vector<PointId> Execute(const Pinned& pinned, const QueryPlan& plan,
                               const Polygon& area, QueryContext& ctx) const;

  // Exactly one backend pointer is set.
  const PointDatabase* static_db_ = nullptr;
  const DynamicPointDatabase* dynamic_db_ = nullptr;
  const ShardedDatabase* sharded_db_ = nullptr;
  QueryEngine* scatter_engine_ = nullptr;
  ShardPolicy policy_{};
  std::unique_ptr<StaticBundle> bundle_;

  mutable QueryPlanner planner_;
  mutable ResultCache cache_;
};

}  // namespace vaq

#endif  // VAQ_PLANNER_PLANNED_AREA_QUERY_H_
