#include "planner/planned_area_query.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/brute_force_area_query.h"
#include "core/dynamic_area_query.h"
#include "core/grid_sweep_area_query.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "storage/page_store.h"

namespace vaq {

namespace {

/// MBR/area shares of the polygon against the database bounds. A
/// degenerate domain (empty database, zero-area bounds) reports full
/// shares — n is tiny there and every method costs its fixed overhead.
void FillShares(const Polygon& area, const Box& domain, PlanFeatures& f) {
  const double domain_area = domain.Area();
  if (domain_area > 0.0) {
    f.mbr_share = std::min(1.0, area.Bounds().Area() / domain_area);
    f.poly_share = std::min(1.0, area.Area() / domain_area);
  } else {
    f.mbr_share = 1.0;
    f.poly_share = 1.0;
  }
}

void FillBackendCosts(const PointDatabase& base, PlanFeatures& f) {
  f.io_ns_per_load = base.simulated_fetch_ns();
  f.paged = base.storage_backend() != StorageBackend::kInMemory;
}

}  // namespace

/// The four method query objects over an immutable `PointDatabase`; the
/// other backends build their method objects per snapshot inside
/// `RunDynamicSnapshotQuery` / the shard legs.
struct PlannedAreaQuery::StaticBundle {
  TraditionalAreaQuery trad;
  VoronoiAreaQuery vor;
  GridSweepAreaQuery grid;
  BruteForceAreaQuery brute;

  explicit StaticBundle(const PointDatabase* db)
      : trad(db), vor(db), grid(db), brute(db) {}

  const AreaQuery& For(DynamicMethod m) const {
    switch (m) {
      case DynamicMethod::kVoronoi:
        return vor;
      case DynamicMethod::kTraditional:
        return trad;
      case DynamicMethod::kGridSweep:
        return grid;
      case DynamicMethod::kBruteForce:
        break;
    }
    return brute;
  }
};

/// One planning round's pinned state: the features the plan is computed
/// from, and the exact snapshot both the cache key and the execution use
/// — pinning once is what makes the cached answer provably equal to the
/// executed one (no mutation can slip between key and run).
struct PlannedAreaQuery::Pinned {
  PlanFeatures features;
  std::uint64_t version = 0;
  std::shared_ptr<const DynamicPointDatabase::Snapshot> dyn_snap;
  std::shared_ptr<const ShardedDatabase::Snapshot> shard_snap;
};

PlannedAreaQuery::PlannedAreaQuery(const PointDatabase* db, Options opts)
    : static_db_(db),
      bundle_(std::make_unique<StaticBundle>(db)),
      planner_(opts.model),
      cache_(opts.cache_capacity) {}

PlannedAreaQuery::PlannedAreaQuery(const DynamicPointDatabase* db,
                                   Options opts)
    : dynamic_db_(db), planner_(opts.model), cache_(opts.cache_capacity) {}

PlannedAreaQuery::PlannedAreaQuery(const ShardedDatabase* db,
                                   QueryEngine* scatter_engine,
                                   ShardPolicy policy, Options opts)
    : sharded_db_(db),
      scatter_engine_(scatter_engine),
      policy_(policy),
      planner_(opts.model),
      cache_(opts.cache_capacity) {}

PlannedAreaQuery::~PlannedAreaQuery() = default;

PlannedAreaQuery::Pinned PlannedAreaQuery::Pin(const Polygon& area) const {
  Pinned pinned;
  PlanFeatures& f = pinned.features;
  if (dynamic_db_ != nullptr) {
    pinned.dyn_snap = dynamic_db_->snapshot();
    pinned.version = pinned.dyn_snap->version();
    f.n = pinned.dyn_snap->live_size();
    // The base bounds are the domain proxy; delta inserts can drift
    // outside them, but the shares only steer cost estimates and the
    // EWMAs absorb systematic drift.
    FillShares(area, pinned.dyn_snap->base().bounds(), f);
    FillBackendCosts(pinned.dyn_snap->base(), f);
  } else if (sharded_db_ != nullptr) {
    pinned.shard_snap = sharded_db_->snapshot();
    pinned.version = pinned.shard_snap->version();
    Box domain;
    for (const ShardedDatabase::ShardView& v : pinned.shard_snap->shards()) {
      f.n += v.snap->live_size();
      domain.ExpandToInclude(v.mbr);
    }
    FillShares(area, domain, f);
    const auto& shards = pinned.shard_snap->shards();
    if (!shards.empty()) FillBackendCosts(shards.front().snap->base(), f);
    f.num_shards = shards.size();
  } else {
    // Immutable backend: version 0 forever — the cache never invalidates
    // because nothing can change the answer.
    f.n = static_db_->size();
    FillShares(area, static_db_->bounds(), f);
    FillBackendCosts(*static_db_, f);
  }
  return pinned;
}

std::vector<PointId> PlannedAreaQuery::Execute(const Pinned& pinned,
                                               const QueryPlan& plan,
                                               const Polygon& area,
                                               QueryContext& ctx) const {
  if (dynamic_db_ != nullptr) {
    return RunDynamicSnapshotQuery(*pinned.dyn_snap, plan.method, area, ctx);
  }
  if (sharded_db_ != nullptr) {
    return RunShardedSnapshotQuery(
        *pinned.shard_snap, plan.method, area, ctx,
        plan.scatter ? scatter_engine_ : nullptr, policy_);
  }
  return bundle_->For(plan.method).Run(area, ctx);
}

QueryPlan PlannedAreaQuery::PlanFor(const Polygon& area,
                                    const PlanHints& hints) const {
  return planner_.Plan(Pin(area).features, hints);
}

std::vector<PointId> PlannedAreaQuery::Run(const Polygon& area,
                                           QueryContext& ctx) const {
  // The hint-less `AreaQuery` entry point — what `QueryEngine` dispatches
  // on. Per-submission hints ride in on the context (installed by the
  // engine worker around the task, see `SubmitOptions::hints`), so
  // engine-routed traffic plans, learns and caches exactly like a direct
  // `RunPlanned` call instead of bypassing the planner.
  const PlanHints* hints = ctx.plan_hints();
  return RunPlanned(area, ctx, hints != nullptr ? *hints : PlanHints{});
}

std::vector<PointId> PlannedAreaQuery::RunPlanned(
    const Polygon& area, QueryContext& ctx, const PlanHints& hints) const {
  const auto t0 = std::chrono::steady_clock::now();
  const Pinned pinned = Pin(area);
  const QueryPlan plan = planner_.Plan(pinned.features, hints);
  const bool caching = hints.use_cache && cache_.capacity() > 0;

  ResultCache::Key key;
  if (caching) {
    key = ResultCache::Key{pinned.version, HashPolygonBits(area)};
    if (const std::shared_ptr<const std::vector<PointId>> ids =
            cache_.Lookup(key)) {
      // Served without execution: the work counters stay 0 (nothing
      // ran), only the result size, the plan provenance and the hit flag
      // are reported.
      ctx.stats.Reset();
      ctx.stats.results = ids->size();
      ctx.stats.result_cache_hits = 1;
      ctx.stats.plan_method = MethodBit(plan.method);
      ctx.stats.plan_reason = plan.reason | plan_reason::kCacheHit;
      ctx.stats.elapsed_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      return *ids;
    }
  }

  // No grid is pre-built from the plan's prediction: the method would
  // rebuild it whenever its own count (traditional: the exact candidate
  // count after its filter) asks for a finer one, and brute force needs
  // none. Each method makes the query's one `Prepared` build itself.
  std::vector<PointId> ids = Execute(pinned, plan, area, ctx);

  ctx.stats.plan_method |= MethodBit(plan.method);
  ctx.stats.plan_reason |= plan.reason;
  if (caching) ctx.stats.result_cache_misses = 1;
  planner_.Observe(plan, pinned.features, ctx.stats);
  // Degraded-partial answers (failed shard legs under `allow_partial`)
  // must not be cached: a later hit would replay the subset as the truth.
  if (caching && ctx.stats.degraded == 0) {
    cache_.Insert(key, ids);
  }
  return ids;
}

}  // namespace vaq
