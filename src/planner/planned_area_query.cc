#include "planner/planned_area_query.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/point_database.h"
#include "storage/page_store.h"

namespace vaq {

/// One planning round's pinned state: the features the plan is computed
/// from, and the exact snapshot both the cache key and the execution use
/// — pinning once is what makes the cached answer provably equal to the
/// executed one (no mutation can slip between key and run).
struct PlannedAreaQuery::Pinned {
  PlanFeatures features;
  std::shared_ptr<const ShardedDatabase::Snapshot> snap;
};

PlannedAreaQuery::PlannedAreaQuery(Pinner pin, QueryEngine* scatter_engine)
    : pin_(std::move(pin)), scatter_engine_(scatter_engine) {}

PlannedAreaQuery::Pinned PlannedAreaQuery::Pin(const Polygon& area) const {
  Pinned pinned{PlanFeatures{}, pin_()};
  PlanFeatures& f = pinned.features;
  const std::vector<ShardedDatabase::ShardView>& views =
      pinned.snap->shards();
  // The union of the view MBRs is the domain proxy (a single view's MBR
  // is its base bounds); delta inserts can drift outside it, but the
  // shares only steer cost estimates and the EWMAs absorb systematic
  // drift. A degenerate domain (empty database, zero-area bounds)
  // reports full shares — n is tiny there and every method costs its
  // fixed overhead.
  Box domain;
  for (const ShardedDatabase::ShardView& v : views) {
    f.n += v.snap->live_size();
    domain.ExpandToInclude(v.mbr);
  }
  const double domain_area = domain.Area();
  f.mbr_share = domain_area > 0.0
                    ? std::min(1.0, area.Bounds().Area() / domain_area)
                    : 1.0;
  f.poly_share =
      domain_area > 0.0 ? std::min(1.0, area.Area() / domain_area) : 1.0;
  const PointDatabase& base = views.front().snap->base();
  f.io_ns_per_load = base.simulated_fetch_ns();
  f.paged = base.storage_backend() != StorageBackend::kInMemory;
  f.num_shards = views.size();
  return pinned;
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
  const bool caching = hints.use_cache;

  ResultCache::Key key;
  if (caching) {
    key = ResultCache::Key{pinned.snap->version(), HashPolygonBits(area)};
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
  std::vector<PointId> ids = RunShardedSnapshotQuery(
      *pinned.snap, plan.method, area, ctx,
      plan.scatter ? scatter_engine_ : nullptr);

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
