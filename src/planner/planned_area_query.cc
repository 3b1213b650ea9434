#include "planner/planned_area_query.h"

#include <algorithm>
#include <utility>

#include "core/point_database.h"
#include "storage/page_store.h"

namespace vaq {

/// One planning round's pinned state: the features the plan is computed
/// from, and the exact snapshot the execution runs on — the planned
/// live size and the answer come from one version.
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
  // drift scales both shares alike and leaves their ratio, which with
  // the per-load IO decides the method for all but tiny queries. A
  // degenerate domain (empty database, zero-area bounds) reports full
  // shares — n is tiny there and every method costs its fixed overhead.
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
  // engine-routed traffic plans and caches exactly like a direct
  // `RunPlanned` call instead of bypassing the planner.
  const PlanHints* hints = ctx.plan_hints();
  return RunPlanned(area, ctx, hints != nullptr ? *hints : PlanHints{});
}

std::vector<PointId> PlannedAreaQuery::RunPlanned(
    const Polygon& area, QueryContext& ctx, const PlanHints& hints) const {
  const Pinned pinned = Pin(area);
  const QueryPlan plan = planner_.Plan(pinned.features, hints);
  const bool caching = hints.use_cache;

  // No grid is pre-built from the plan's prediction: the method would
  // rebuild it whenever its own count (traditional: the exact candidate
  // count after its filter) asks for a finer one, and brute force needs
  // none. Each method makes the query's one `Prepared` build itself.
  // The executor serves each leg's base pass from the cache when it can.
  std::vector<PointId> ids = RunShardedSnapshotQuery(
      *pinned.snap, plan.method, area, ctx,
      plan.scatter ? scatter_engine_ : nullptr, caching ? &cache_ : nullptr,
      caching ? HashPolygonBits(area) : 0);

  // The executor counts cache outcomes per leg; the query is one hit when
  // every leg that ran hit, and one miss otherwise.
  const bool hit = ctx.stats.result_cache_hits > 0 &&
                   ctx.stats.result_cache_misses == 0;
  ctx.stats.result_cache_hits = hit ? 1 : 0;
  ctx.stats.result_cache_misses = caching && !hit ? 1 : 0;
  ctx.stats.plan_method |= MethodBit(plan.method);
  ctx.stats.plan_reason |= plan.reason | (hit ? plan_reason::kCacheHit : 0);
  return ids;
}

}  // namespace vaq
