#include "shard/sharded_area_query.h"

#include <chrono>
#include <exception>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "core/dynamic_area_query.h"
#include "geometry/prepared_area.h"
#include "planner/result_cache.h"

namespace vaq {

namespace {

/// A query's result cache as its legs see it.
struct LegCache {
  ResultCache* cache = nullptr;
  std::uint64_t polygon_hash = 0;
  /// The query's second-hit admission verdict, taken before any leg runs.
  bool admit = false;
};

/// One leg: the method against one pinned view, ascending in the view's
/// stable ids, with hits remapped to global stable ids when the view has
/// an id map (which the gather then sorts). With a cache, a leg whose
/// `LookUp` hit skips the base pass and finishes a copy of the cached
/// ids — already in stable-id order, so a hit costs O(answer + delta); a
/// leg that missed runs the base pass, orders it by stable id and offers
/// it before the finish filters it in place. A leg that throws in its
/// base pass offers nothing; a completed base pass is exact whatever
/// happens after it.
///
/// Internal to the executor, run inline or as a `QueryEngine::SubmitWith`
/// task: with an id map it breaks the sorted-ids contract of `AreaQuery`.
class ShardLegQuery final : public AreaQuery {
 public:
  ShardLegQuery(const ShardedDatabase::ShardView* view, DynamicMethod method,
                const LegCache* cache)
      : view_(view), method_(method), cache_(cache) {}

  /// Fetches this leg's cached base pass; returns whether it hit.
  bool LookUp() {
    cached_ = cache_->cache->Lookup(Key());
    return cached_ != nullptr;
  }

  std::vector<PointId> Run(const Polygon& area,
                           QueryContext& ctx) const override {
    const DynamicPointDatabase::Snapshot& snap = *view_->snap;
    std::vector<PointId> ids;
    if (cached_ != nullptr) {
      // The base pass does not run: its work counters stay 0, and the
      // finish below charges only the delta scan.
      ctx.stats.Reset();
      ctx.stats.result_cache_hits = 1;
      ids = *cached_;
    } else {
      // The base implementation resets and fills ctx.stats.
      ids = snap.BaseQuery(method_).Run(area, ctx);
      OrderBasePassByStableId(snap, ids, ctx);
      if (cache_ != nullptr) {
        ctx.stats.result_cache_misses = 1;
        cache_->cache->Insert(Key(), ids, cache_->admit);
      }
    }
    FinishDynamicSnapshotLeg(snap, method_, area, ids, ctx);
    if (view_->ids != nullptr) {
      for (PointId& id : ids) id = view_->ids->Global(id);
    }
    return ids;
  }

  std::string_view Name() const override { return "shard-leg"; }

 private:
  ResultCache::Key Key() const {
    return {view_->snap->base_generation(), cache_->polygon_hash};
  }

  const ShardedDatabase::ShardView* view_;
  DynamicMethod method_;
  const LegCache* cache_;
  std::shared_ptr<const std::vector<PointId>> cached_;
};

}  // namespace

std::vector<PointId> RunShardedSnapshotQuery(
    const ShardedDatabase::Snapshot& snap, DynamicMethod method,
    const Polygon& area, QueryContext& ctx, QueryEngine* scatter_engine,
    ResultCache* cache, std::uint64_t polygon_hash) {
  const auto t0 = std::chrono::steady_clock::now();

  // Prune: O(1) conservative box test per shard. Empty shards are counted
  // as pruned too (their MBR may be stale-empty or missing). A single
  // view always runs: pruning it would save at most an empty answer and
  // cost a polygon build its method would not reuse.
  const std::vector<ShardedDatabase::ShardView>& views = snap.shards();
  LegCache cache_state{cache, polygon_hash};
  const LegCache* leg_cache = cache != nullptr ? &cache_state : nullptr;
  std::vector<ShardLegQuery> legs;
  legs.reserve(views.size());
  std::uint64_t pruned = 0;
  if (views.size() == 1) {
    legs.emplace_back(&views.front(), method, leg_cache);
  } else {
    const PreparedArea& prep = ctx.Prepared(area);
    for (const ShardedDatabase::ShardView& view : views) {
      if (view.snap->live_size() == 0 ||
          prep.ClassifyBox(view.mbr) == PreparedArea::Region::kOutside) {
        ++pruned;
      } else {
        legs.emplace_back(&view, method, leg_cache);
      }
    }
  }

  // Cache lookups, one per surviving leg, all before any leg runs: the
  // admission verdict is taken once per query, and only when some leg
  // will offer, so a first-seen polygon is declined on every leg.
  if (leg_cache != nullptr) {
    bool any_miss = false;
    for (ShardLegQuery& leg : legs) any_miss |= !leg.LookUp();
    if (any_miss) cache_state.admit = cache->Admit(polygon_hash);
  }

  // Scatter + gather. Per-leg stats merge by summation — `QueryStats`
  // counters are all additive, so the epilogue invariant survives. Any
  // leg failure fails the whole query: the answer is exact or a typed
  // error, never a subset of the truth.
  QueryStats merged;
  std::vector<PointId> result;
  const auto Gather = [&](std::vector<PointId> ids, const QueryStats& stats) {
    merged += stats;
    if (result.empty()) {
      result = std::move(ids);
    } else {
      result.insert(result.end(), ids.begin(), ids.end());
    }
  };

  // Self-submission guard: if this query is itself executing on a worker
  // of its scatter engine (it was registered with the same pool — the
  // documented deadlock configuration), scattering would block this
  // worker on legs that may only ever be queued behind more blocked
  // parents. Degrade to inline legs instead of hanging.
  const bool scatter = scatter_engine != nullptr && legs.size() > 1 &&
                       !scatter_engine->OnWorkerThread();
  std::exception_ptr first_error;
  if (scatter) {
    // Every submitted leg must be drained before this frame can unwind:
    // the pool executes legs through pointers into `legs`, the leg
    // tokens (parented to the token on `ctx`) and the pinned snapshot,
    // so propagating an exception with futures outstanding would turn
    // the remaining queued legs into use-after-frees. Keep the first
    // error, drain, then decide.
    const CancelToken* parent = ctx.cancel();
    std::vector<std::future<QueryResult>> futures;
    futures.reserve(legs.size());
    for (ShardLegQuery& leg : legs) {
      // A leg polls a child of the parent's token, so cancelling the
      // parent aborts every leg at its next block boundary.
      std::shared_ptr<CancelToken> token;
      if (parent != nullptr) {
        token = std::make_shared<CancelToken>();
        token->set_parent(parent);
      }
      try {
        futures.push_back(scatter_engine->SubmitWith(&leg, area, token));
      } catch (...) {
        // Submit no further legs (the engine is stopping or shedding);
        // the in-flight legs are drained below.
        first_error = std::current_exception();
        break;
      }
    }
    for (std::future<QueryResult>& future : futures) {
      try {
        QueryResult r = future.get();
        Gather(std::move(r.ids), r.stats);
      } catch (...) {
        if (first_error == nullptr) first_error = std::current_exception();
      }
    }
  } else {
    // Inline legs poll the parent token already installed on `ctx`; the
    // first leg error propagates from here.
    for (const ShardLegQuery& leg : legs) Gather(leg.Run(area, ctx), ctx.stats);
  }

  // The parent expiring aborts the query with `QueryAbortedError` rather
  // than with whichever leg error it caused. Checked only after every leg
  // is drained.
  ctx.CheckCancelled();
  if (first_error != nullptr) std::rethrow_exception(first_error);

  // Every leg's hits ascend in its view's stable ids, so the single view
  // of an unsharded database is already sorted. Global ids of K views
  // interleave: one sort over the merged, disjoint sets.
  if (views.size() > 1 || views.front().ids != nullptr) {
    ctx.SortIds(result, snap.stable_limit());
  }
  merged.shards_hit = legs.size();
  merged.shards_pruned = pruned;
  merged.results = result.size();
  merged.elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  ctx.stats = merged;
  return result;
}

}  // namespace vaq
