#ifndef VAQ_PLANNER_QUERY_PLANNER_H_
#define VAQ_PLANNER_QUERY_PLANNER_H_

#include <cstdint>
#include <mutex>

#include "core/method.h"
#include "core/query_stats.h"
#include "planner/cost_model.h"
#include "planner/query_plan.h"

namespace vaq {

/// Selectivity buckets of the planner's online state: bucket b covers
/// mbr_share in (2^-(b+1), 2^-b], i.e. b = floor(-log2(share)), clamped.
/// Eight buckets span 100% down to <1% selectivity — the committed
/// baseline grid and the paper's Table I/II range.
inline constexpr int kNumSelectivityBuckets = 8;

/// Cost-model-driven method and fanout choice, updated online.
///
/// `Plan` scores every method with the static `CostModel` (seeded from
/// the committed BENCH baselines) *multiplied by* learned per-slot
/// correction factors, and picks the cheapest. A slot is one
/// (io-class, method, selectivity-bucket) cell holding two EWMAs:
///
///  - `cand_factor`: measured candidates / predicted candidates. Fixes
///    the model's density assumptions (clustered data, concave
///    polygons) where the closed-form candidate estimate drifts.
///  - `time_factor`: measured wall time / predicted wall time (the
///    prediction already corrected by `cand_factor`). Fixes the
///    per-candidate cost constants for the actual machine and backend.
///
/// Only the *chosen* method's slot updates per query (the planner never
/// runs the losers), so learning is greedy: a slot re-centres within
/// ~1/alpha of its *own* observations, and factors are clamped to
/// [1/8, 8] so one anomalous query (page-cache cold start, scheduler
/// hiccup) moves a factor at most that far. Unchosen slots are never
/// re-measured: a slot whose factor was inflated keeps it, and if that
/// makes the planner stop picking it, it stays unpicked. There is no
/// exploration of runners-up.
///
/// Thread-safe; `Plan` and `Observe` take one short-lived mutex.
class QueryPlanner {
 public:
  explicit QueryPlanner(const CostModel& seed = CostModel{})
      : model_(seed) {}

  /// Maps an area share in [0, 1] to its bucket.
  static int SelectivityBucket(double share);

  /// Produces the plan for one query: method (or `hints.force_method`),
  /// reason bits, sharded fanout call, prepared-kernel sizing, and the
  /// predictions `Observe` will be compared against.
  QueryPlan Plan(const PlanFeatures& f, const PlanHints& hints) const;

  /// Feeds one measured execution back into the chosen slot's EWMAs.
  /// Call only for real executions (never for cache hits — nothing ran)
  /// and only with stats produced by `plan`'s method.
  void Observe(const QueryPlan& plan, const PlanFeatures& f,
               const QueryStats& stats);

  /// Introspection (tests, bench reporting).
  double TimeFactor(DynamicMethod m, int bucket, bool io_bound) const;
  double CandFactor(DynamicMethod m, int bucket, bool io_bound) const;
  std::uint64_t observations() const;
  const CostModel& model() const { return model_; }

 private:
  struct Slot {
    double time_factor = 1.0;
    double cand_factor = 1.0;
    std::uint64_t seen = 0;
  };

  const Slot& SlotFor(DynamicMethod m, int bucket, bool io_bound) const {
    return slots_[io_bound ? 1 : 0][static_cast<int>(m)][bucket];
  }

  CostModel model_;
  mutable std::mutex mu_;
  /// [io-class][method][bucket]; plain seed state = all factors 1.
  Slot slots_[2][kNumDynamicMethods][kNumSelectivityBuckets];
  std::uint64_t observations_ = 0;
};

}  // namespace vaq

#endif  // VAQ_PLANNER_QUERY_PLANNER_H_
