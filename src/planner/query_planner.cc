#include "planner/query_planner.h"

#include <algorithm>
#include <cstddef>

namespace vaq {

namespace {

/// Per-candidate IO above this marks the query IO-bound: the crossover
/// study's simulated-disk rows start at 1000ns/fetch, and every method's
/// per-candidate CPU seed is well below 100ns.
constexpr double kIoBoundNs = 100.0;

double Clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

}  // namespace

QueryPlan QueryPlanner::Plan(const PlanFeatures& f,
                             const PlanHints& hints) const {
  QueryPlan plan;
  const auto cost = [&](DynamicMethod m) {
    return model_.EstimateCostNs(m, f, model_.ExpectedCandidates(m, f));
  };
  // Ties go to Voronoi.
  plan.method = hints.force_method.value_or(
      cost(DynamicMethod::kTraditional) < cost(DynamicMethod::kVoronoi)
          ? DynamicMethod::kTraditional
          : DynamicMethod::kVoronoi);
  plan.predicted_candidates = model_.ExpectedCandidates(plan.method, f);
  plan.predicted_cost_ns =
      model_.EstimateCostNs(plan.method, f, plan.predicted_candidates);
  plan.expected_tests = static_cast<std::size_t>(
      Clamp(plan.predicted_candidates, 0.0, static_cast<double>(f.n)));

  plan.reason |= plan_reason::kSeedModel;
  if (hints.force_method.has_value()) plan.reason |= plan_reason::kForced;
  if (model_.IoNsPerLoad(f) >= kIoBoundNs) {
    plan.reason |= plan_reason::kIoBound;
  }

  // Sharded fanout call. Worth scattering only when (a) more than one
  // shard plausibly survives the MBR prune — estimated from the query's
  // MBR share, doubled because compact Hilbert shards tile the domain
  // and a window typically straddles its neighbours — and (b) one leg
  // costs enough to amortise the submit/future overhead. The per-leg
  // estimate reuses the chosen method's cost on a 1/K-sized database.
  if (f.num_shards > 1) {
    const double k = static_cast<double>(f.num_shards);
    const double survivors =
        Clamp(k * std::min(1.0, 2.0 * f.mbr_share), 1.0, k);
    PlanFeatures leg = f;
    leg.n = f.n / f.num_shards;
    leg.num_shards = 1;
    const double leg_cand =
        model_.ExpectedCandidates(plan.method, leg) / survivors;
    const double leg_cost = model_.EstimateCostNs(plan.method, leg, leg_cand);
    plan.scatter = hints.allow_scatter && survivors >= 2.0 &&
                   leg_cost > model_.scatter_overhead_ns;
    plan.reason |=
        plan.scatter ? plan_reason::kScatter : plan_reason::kInline;
  }
  return plan;
}

}  // namespace vaq
