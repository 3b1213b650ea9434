#include "planner/query_planner.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace vaq {

namespace {

/// EWMA smoothing: one observation moves a factor 25% of the way to the
/// measured ratio, so a slot re-centres in ~4 of its own observations
/// (only chosen slots observe) and a single outlier moves it at most a
/// quarter of the way to the [1/8, 8] ratio clamp.
constexpr double kAlpha = 0.25;
/// Per-observation ratio clamp: a cold page cache or a scheduler stall
/// can inflate one query 100x; letting that through would freeze the
/// slot against its clamp for many queries.
constexpr double kRatioFloor = 0.125;
constexpr double kRatioCeil = 8.0;

/// Per-candidate IO above this marks the query IO-bound: the crossover
/// study's simulated-disk rows start at 1000ns/fetch, and even the
/// cheapest per-candidate CPU (brute, ~3.5ns) is far below 100ns.
constexpr double kIoBoundNs = 100.0;

double Clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

}  // namespace

int QueryPlanner::SelectivityBucket(double share) {
  if (!(share > 0.0)) return kNumSelectivityBuckets - 1;
  if (share >= 1.0) return 0;
  const int b = static_cast<int>(std::floor(-std::log2(share)));
  return std::min(b, kNumSelectivityBuckets - 1);
}

QueryPlan QueryPlanner::Plan(const PlanFeatures& f,
                             const PlanHints& hints) const {
  QueryPlan plan;
  plan.bucket = SelectivityBucket(f.mbr_share);
  plan.io_bound = model_.IoNsPerLoad(f) >= kIoBoundNs;

  std::lock_guard<std::mutex> lock(mu_);
  const int io = plan.io_bound ? 1 : 0;
  bool have = false;
  bool learned = false;
  DynamicMethod best = DynamicMethod::kTraditional;
  double best_cost = 0.0;
  double best_cand = 0.0;
  for (int i = 0; i < kNumDynamicMethods; ++i) {
    const DynamicMethod m = static_cast<DynamicMethod>(i);
    if (hints.force_method.has_value() && m != *hints.force_method) continue;
    const Slot& slot = slots_[io][i][plan.bucket];
    const double cand =
        model_.ExpectedCandidates(m, f) * slot.cand_factor;
    const double cost =
        model_.EstimateCostNs(m, f, cand) * slot.time_factor;
    if (!have || cost < best_cost) {
      have = true;
      best = m;
      best_cost = cost;
      best_cand = cand;
      learned = slot.seen > 0;
    }
  }
  plan.method = best;
  plan.predicted_cost_ns = best_cost;
  plan.predicted_candidates = best_cand;
  plan.expected_tests = static_cast<std::size_t>(
      Clamp(best_cand, 0.0, static_cast<double>(f.n)));

  plan.reason |= learned ? plan_reason::kLearnedModel
                         : plan_reason::kSeedModel;
  if (hints.force_method.has_value()) plan.reason |= plan_reason::kForced;
  if (plan.io_bound) plan.reason |= plan_reason::kIoBound;
  if (plan.method == DynamicMethod::kBruteForce &&
      !hints.force_method.has_value()) {
    plan.reason |= plan_reason::kTinyData;
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
    const Slot& slot = slots_[io][static_cast<int>(best)][plan.bucket];
    const double leg_cand =
        model_.ExpectedCandidates(best, leg) * slot.cand_factor / survivors;
    const double leg_cost =
        model_.EstimateCostNs(best, leg, leg_cand) * slot.time_factor;
    plan.scatter = hints.allow_scatter && survivors >= 2.0 &&
                   leg_cost > model_.scatter_overhead_ns;
    plan.reason |=
        plan.scatter ? plan_reason::kScatter : plan_reason::kInline;
  }
  return plan;
}

void QueryPlanner::Observe(const QueryPlan& plan, const PlanFeatures& /*f*/,
                           const QueryStats& stats) {
  const double measured_ns = stats.elapsed_ms * 1e6;
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[plan.io_bound ? 1 : 0][static_cast<int>(plan.method)]
                     [plan.bucket];
  const auto Update = [first = slot.seen == 0](double& factor,
                                               double ratio) {
    ratio = Clamp(ratio, kRatioFloor, kRatioCeil);
    factor = first ? ratio : factor + kAlpha * (ratio - factor);
    factor = Clamp(factor, kRatioFloor, kRatioCeil);
  };
  if (plan.predicted_candidates > 0.0 && stats.candidates > 0) {
    // Correction relative to the *model's* estimate, not the corrected
    // one: cand_factor already multiplied the prediction, so divide it
    // back out to keep the EWMA a fixed-point of the raw model.
    const double raw = plan.predicted_candidates / slot.cand_factor;
    Update(slot.cand_factor,
           static_cast<double>(stats.candidates) / raw);
  }
  if (plan.predicted_cost_ns > 0.0 && measured_ns > 0.0) {
    const double raw = plan.predicted_cost_ns / slot.time_factor;
    Update(slot.time_factor, measured_ns / raw);
  }
  ++slot.seen;
  ++observations_;
}

double QueryPlanner::TimeFactor(DynamicMethod m, int bucket,
                                bool io_bound) const {
  std::lock_guard<std::mutex> lock(mu_);
  return SlotFor(m, bucket, io_bound).time_factor;
}

double QueryPlanner::CandFactor(DynamicMethod m, int bucket,
                                bool io_bound) const {
  std::lock_guard<std::mutex> lock(mu_);
  return SlotFor(m, bucket, io_bound).cand_factor;
}

std::uint64_t QueryPlanner::observations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return observations_;
}

}  // namespace vaq
