#ifndef VAQ_PLANNER_QUERY_PLAN_H_
#define VAQ_PLANNER_QUERY_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/method.h"

namespace vaq {

/// Why the planner chose what it chose, as OR-able bits recorded in
/// `QueryStats::plan_reason` (merged across sharded legs / engine totals
/// by OR, like `kernel_kind`). A plan usually carries several bits —
/// e.g. kSeedModel | kIoBound | kScatter.
namespace plan_reason {
/// The plan was scored by the static cost model seeded off the committed
/// BENCH baselines (every plan carries it).
inline constexpr std::uint64_t kSeedModel = 1u << 0;
/// Never set: the planner learns nothing; kept so readers of the bit read 0.
inline constexpr std::uint64_t kLearnedModel = 1u << 1;
/// The caller forced the method via `PlanHints::force_method`.
inline constexpr std::uint64_t kForced = 1u << 2;
/// Every leg's base pass was served from the result cache; only the
/// per-snapshot finish (tombstones, delta scan) ran.
inline constexpr std::uint64_t kCacheHit = 1u << 3;
/// Per-candidate IO dominates per-candidate CPU (simulated fetch or
/// paged backend), the regime where the Voronoi method's smaller
/// candidate set wins (the paper's crossover).
inline constexpr std::uint64_t kIoBound = 1u << 4;
/// Sharded only: the plan fans surviving shards onto the scatter engine.
inline constexpr std::uint64_t kScatter = 1u << 6;
/// Sharded only: the plan runs surviving shards inline (fan-out would
/// cost more than it overlaps).
inline constexpr std::uint64_t kInline = 1u << 7;
}  // namespace plan_reason

/// Caller-side knobs of one planned query (`PlannedAreaQuery::RunPlanned`,
/// `DynamicPointDatabase::Query`, `ShardedDatabase::Query`). Defaults =
/// fully automatic.
struct PlanHints {
  /// Bypass the cost model and run this method (the plan still carries
  /// reason bits, records stats, and uses the result cache).
  std::optional<DynamicMethod> force_method;
  /// Consult/fill the result cache of base passes. Disable for one-shot
  /// polygons that would only evict hotter entries.
  bool use_cache = true;
  /// Sharded only: allow fanning legs onto the scatter engine. Disable to
  /// pin the query inline regardless of the cost model's fanout call.
  bool allow_scatter = true;
};

/// What the planner decided for one query, plus the predictions the
/// decision was based on (reported by the CLI and benches next to the
/// measured `QueryStats`).
struct QueryPlan {
  DynamicMethod method = DynamicMethod::kTraditional;
  /// OR of `plan_reason::*` bits explaining the choice.
  std::uint64_t reason = 0;
  /// Sharded fanout call: scatter surviving shards onto the engine
  /// (true) or run them inline (false). Meaningless for unsharded plans.
  bool scatter = false;
  /// The predicted number of point-in-polygon tests (the chosen method's
  /// predicted candidates, clamped to the live size): the count a caller
  /// that prepares the polygon *before* executing sizes its grid with
  /// (`PreparedArea::SuggestGridSide`). Execution itself does not use it —
  /// each method sizes its one build from its own count.
  std::size_t expected_tests = 0;
  /// The model's predictions for the chosen method.
  double predicted_cost_ns = 0.0;
  double predicted_candidates = 0.0;
};

}  // namespace vaq

#endif  // VAQ_PLANNER_QUERY_PLAN_H_
