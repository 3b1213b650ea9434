#ifndef VAQ_PLANNER_QUERY_PLANNER_H_
#define VAQ_PLANNER_QUERY_PLANNER_H_

#include "planner/cost_model.h"
#include "planner/query_plan.h"

namespace vaq {

/// Cost-model-driven method and fanout choice: a pure function of the
/// query's `PlanFeatures` and the caller's `PlanHints`.
///
/// Unforced, `Plan` scores only the two arms of the paper's crossover,
/// `kVoronoi` and `kTraditional`, with the static `CostModel` and takes
/// the cheaper one: per-candidate IO favours the Voronoi method's smaller
/// candidate set, per-candidate CPU the traditional filter-refine path.
/// Grid sweep and brute force run only when forced (CLI, tests, Table
/// benches). Nothing is learned from executions: a model that only the
/// chosen arm could correct locked onto losers, and the seed already
/// lands on the right side of the crossover in every measured cell.
///
/// Holds only the seed `CostModel`, so concurrent `Plan` calls need no
/// lock.
class QueryPlanner {
 public:
  /// Produces the plan for one query: method (or `hints.force_method`),
  /// reason bits, sharded fanout call and the chosen method's predicted
  /// candidates and cost.
  QueryPlan Plan(const PlanFeatures& f, const PlanHints& hints) const;

 private:
  CostModel model_;
};

}  // namespace vaq

#endif  // VAQ_PLANNER_QUERY_PLANNER_H_
