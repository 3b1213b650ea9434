#include "planner/cost_model.h"

#include <algorithm>
#include <cmath>

namespace vaq {

double CostModel::ExpectedCandidates(DynamicMethod m,
                                     const PlanFeatures& f) const {
  const double n = static_cast<double>(f.n);
  switch (m) {
    case DynamicMethod::kVoronoi: {
      // The flood visits the interior plus a perimeter shell of rejected
      // neighbours; on uniform data the shell scales with the boundary
      // length, i.e. with sqrt(interior).
      const double interior = n * f.poly_share;
      return interior + shell_coeff * std::sqrt(std::max(0.0, interior));
    }
    case DynamicMethod::kTraditional:
      // Window filter: everything inside the query MBR becomes a
      // candidate for the refine step.
      return n * f.mbr_share;
    case DynamicMethod::kBruteForce:
      return n;
  }
  return n;
}

double CostModel::IoNsPerLoad(const PlanFeatures& f) const {
  return f.io_ns_per_load + (f.paged ? paged_load_ns : 0.0);
}

double CostModel::EstimateCostNs(DynamicMethod m, const PlanFeatures& f,
                                 double candidates) const {
  const MethodCost& c = m == DynamicMethod::kVoronoi       ? voronoi
                        : m == DynamicMethod::kTraditional ? traditional
                                                           : brute;
  // Brute force scans point coordinates without touching geometry
  // storage per candidate in the simulated-IO sense only when the data
  // is in memory; on IO-charged backends every tested point pays a load
  // like any other method's candidate.
  return c.fixed_ns + candidates * (c.cpu_ns + IoNsPerLoad(f));
}

}  // namespace vaq
