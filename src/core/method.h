#ifndef VAQ_CORE_METHOD_H_
#define VAQ_CORE_METHOD_H_

#include <cstdint>
#include <string_view>

namespace vaq {

/// The three area-query strategies the library implements. Used to select
/// which base implementation the executor (`RunShardedSnapshotQuery`,
/// `RunDynamicSnapshotQuery`) runs over each pinned view, which method a
/// caller forces through `PlanHints::force_method`, and which execution
/// the cost model picked for an `auto` query.
///
/// Lives in its own header (not `dynamic_point_database.h`, its original
/// home) because the planner layer needs the enum without pulling in the
/// whole dynamic-database machinery, and the database headers in turn
/// reference planner types.
///
/// The values are fixed because they travel: a request's force-method
/// byte and the `1 << method` bits of `QueryStats::plan_method` carry
/// them. Value 2 is retired (it named a grid-sweep method, since
/// deleted) and is never reused: the wire rejects it, and
/// `plan_method`'s bit 2 stays 0.
enum class DynamicMethod {
  kVoronoi = 0,
  kTraditional = 1,
  kBruteForce = 3,
};

/// One past the largest `DynamicMethod` value; bounds the wire's
/// force-method byte and the `1 << method` bits of
/// `QueryStats::plan_method`.
inline constexpr int kNumDynamicMethods = 4;

/// Stable lowercase name of `m` for logs, JSON rows and CLI output.
constexpr std::string_view MethodName(DynamicMethod m) {
  switch (m) {
    case DynamicMethod::kVoronoi:
      return "voronoi";
    case DynamicMethod::kTraditional:
      return "traditional";
    case DynamicMethod::kBruteForce:
      break;
  }
  return "brute";
}

/// The `QueryStats::plan_method` bit recording that `m` executed. A mask
/// (like `kernel_kind`), so sharded legs and engine aggregation merge by
/// OR and every method that participated stays visible.
constexpr std::uint64_t MethodBit(DynamicMethod m) {
  return std::uint64_t{1} << static_cast<int>(m);
}

}  // namespace vaq

#endif  // VAQ_CORE_METHOD_H_
