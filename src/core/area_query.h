#ifndef VAQ_CORE_AREA_QUERY_H_
#define VAQ_CORE_AREA_QUERY_H_

#include <string_view>
#include <vector>

#include "core/query_context.h"
#include "core/query_stats.h"
#include "geometry/polygon.h"

namespace vaq {

/// Interface of an area-query implementation: given a simple query polygon
/// `area`, return the ids of every database point contained in it.
///
/// Implementations are stateless: all per-execution scratch (visited set,
/// candidate queues, stats) lives in the caller-provided `QueryContext`, so
/// one query object can serve any number of threads concurrently as long as
/// each thread brings its own context (the `QueryEngine` does exactly
/// that).
///
/// Implementations:
///  * `TraditionalAreaQuery` — filter (window query on MBR) + refine;
///  * `VoronoiAreaQuery`     — the paper's incremental candidate generation
///                             over the Voronoi/Delaunay graph (Algorithm 1),
///                             in both expansion-rule modes;
///  * `BruteForceAreaQuery`  — linear scan, ground truth for tests.
class AreaQuery {
 public:
  virtual ~AreaQuery() = default;

  /// Executes the query using `ctx` for all mutable scratch. The returned
  /// ids are sorted ascending (so result sets compare directly across
  /// implementations). `ctx.stats` is reset and filled with this
  /// execution's counters.
  virtual std::vector<PointId> Run(const Polygon& area,
                                   QueryContext& ctx) const = 0;

  /// Single-threaded convenience wrapper: runs against a per-thread
  /// context owned by the library. If `stats` is non-null it receives the
  /// execution's counters. Safe to call from several threads at once (each
  /// gets its own context), but reuses no scratch across query objects in
  /// different translation units — engines should prefer the explicit
  /// context overload.
  std::vector<PointId> Run(const Polygon& area,
                           QueryStats* stats = nullptr) const;

  /// Implementation name for benchmark tables.
  virtual std::string_view Name() const = 0;
};

}  // namespace vaq

#endif  // VAQ_CORE_AREA_QUERY_H_
