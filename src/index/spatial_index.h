#ifndef VAQ_INDEX_SPATIAL_INDEX_H_
#define VAQ_INDEX_SPATIAL_INDEX_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"

namespace vaq {

class PreparedArea;

/// Counters that approximate the IO behaviour of a disk-resident index:
/// every visited index node counts as one page access, every reported entry
/// as one object fetch. The paper's framing of area queries as IO-intensive
/// makes these the fairest cost proxy alongside wall-clock time.
///
/// Accounting is per call: pass an `IndexStats*` to a query operation and
/// it is incremented (not reset) by that operation. Keeping the counters
/// caller-owned — rather than a mutable member of the index — is what lets
/// one index instance serve concurrent queries without a data race; each
/// `QueryContext` carries its own instance.
struct IndexStats {
  std::uint64_t node_accesses = 0;
  std::uint64_t entries_reported = 0;
  /// Of `entries_reported`, how many were emitted by bulk-accepting a
  /// subtree whose MBR lies fully inside a query polygon (`PolygonQuery`)
  /// — no per-point geometry test was run on them.
  std::uint64_t bulk_accepted = 0;

  void Reset() { *this = IndexStats{}; }
};

/// Abstract interface shared by every point index in `src/index/`.
///
/// The paper's two area-query implementations consume exactly two
/// operations from this interface: `WindowQuery` (the traditional filter)
/// and `NearestNeighbor` (the Voronoi method's seed lookup). The other
/// operations round out the library and power the ablation benchmarks.
/// `PointDatabase` serves both from `HilbertRTree`, which pins down what
/// the interface leaves open: ascending output and smallest-id ties.
///
/// All query operations are const and touch no shared mutable state, so a
/// built index may be queried from any number of threads concurrently.
/// `Build`/insert operations are not thread-safe against queries.
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  /// Bulk-loads the index from `points`; ids are assigned as positions in
  /// the span. Replaces any previous content.
  virtual void Build(std::span<const Point> points) = 0;

  /// Number of indexed points.
  virtual std::size_t size() const = 0;

  /// Appends the ids of all points inside `window` (borders inclusive)
  /// to `out`, in unspecified order. If `stats` is non-null, the call's IO
  /// counters are added to it.
  virtual void WindowQuery(const Box& window, std::vector<PointId>* out,
                           IndexStats* stats = nullptr) const = 0;

  /// Polygon-aware filter+refine in one traversal: appends the ids of all
  /// points inside the prepared query polygon (boundary inclusive, exactly
  /// `Polygon::Contains` semantics) to `out`, in unspecified order.
  ///
  /// Implementations classify each subtree/cell MBR against the polygon:
  /// *outside* subtrees are pruned without descending (the window query
  /// would have visited those inside MBR(A) \ A), *inside* subtrees are
  /// bulk-accepted with no per-point validation (`stats->bulk_accepted`),
  /// and only *straddling* leaves run the O(1)/O(log m) prepared point
  /// test. `area` must be prepared over the query polygon.
  virtual void PolygonQuery(const PreparedArea& area,
                            std::vector<PointId>* out,
                            IndexStats* stats = nullptr) const = 0;

  /// Returns the id of the point closest to `q`, or `kInvalidPointId` if
  /// the index is empty. Which of several equidistant points wins is up to
  /// the implementation: `HilbertRTree` returns the smallest id, the
  /// ablation indexes whichever their queue yields first.
  virtual PointId NearestNeighbor(const Point& q,
                                  IndexStats* stats = nullptr) const = 0;

  /// Appends the ids of the `k` points closest to `q` to `out`, ordered by
  /// increasing distance (by id among equidistant points, in
  /// `HilbertRTree`). Returns fewer if the index holds fewer points.
  virtual void KNearestNeighbors(const Point& q, std::size_t k,
                                 std::vector<PointId>* out,
                                 IndexStats* stats = nullptr) const = 0;

  /// Human-readable index name for benchmark tables.
  virtual std::string_view Name() const = 0;
};

}  // namespace vaq

#endif  // VAQ_INDEX_SPATIAL_INDEX_H_
