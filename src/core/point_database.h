#ifndef VAQ_CORE_POINT_DATABASE_H_
#define VAQ_CORE_POINT_DATABASE_H_

#include <atomic>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/query_stats.h"
#include "delaunay/triangulation.h"
#include "geometry/box.h"
#include "geometry/point.h"
#include "index/hilbert_rtree.h"
#include "storage/page_store.h"

namespace vaq {

/// Thrown by `PointDatabase` when the input violates the "points are
/// pairwise distinct" precondition. Feeding duplicate generators to the
/// Delaunay builder is undefined input, so the violation is diagnosed at
/// the construction boundary instead of corrupting the triangulation.
/// `first_index`/`second_index` are positions in the constructor's input
/// vector (the caller's frame of reference, before Hilbert relabelling),
/// so a file-driven caller can point at the offending rows.
class DuplicatePointError : public std::invalid_argument {
 public:
  DuplicatePointError(const Point& point, std::size_t first_index,
                      std::size_t second_index);

  const Point& point() const { return point_; }
  std::size_t first_index() const { return first_index_; }
  std::size_t second_index() const { return second_index_; }

 private:
  Point point_;
  std::size_t first_index_;
  std::size_t second_index_;
};

/// The coordinate range every database layer accepts: each coordinate is
/// 0 or has a magnitude in [2^-100, 2^100]. The Delaunay builder's
/// predicates are exact only while no intermediate value overflows or
/// underflows, and this range rules out both:
///  * Magnitude. The data extent is at most 2^101, so the super triangle
///    (1e5 extents out, 1e5 < 2^17) keeps every vertex below 2^121 and
///    every coordinate difference below 2^122. The in-circle determinant
///    and every term of its exact expansion are degree 4 in those
///    differences: below 2^488 times a small constant, far from the
///    2^1024 overflow threshold.
///  * Resolution. A double of magnitude >= 2^-100 is an integer multiple
///    of 2^-152, its smallest possible ulp; the super vertices are
///    multiples of 2^-153 (their centre halves a sum). A correctly
///    rounded sum, difference or product of multiples of q1 and q2 is a
///    multiple of q1 * q2 (or of the common quantum, for sums), so every
///    nonzero difference is at least 2^-153 and every nonzero degree-4
///    term or expansion component is at least 2^-612 — a normal double,
///    never a subnormal that drops bits.
/// NaN and infinities fail the test too.
inline constexpr double kMinCoordinateMagnitude = 0x1p-100;
inline constexpr double kMaxCoordinateMagnitude = 0x1p100;

constexpr bool InCoordinateRange(double c) {
  const double magnitude = c < 0.0 ? -c : c;
  return c == 0.0 || (magnitude >= kMinCoordinateMagnitude &&
                      magnitude <= kMaxCoordinateMagnitude);
}

constexpr bool InCoordinateRange(const Point& p) {
  return InCoordinateRange(p.x) && InCoordinateRange(p.y);
}

/// Enforces the construction preconditions every database layer shares:
/// all coordinates in range (`InCoordinateRange`; `std::invalid_argument`
/// naming the input position otherwise) and points pairwise distinct
/// (`DuplicatePointError` naming both input positions otherwise; with
/// several duplicates, the smallest duplicated point at its two lowest
/// positions). O(n log n). `PointDatabase` runs it at construction; the
/// sharded layer runs it once over the whole input *before* partitioning,
/// so a duplicate pair that would be split across shard boundaries is
/// still reported in the caller's frame of reference.
void CheckFiniteAndDistinct(const std::vector<Point>& points);

/// The "spatial database" of the paper's experiments: a set of distinct
/// points plus the two access structures both query methods share —
/// an implicit Hilbert R-tree (window queries and the seed NN lookup) and
/// the Delaunay triangulation (Voronoi-neighbour links).
///
/// **Hilbert-clustered storage.** Points are relabelled at construction:
/// the stored order (and therefore the `PointId` space every query
/// operates in) is Hilbert-curve order over the data bounding box, so id
/// proximity ≈ spatial proximity. Every structure built on top — the
/// R-tree's id-range leaves, the Delaunay CSR adjacency, the per-query
/// visited bitmap — inherits that locality: a query touching a spatially
/// compact region touches a compact id range, which is what keeps the
/// Voronoi flood's gathers cache-resident. The permutation back to the
/// caller's input order is kept for dataset IO round-trips (`OriginalId`).
///
/// **Geometry lives once.** The resident structures are one coordinate
/// array — the triangulation's, which `points()` views — plus the R-tree's
/// per-level MBR arrays (no ids and no per-point boxes: a subtree is an id
/// range of that array) and the Delaunay fan rows, the only graph a build
/// keeps. `MemoryFootprint()` reports each one's bytes. The in-memory
/// backend serves fetches from that array; a paged backend serves them
/// from its page file, while the array stays resident for the
/// triangulation and the R-tree's straddling-leaf tests. Both Voronoi
/// expansion rules read a neighbour's coordinates off the triangulation
/// without charging a fetch, as they always have.
///
/// `FetchPoint` / `FetchPoints` are the accounting boundary for object
/// IO: every query implementation fetches candidate geometry through
/// them so that `QueryStats::geometry_loads` approximates the
/// object-level IO a disk-resident engine would pay.
class PointDatabase {
 public:
  struct Options {
    /// Skip the O(n) range and O(n log n) pairwise-distinct
    /// enforcement: the caller asserts the points are in range and
    /// distinct. Only for internal rebuild paths that maintain the
    /// invariants themselves (the dynamic layer's compaction); external
    /// construction should keep the checks.
    bool skip_distinctness_check = false;
    /// What backs the object-fetch boundary (`FetchPoint`/`FetchPoints`).
    /// The default in-memory backend reads the resident point array; the
    /// mmap backends spill the Hilbert-ordered coordinates to a page
    /// file at construction and serve every fetch through an explicit
    /// LRU page cache (see `PageStore` and DESIGN.md §10). The index and
    /// Delaunay structures stay resident either way — the paper's
    /// regime, where object *geometry* lives on secondary storage.
    StorageOptions storage;
  };

  /// Builds the database: Hilbert-relabels the points, triangulates and
  /// builds the R-tree's MBR levels over the triangulation's array.
  /// The points must be in range (`InCoordinateRange`) and pairwise
  /// distinct; a duplicate pair raises `DuplicatePointError` naming both
  /// input positions and a non-finite or out-of-range coordinate raises
  /// `std::invalid_argument` (the preconditions are enforced, not
  /// assumed).
  explicit PointDatabase(std::vector<Point> points)
      : PointDatabase(std::move(points), Options{}) {}
  PointDatabase(std::vector<Point> points, Options options);

  std::size_t size() const { return to_original_.size(); }

  /// The points in internal (Hilbert) order; `points()[id]` is the
  /// geometry of internal id `id`. A view of the triangulation's point
  /// array, the database's only coordinate store.
  std::span<const Point> points() const { return delaunay_.points(); }

  /// Position of internal id `id` in the constructor's input vector.
  PointId OriginalId(PointId id) const { return to_original_[id]; }
  /// The whole internal→original permutation (size() entries).
  const std::vector<PointId>& original_ids() const { return to_original_; }

  const Box& bounds() const { return bounds_; }

  /// The index over `points()`: an implicit Hilbert R-tree that views
  /// the coordinate array (see `HilbertRTree`).
  const HilbertRTree& rtree() const { return rtree_; }
  const DelaunayTriangulation& delaunay() const { return delaunay_; }

  /// Fetches the geometry of point `id`, charging one geometry load to
  /// `stats` (if non-null) and paying the simulated fetch latency, if
  /// any. On a paged backend the read goes through the page cache (one
  /// page touch); returns by value so the result never aliases a cache
  /// frame a later fetch may evict.
  Point FetchPoint(PointId id, QueryStats* stats) const {
    if (stats != nullptr) ++stats->geometry_loads;
    if (simulated_fetch_ns_ > 0.0) SimulateFetchLatency(1);
    if (page_store_ != nullptr) return page_store_->GetPoint(id, stats);
    return delaunay_.point(id);
  }

  /// Batched fetch: gathers the coordinates of `ids[0..n)` into the SoA
  /// output arrays, charging `n` geometry loads and paying the simulated
  /// latency for the whole batch coherently (one wait of n × the per-object
  /// latency instead of n clock round-trips — a disk engine would likewise
  /// coalesce a batch of object reads into one request queue submission).
  /// This is the accounting boundary the batch refine kernels stream
  /// through; the gather prefetches ahead, so a cache-hostile id sequence
  /// still pipelines its misses.
  void FetchPoints(const PointId* ids, std::size_t n, double* xs_out,
                   double* ys_out, QueryStats* stats) const {
    if (stats != nullptr) stats->geometry_loads += n;
    if (simulated_fetch_ns_ > 0.0) SimulateFetchLatency(n);
    if (page_store_ != nullptr) {
      // Page-granular gather: every distinct page run in the id sequence
      // is one cache touch (hit or miss); the Hilbert-clustered id space
      // keeps those runs long, so a spatially compact batch touches few
      // pages.
      page_store_->Gather(ids, n, xs_out, ys_out, stats);
      return;
    }
    const Point* pts = delaunay_.points().data();
    for (std::size_t j = 0; j < n; ++j) {
#if defined(__GNUC__)
      if (j + 8 < n) __builtin_prefetch(&pts[ids[j + 8]]);
#endif
      xs_out[j] = pts[ids[j]].x;
      ys_out[j] = pts[ids[j]].y;
    }
  }

  /// Prefetch hint for an upcoming gather of `ids[0..n)` — a no-op on
  /// the in-memory backend, `madvise(MADV_WILLNEED)` on the paged one.
  /// Issued by the frontier-expansion loop for the generation it is
  /// about to stream and by the filter-refine path for its candidate
  /// list; never changes results or per-query touch accounting.
  void PrefetchPoints(const PointId* ids, std::size_t n) const {
    if (page_store_ != nullptr) page_store_->Prefetch(ids, n);
  }

  /// Charges `n` object fetches (geometry loads + simulated latency)
  /// without gathering coordinates — for bulk-accepted results whose
  /// geometry is returned wholesale and never individually inspected.
  /// Deliberately no page traffic on the paged backends either: the
  /// query returns ids, and a result set accepted without inspection
  /// needs no coordinate bytes — the charge models the object-IO a
  /// client materialising those objects would pay, not IO this query
  /// performs.
  void ChargeFetches(std::size_t n, QueryStats* stats) const {
    if (stats != nullptr) stats->geometry_loads += n;
    if (simulated_fetch_ns_ > 0.0 && n > 0) SimulateFetchLatency(n);
  }

  /// How a simulated object fetch spends its latency.
  ///
  /// **Granularity of the model.** A spin is accurate to the clock read
  /// (~20 ns), a `sleep_for` only to the scheduler's wakeup latency
  /// (tens of microseconds on a loaded host). The models therefore
  /// differ below ~100 us and converge above it — which is why kBusyWait
  /// hybridises: a charge at or above `kSpinSleepCutoffNs` gains nothing
  /// from spinning, it only burns a core inside the timed region (and,
  /// on the blocking-IO benches, steals cycles from the threads whose
  /// overlap is being measured). Such charges sleep off the bulk and
  /// spin only the last `kSpinTailNs` up to the deadline, keeping the
  /// sub-cutoff precision where it matters and the CPU free where it
  /// does not. Batched charges (`FetchPoints` of a 256-block at 1 us
  /// each = 256 us) are the common way a nominally sub-cutoff latency
  /// crosses the cutoff.
  enum class FetchLatencyModel {
    /// Spin on the clock up to `kSpinSleepCutoffNs` per charge; above
    /// it, sleep the bulk and spin the tail (see above). Keeps
    /// single-thread timings comparable at sub-microsecond latencies.
    kBusyWait,
    /// `std::this_thread::sleep_for` always. Models blocking IO
    /// faithfully: the worker yields the core, so concurrent queries
    /// overlap their waits and a thread pool shows real throughput
    /// scaling even on one core. Coarser (scheduler quantum) — use for
    /// latencies >= ~10us.
    kSleep,
  };

  /// Per-charge wait at which kBusyWait stops pure spinning (see the
  /// model docs above), and the stretch before the deadline it still
  /// spins to absorb the sleep's wakeup jitter.
  static constexpr double kSpinSleepCutoffNs = 200000.0;  // 200 us
  static constexpr double kSpinTailNs = 100000.0;         // 100 us

  /// Simulated per-object fetch latency in nanoseconds (default 0 = off).
  ///
  /// The paper evaluates on a disk-framed, interpreted (Python) stack where
  /// loading + validating one candidate dominates the query cost; in this
  /// in-memory C++ reproduction a validation costs ~85 ns, so index/graph
  /// overheads are no longer negligible. Setting a latency here charges
  /// every `FetchPoint` a wait of that length, restoring the paper's
  /// cost model (each candidate = one object IO). The table benches report
  /// both raw (0 ns) and IO-simulated runs; see DESIGN.md "Substitutions".
  ///
  /// Not thread-safe against in-flight queries: configure before handing
  /// the database to a `QueryEngine`.
  void set_simulated_fetch_ns(double ns) { simulated_fetch_ns_ = ns; }
  double simulated_fetch_ns() const { return simulated_fetch_ns_; }
  void set_fetch_latency_model(FetchLatencyModel m) { latency_model_ = m; }
  FetchLatencyModel fetch_latency_model() const { return latency_model_; }

  /// The configured storage backend (kInMemory unless Options selected a
  /// paged one — an empty database never spills, so this reports
  /// kInMemory for n == 0 regardless of the request).
  StorageBackend storage_backend() const {
    return page_store_ != nullptr ? options_storage_.backend
                                  : StorageBackend::kInMemory;
  }

  /// The page store behind a paged backend (null on kInMemory) — benches
  /// and tests read its lifetime counters and cache geometry.
  PageStore* page_store() const { return page_store_.get(); }

  /// Heap bytes of each resident structure, from container capacities.
  struct StructureBytes {
    /// The one coordinate array (the triangulation's, super vertices
    /// included).
    std::size_t coordinates = 0;
    /// The Delaunay fan rows and their offsets.
    std::size_t csr_graph = 0;
    /// The R-tree's per-level MBR arrays.
    std::size_t index = 0;
    /// The internal-to-original id permutation.
    std::size_t id_permutation = 0;
    /// The paged backend's frame arena (0 in memory).
    std::size_t page_cache_frames = 0;

    std::size_t total() const {
      return coordinates + csr_graph + index + id_permutation +
             page_cache_frames;
    }
  };
  StructureBytes MemoryFootprint() const;

 private:
  void SimulateFetchLatency(std::size_t n) const;
  void InitPagedStorage();

  // Initialised first (declaration order): the delaunay_ initializer fills
  // it as a side effect of the Hilbert permutation.
  std::vector<PointId> to_original_;
  DelaunayTriangulation delaunay_;
  Box bounds_;
  HilbertRTree rtree_;  // Views delaunay_'s point array.
  StorageOptions options_storage_;
  std::unique_ptr<PageStore> page_store_;
  double simulated_fetch_ns_ = 0.0;
  FetchLatencyModel latency_model_ = FetchLatencyModel::kBusyWait;
  /// Fetch-spike injection (null unless the resolved fault spec enables
  /// it): `SimulateFetchLatency` draws per fetch call against
  /// `fetch_spike_rate`, adding `spike_ms` to spiked waits. Latency-only
  /// — results never depend on it — so the schedule-dependent sequence
  /// counter is acceptable where the page-keyed storage faults are not.
  std::unique_ptr<FaultInjector> fetch_injector_;
  mutable std::atomic<std::uint64_t> fetch_seq_{0};
};

// The R-tree views the triangulation's point array, so a moved database
// would leave it dangling. The atomic member already rules moves out; a
// compaction builds a new database, and with it a new tree.
static_assert(!std::is_move_constructible_v<PointDatabase> &&
                  !std::is_move_assignable_v<PointDatabase>,
              "the R-tree views the database's own point array");

}  // namespace vaq

#endif  // VAQ_CORE_POINT_DATABASE_H_
