#ifndef VAQ_SHARD_SHARDED_DATABASE_H_
#define VAQ_SHARD_SHARDED_DATABASE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/dynamic_point_database.h"
#include "geometry/box.h"
#include "geometry/point.h"

namespace vaq {

class QueryEngine;

/// Spatially partitioned database: K shards, each a full
/// `DynamicPointDatabase` (immutable Hilbert-clustered base + delta buffer
/// + tombstones + the four query objects), carved by **Hilbert-range
/// cuts**. Construction orders the input along the Hilbert curve over its
/// bounding box — the same relabelling every `PointDatabase` applies
/// internally — and cuts the curve into K contiguous key ranges of
/// roughly n/K points. Curve locality makes the ranges spatially compact,
/// so shard MBRs overlap little and an area query can prune most shards
/// by one `PreparedArea::ClassifyBox` test each (see
/// `RunShardedSnapshotQuery`).
///
/// **Cuts are key-aligned**: a run of points sharing one curve key is
/// never split across shards. That makes the partition a function of the
/// point *set* (input order never matters) and makes insert routing by
/// key exact: an inserted point lands in the shard that owns its key
/// range, so a point equal to a live point always meets that point's
/// shard-local duplicate check — cross-shard duplicates cannot creep in.
/// Routing keys are computed on the grid over the *initial* bounding box
/// (points outside clamp to the border cells), so routing stays total
/// and deterministic as the data drifts.
///
/// **Global stable ids.** Results and mutations speak one id space across
/// shards: the initial points get their input positions (matching both
/// `DynamicPointDatabase` and `PointDatabase::OriginalId` conventions, so
/// sharded answers compare bit-for-bit against an unsharded oracle built
/// from the same vector), inserts get fresh increasing ids. Each shard
/// view carries an append-only local→global id map sharing the chunked
/// copy-on-write spine idiom of the delta buffer.
///
/// **Snapshot semantics.** Every mutation publishes a new `Snapshot` — K
/// per-shard snapshot pins plus their id maps and MBRs — through a
/// shared pointer, exactly like the single-shard dynamic layer. A query
/// pins one `Snapshot` and therefore sees *one version of every shard*:
/// no cross-shard skew, however the mutation stream interleaves with it.
///
/// **All-or-nothing answers.** A query over K shards fails like a query
/// over one: a failing shard leg fails the whole query with its typed
/// error (`PageReadError`, `QueryAbortedError`, ...), never a partial
/// answer from the surviving shards (DESIGN.md §12).
///
/// Thread safety mirrors `DynamicPointDatabase`: any number of concurrent
/// readers via `snapshot()`; mutations serialize on an internal mutex.
class ShardedDatabase {
 public:
  struct Options {
    /// Shard count K. Must be >= 1 (`std::invalid_argument` otherwise).
    /// K may exceed the point count: the surplus shards start empty and
    /// fill through inserts routed into their key ranges.
    std::size_t num_shards = 4;
    /// Options applied to every shard (compaction thresholds, simulated
    /// IO). One field is overridden internally: the construction
    /// distinctness check is skipped (the sharded constructor proves
    /// distinctness globally first, which per-shard checks could not — a
    /// duplicate pair may split across shard boundaries). The shard legs'
    /// Voronoi runs use the exact dual-edge rule like every
    /// `DynamicPointDatabase`; a cross-shard area leaves a shard's data
    /// box, which that rule handles (DESIGN.md §9).
    DynamicPointDatabase::Options shard;
    /// Pool the planned path (`Query`, `PlannedQuery`) may fan shard legs
    /// onto when the plan scatters; null = every plan runs its legs
    /// inline. Must outlive this database. Registering `PlannedQuery()`
    /// on this same engine is safe: a query running on one of its
    /// workers falls back to inline legs (see `RunShardedSnapshotQuery`).
    QueryEngine* scatter_engine = nullptr;
  };

  /// Append-only shard-local stable id → global stable id map. Shares the
  /// chunked COW-spine idiom of `DynamicPointDatabase::DeltaBuffer`:
  /// appending copies the chunk-pointer spine only and writes a slot no
  /// published snapshot reads (every published view bounds its reads by
  /// its own shard snapshot's `stable_limit()`).
  struct IdChunk {
    static constexpr std::size_t kCapacity = 1024;
    PointId global[kCapacity];
  };
  struct IdMap {
    std::vector<std::shared_ptr<IdChunk>> chunks;
    PointId Global(PointId local) const {
      return chunks[local / IdChunk::kCapacity]
          ->global[local % IdChunk::kCapacity];
    }
  };

  /// One shard as a query sees it: the pinned shard version, the id map
  /// translating its stable ids to global ids (null for the single view
  /// of an unsharded database, whose stable ids are already global), and
  /// a conservative MBR of its live points (exact after a full
  /// `Compact()`, only ever grown by inserts in between — a pruning test
  /// against it can produce false overlaps, never false prunes).
  struct ShardView {
    std::shared_ptr<const DynamicPointDatabase::Snapshot> snap;
    std::shared_ptr<const IdMap> ids;
    Box mbr;
  };

  /// One immutable cross-shard version. Obtained via `snapshot()`; valid
  /// for as long as the caller holds the pointer. This is the one
  /// snapshot type the planner pins and `RunShardedSnapshotQuery`
  /// executes: an unsharded database pins as a single view (`Single`).
  class Snapshot {
   public:
    /// One `DynamicPointDatabase` version as a single view with no id
    /// map. Its MBR, the planning domain, is the base bounds; a single
    /// view is never pruned, so inserts outside them are still found.
    static std::shared_ptr<const Snapshot> Single(
        std::shared_ptr<const DynamicPointDatabase::Snapshot> snap);

    const std::vector<ShardView>& shards() const { return shards_; }
    /// Exclusive upper bound of every global stable id in this version.
    PointId stable_limit() const { return stable_limit_; }
    /// Live points across all shards in this version.
    std::size_t live_size() const {
      std::size_t n = 0;
      for (const ShardView& v : shards_) n += v.snap->live_size();
      return n;
    }
    /// Visits every live point as `fn(global_stable_id, point)`, shard by
    /// shard (no global id order guarantee).
    template <typename Fn>
    void ForEachLive(Fn&& fn) const {
      for (const ShardView& v : shards_) {
        v.snap->ForEachLive([&](PointId local, const Point& p) {
          fn(v.ids->Global(local), p);
        });
      }
    }

   private:
    friend class ShardedDatabase;
    std::vector<ShardView> shards_;
    PointId stable_limit_ = 0;
  };

  /// Partitions `points` into `options.num_shards` Hilbert-range shards.
  /// The input must be in range and pairwise distinct — validated *before*
  /// partitioning, so a `DuplicatePointError` names the offending input
  /// positions even when the pair would have landed in different shards.
  /// An empty input is valid: the routing grid defaults to the unit
  /// square with the curve key space cut evenly, so inserts spread
  /// K-ways from the start.
  explicit ShardedDatabase(std::vector<Point> points)
      : ShardedDatabase(std::move(points), Options{}) {}
  ShardedDatabase(std::vector<Point> points, Options options);
  ~ShardedDatabase();  // Out of line: `planned_` is incomplete here.

  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

  /// Inserts `p` into the shard owning its curve key and returns the
  /// global stable id, or `std::nullopt` when the shard rejects it (an
  /// equal point is live, a coordinate is outside `InCoordinateRange`,
  /// id space exhausted). See `DynamicPointDatabase::Insert`.
  std::optional<PointId> Insert(const Point& p);

  /// Deletes the point with global stable id `id`. Returns false if the
  /// id was never assigned or is already deleted.
  bool Erase(PointId id);

  /// Compacts every shard and tightens every shard MBR back to exact.
  void Compact();

  /// Live point count across all shards.
  std::size_t Size() const;

  std::size_t num_shards() const { return shards_.size(); }

  /// Pins the current cross-shard version. O(1).
  std::shared_ptr<const Snapshot> snapshot() const;

  /// Runs one area query through the planner (see
  /// `PlannedAreaQuery`): the cost model picks the method per query *and*
  /// whether to fan the surviving shards out onto
  /// `Options::scatter_engine` or run them inline; the result cache
  /// serves each shard leg's base pass for repeated identical polygons. Fixed-method
  /// callers pass `PlanHints::force_method`, or call
  /// `RunShardedSnapshotQuery` on `snapshot()`. Thread-safe like
  /// `snapshot()`.
  std::vector<PointId> Query(const Polygon& area, QueryContext& ctx) const;
  std::vector<PointId> Query(const Polygon& area, QueryContext& ctx,
                             const PlanHints& hints) const;

  /// The lazily-built planned query behind `Query`, as a registrable
  /// `AreaQuery` — see `DynamicPointDatabase::PlannedQuery`.
  const PlannedAreaQuery* PlannedQuery() const;

  /// Total compactions across shards (threshold-triggered + explicit).
  std::uint64_t Compactions() const;

  /// Shard index that owns `p`'s Hilbert key (tests, tooling).
  std::size_t RouteShard(const Point& p) const;

 private:
  /// Mutator-side location of a global stable id (never read by queries).
  struct Loc {
    std::uint32_t shard = 0;
    PointId local = 0;  // Shard-local stable id.
  };

  void PublishLocked(std::shared_ptr<const Snapshot> next);

  Options options_;
  /// Curve domain of the routing grid: the initial bounding box.
  Box routing_bounds_;
  /// First curve key owned by each shard; non-decreasing, `start_keys_[0]`
  /// is 0. Shard i owns keys in [start_keys_[i], start_keys_[i+1]).
  std::vector<std::uint64_t> start_keys_;
  std::vector<std::unique_ptr<DynamicPointDatabase>> shards_;

  /// Serializes mutations; guards the mutator-side tables below.
  mutable std::mutex writer_mu_;
  /// Guards only `current_` (readers copy the pointer, writers swap it).
  /// Lock order: `writer_mu_` before `mu_`.
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> current_;
  /// Global stable id → owning shard + shard-local stable id, for the
  /// whole id lifetime (ids are never reused; stale entries are resolved
  /// by the shard's own liveness check in `Erase`).
  std::vector<Loc> loc_;
  /// Conservative live-point MBR per shard, mirrored into the views.
  std::vector<Box> mbrs_;
  PointId next_global_ = 0;

  /// Lazily built planner behind `Query` (see `DynamicPointDatabase`).
  mutable std::once_flag planned_once_;
  mutable std::unique_ptr<PlannedAreaQuery> planned_;
};

}  // namespace vaq

#endif  // VAQ_SHARD_SHARDED_DATABASE_H_
