#ifndef VAQ_CORE_DYNAMIC_POINT_DATABASE_H_
#define VAQ_CORE_DYNAMIC_POINT_DATABASE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/brute_force_area_query.h"
#include "core/method.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"

namespace vaq {

struct PlanHints;
class PlannedAreaQuery;

/// Mutable database layer over the immutable Hilbert-clustered
/// `PointDatabase`, following the classic log-structured pattern:
///
///  * the **base** — a `PointDatabase` plus the three query objects built
///    over it — is immutable and rebuilt only by `Compact()`. Its Voronoi
///    object runs the exact `kDualEdge` rule, so every planned, served
///    and sharded Voronoi answer is complete for any connected area;
///  * **inserts** land in a small in-memory *delta buffer* (SoA, scanned
///    linearly by queries — it is bounded by the compaction threshold);
///  * **deletes** of base points set a bit in a *tombstone* bitmap
///    (deletes of delta points just remove the buffer entry);
///  * queries answer over `base ∪ delta − tombstones` (see
///    `RunDynamicSnapshotQuery`, which merges a delta-refine pass into
///    the batched kernels);
///  * once `delta + tombstones` crosses the threshold, `Compact()`
///    rebuilds the base from the merged live set — reusing the Hilbert
///    clustering and the `hilbert_sorted` Delaunay fast path — and resets
///    delta and tombstones.
///
/// **Snapshot semantics.** All of the above lives in an immutable
/// `Snapshot` published through a shared pointer: every mutation builds a
/// new snapshot (sharing the base and all unchanged parts structurally)
/// and swaps the pointer; every query pins the current snapshot for its
/// whole execution. In-flight queries therefore keep running on the
/// version they started on — `QueryEngine::Submit` concurrent with
/// `Insert`/`Erase`/`Compact` is race-free by construction, and a query
/// never observes half a mutation.
///
/// **Stable ids.** Every point receives a `PointId` at insertion (the
/// initial vector's points get their input positions) that never changes —
/// not across mutations, not across compactions, even though the base's
/// internal Hilbert ids are reassigned by every rebuild. Query results and
/// `Erase` speak stable ids.
///
/// **Distinctness and range.** The live point set stays pairwise distinct
/// and inside `InCoordinateRange`: `Insert` of a point equal to a live
/// point, or with a coordinate out of range, is rejected (returns
/// `std::nullopt`), so every `Compact()` feeds the Delaunay builder valid
/// input. Re-inserting an erased point is allowed and yields a fresh id.
///
/// Thread safety: any number of concurrent readers (`snapshot()` and the
/// queries running over snapshots); mutations serialize on an internal
/// mutex. Mutations are cheap — amortised O(1) for inserts (chunked
/// append-only delta storage), O(base/64) words for base deletes,
/// O(delta) only for delta deletes — except the threshold-amortised
/// `Compact()`.
class DynamicPointDatabase {
 public:
  struct Options {
    /// Options of every rebuilt base.
    PointDatabase::Options base;
    /// `delta + tombstones` count that triggers an automatic compaction
    /// after a mutation. 0 = auto: max(256, base_size / 4).
    std::size_t compact_threshold = 0;
    /// Disable to compact only on explicit `Compact()` calls.
    bool auto_compact = true;
    /// Simulated object-IO configuration applied to every built base —
    /// the initial one and every compaction rebuild (the per-database
    /// setters on `PointDatabase` would be lost at the first rebuild).
    /// See `PointDatabase::set_simulated_fetch_ns`.
    double simulated_fetch_ns = 0.0;
    PointDatabase::FetchLatencyModel fetch_latency_model =
        PointDatabase::FetchLatencyModel::kBusyWait;
  };

  /// The immutable base plus the query objects bound to it. Shared by
  /// every snapshot between two compactions; rebuilt as a unit so the
  /// query objects' database pointers can never dangle.
  struct BaseBundle {
    BaseBundle(std::vector<Point> points, const PointDatabase::Options& o)
        : db(std::move(points), o),
          traditional(&db),
          voronoi(&db, {VoronoiAreaQuery::ExpansionRule::kDualEdge}),
          brute(&db),
          generation(NextGeneration()) {}
    BaseBundle(const BaseBundle&) = delete;
    BaseBundle& operator=(const BaseBundle&) = delete;

    PointDatabase db;
    TraditionalAreaQuery traditional;
    VoronoiAreaQuery voronoi;
    BruteForceAreaQuery brute;
    /// Process-unique id of this base, drawn from a counter at
    /// construction and never reused (a bundle address could be, once
    /// the bundle is freed). Every compaction builds a new bundle and so
    /// a new generation; inserts and erases keep the bundle.
    const std::uint64_t generation;

   private:
    static std::uint64_t NextGeneration();
  };

  /// One fixed-capacity block of the insert buffer: SoA coordinate
  /// streams plus parallel stable ids. Slots `>= size` of the owning
  /// buffer are writable scratch the next insert may fill; no snapshot
  /// ever reads beyond its own recorded size, so appending into a shared
  /// chunk is race-free (writes touch only never-published slots, and
  /// publication happens-before every read via the snapshot mutex).
  struct DeltaChunk {
    static constexpr std::size_t kCapacity = 1024;
    double xs[kCapacity];
    double ys[kCapacity];
    PointId stable[kCapacity];
  };

  /// The insert buffer: a spine of shared chunks plus the live length.
  /// An insert copies only the spine (delta/1024 shared pointers) and
  /// appends in place — amortised O(1); a base delete shares the buffer
  /// untouched; a delta delete (swap-remove) copies just the two touched
  /// chunks (the erased slot's and the tail, whose freed slot later
  /// inserts refill), so snapshots with a larger recorded size never
  /// share a chunk whose visible slots get rewritten.
  struct DeltaBuffer {
    std::vector<std::shared_ptr<DeltaChunk>> chunks;
    std::size_t size = 0;
  };

  /// One immutable version of the database. Obtained via `snapshot()`;
  /// valid (and unchanging) for as long as the caller holds the pointer,
  /// whatever mutations or compactions happen meanwhile.
  class Snapshot {
   public:
    const PointDatabase& base() const { return bundle_->db; }

    /// The base-side query object for `m`, bound to `base()`.
    const AreaQuery& BaseQuery(DynamicMethod m) const {
      switch (m) {
        case DynamicMethod::kVoronoi:
          return bundle_->voronoi;
        case DynamicMethod::kTraditional:
          return bundle_->traditional;
        case DynamicMethod::kBruteForce:
          break;
      }
      return bundle_->brute;
    }

    /// Stable id of base-internal id `id`.
    PointId StableId(PointId id) const { return (*stable_of_internal_)[id]; }

    /// Whether base-internal id `id` has been deleted in this version.
    bool IsTombstoned(PointId id) const {
      return tombstones_ != nullptr &&
             ((*tombstones_)[id >> 6] >> (id & 63)) & 1;
    }

    // Delta buffer: SoA coordinate streams plus the parallel stable ids.
    std::size_t delta_size() const { return delta_->size; }
    PointId DeltaStableId(std::size_t i) const {
      return delta_->chunks[i / DeltaChunk::kCapacity]
          ->stable[i % DeltaChunk::kCapacity];
    }
    Point DeltaPoint(std::size_t i) const {
      const DeltaChunk& c = *delta_->chunks[i / DeltaChunk::kCapacity];
      const std::size_t at = i % DeltaChunk::kCapacity;
      return Point{c.xs[at], c.ys[at]};
    }

    /// Visits the delta buffer one contiguous SoA run at a time as
    /// `fn(offset, xs, ys, n)` — the shape the blocked classification
    /// kernel consumes (chunk capacity is a multiple of `kRefineBlock`).
    template <typename Fn>
    void ForEachDeltaRun(Fn&& fn) const {
      for (std::size_t off = 0; off < delta_->size;
           off += DeltaChunk::kCapacity) {
        const DeltaChunk& c = *delta_->chunks[off / DeltaChunk::kCapacity];
        const std::size_t n =
            std::min(DeltaChunk::kCapacity, delta_->size - off);
        fn(off, c.xs, c.ys, n);
      }
    }

    /// Live points in this version (base survivors + delta).
    std::size_t live_size() const { return base_live_ + delta_size(); }
    /// Exclusive upper bound of every stable id in this version.
    PointId stable_limit() const { return stable_limit_; }
    /// Monotonic publication counter: 0 for the initial version, +1 per
    /// published mutation/compaction. Two pins with equal versions are the
    /// same immutable snapshot.
    std::uint64_t version() const { return version_; }
    /// The base's generation (`BaseBundle::generation`): equal across
    /// every version between two compactions. Base-pass answers depend
    /// on the base alone, so it keys the planner's result cache; the
    /// tombstones and the delta of each version are applied per query.
    std::uint64_t base_generation() const { return bundle_->generation; }

    /// Visits every live point as `fn(stable_id, point)`, base first
    /// (internal order) then delta (buffer order).
    template <typename Fn>
    void ForEachLive(Fn&& fn) const {
      const std::span<const Point> pts = bundle_->db.points();
      for (PointId id = 0; id < pts.size(); ++id) {
        if (!IsTombstoned(id)) fn(StableId(id), pts[id]);
      }
      for (std::size_t i = 0; i < delta_->size; ++i) {
        fn(DeltaStableId(i), DeltaPoint(i));
      }
    }

   private:
    friend class DynamicPointDatabase;
    std::shared_ptr<const BaseBundle> bundle_;
    /// Base-internal id -> stable id; shared until the next compaction.
    std::shared_ptr<const std::vector<PointId>> stable_of_internal_;
    /// Deleted base points, bitmap over internal ids; null = none.
    /// Copied on delete (base/64 words), shared otherwise.
    std::shared_ptr<const std::vector<std::uint64_t>> tombstones_;
    std::size_t base_live_ = 0;
    /// Never null. Inserts copy the chunk spine and append in place,
    /// delta deletes copy the touched chunks, base deletes share it.
    std::shared_ptr<const DeltaBuffer> delta_;
    PointId stable_limit_ = 0;
    std::uint64_t version_ = 0;
  };

  /// Builds the initial version from `initial`; its points receive stable
  /// ids equal to their positions in the vector. Throws
  /// `DuplicatePointError` if `initial` violates pairwise distinctness.
  explicit DynamicPointDatabase(std::vector<Point> initial)
      : DynamicPointDatabase(std::move(initial), Options{}) {}
  DynamicPointDatabase(std::vector<Point> initial, Options options);
  ~DynamicPointDatabase();  // Out of line: `planned_` is incomplete here.

  DynamicPointDatabase(const DynamicPointDatabase&) = delete;
  DynamicPointDatabase& operator=(const DynamicPointDatabase&) = delete;

  /// Inserts `p` and returns its stable id, or `std::nullopt` if the
  /// point is rejected: an equal point is already live (the
  /// pairwise-distinct invariant — callers that want dedup semantics can
  /// simply ignore the rejection), a coordinate is outside
  /// `InCoordinateRange` (non-finite, or finite but too large or too
  /// small for the exact predicates of the next compaction), or the
  /// stable id space is exhausted (ids are never reused, so a database
  /// supports 2^32 - 1 successful inserts over its lifetime).
  std::optional<PointId> Insert(const Point& p);

  /// Deletes the point with stable id `id`. Returns false if the id was
  /// never assigned or is already deleted.
  bool Erase(PointId id);

  /// Live point count (base survivors + delta buffer).
  std::size_t Size() const;

  /// Rebuilds the base from the merged live set and clears delta and
  /// tombstones. The rebuild runs outside the reader lock: queries keep
  /// starting (and finishing) on the old version for its whole duration
  /// and only other mutations wait; the new version is swapped in at the
  /// end. Stable ids are unaffected. No-op when there is nothing to fold
  /// in.
  void Compact();

  /// Pins the current version. O(1) — one pointer copy under the reader
  /// lock, which writers hold only to swap the pointer (never during a
  /// compaction rebuild).
  std::shared_ptr<const Snapshot> snapshot() const;

  /// Runs one area query through the planner (see
  /// `PlannedAreaQuery`): the cost model picks the method per query, the
  /// generation-keyed result cache serves the base pass of repeated
  /// identical polygons, and
  /// `ctx.stats.plan_method`/`plan_reason` record the choice. This is the
  /// planned single entry point. Callers that need a *fixed* method pass
  /// `PlanHints::force_method`, or call `RunDynamicSnapshotQuery` on
  /// `snapshot()` to skip the planner and the cache. (`Snapshot::BaseQuery`
  /// answers over the base alone — base-internal ids, no delta, no
  /// tombstones.)
  ///
  /// Thread-safe like `snapshot()`: the planner/cache state is internally
  /// synchronized, each caller brings its own `QueryContext`.
  std::vector<PointId> Query(const Polygon& area, QueryContext& ctx) const;
  std::vector<PointId> Query(const Polygon& area, QueryContext& ctx,
                             const PlanHints& hints) const;

  /// The lazily-built planned query behind `Query`, as a registrable
  /// `AreaQuery`. This is how engine/server traffic routes through the
  /// planner instead of around it: `engine.RegisterMethod(db.PlannedQuery())`
  /// makes every `Submit`/`RunBatch` of that method plan and hit the
  /// result cache — per-submission `SubmitOptions::hints` included. Same
  /// instance `Query` uses; valid for this database's lifetime.
  const PlannedAreaQuery* PlannedQuery() const;

  /// Geometry of the live point with stable id `id`, if any.
  ///
  /// Like the introspection accessors below, this reads the mutator-side
  /// tables and therefore coordinates with writers: it can wait behind an
  /// in-progress mutation — including a full compaction rebuild. The
  /// non-blocking read path is `snapshot()` + the query layer; use these
  /// for tests, tooling and monitoring, not on a latency-sensitive path.
  std::optional<Point> Find(PointId id) const;

  // Introspection (tests, benches). May block behind an in-progress
  // compaction; see `Find`.
  std::size_t DeltaSize() const;
  std::size_t TombstoneCount() const;
  std::uint64_t Compactions() const;

 private:
  /// Mutator-side location of a live stable id. Never read by queries.
  struct Loc {
    enum Kind : std::uint8_t { kBase, kDelta };
    Kind kind = kBase;
    PointId idx = 0;  // Base-internal id or delta-buffer position.
  };

  // "Locked" = caller holds writer_mu_ (which excludes every writer of
  // `current_`, so these may read it without taking mu_; publishing a new
  // version still takes mu_ for the pointer swap).
  bool IsLiveDuplicateLocked(const Point& p) const;
  void PublishLocked(std::shared_ptr<const Snapshot> next);
  void CompactLocked();
  void MaybeAutoCompactLocked();

  Options options_;

  /// Serializes mutations and guards the mutator-side tables below; held
  /// for the whole of Insert/Erase/Compact — including the long
  /// compaction rebuild, which is why readers do not share this lock.
  mutable std::mutex writer_mu_;
  /// Guards only `current_`: readers hold it for one pointer copy,
  /// writers (who already hold `writer_mu_`) for one pointer swap.
  /// Lock order: `writer_mu_` before `mu_`.
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> current_;
  /// Stable id -> current location, live ids only (erased ids are
  /// removed, so memory tracks the live set + delta, not the lifetime
  /// insert count of a long-running store).
  std::unordered_map<PointId, Loc> loc_;
  /// Coordinates currently in the delta buffer (zero-normalised so ±0.0
  /// collide), for O(1) duplicate checks — an O(delta) scan per insert
  /// would make the mutation stream quadratic between compactions.
  /// Mutator-side like `loc_`: never read by queries.
  std::unordered_set<Point, PointHash> delta_coords_;
  std::size_t tombstone_count_ = 0;
  std::uint64_t compactions_ = 0;
  /// Next snapshot version to publish (guarded by `writer_mu_`).
  std::uint64_t next_version_ = 1;

  /// Lazily built planner behind `Query` (an immutable planner and an
  /// internally synchronized result cache). `mutable` because `Query` is
  /// logically const — it mutates only cache state, never data.
  mutable std::once_flag planned_once_;
  mutable std::unique_ptr<PlannedAreaQuery> planned_;
};

}  // namespace vaq

#endif  // VAQ_CORE_DYNAMIC_POINT_DATABASE_H_
