#include "shard/sharded_database.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "delaunay/hilbert.h"
#include "planner/planned_area_query.h"

namespace vaq {

ShardedDatabase::ShardedDatabase(std::vector<Point> points, Options options)
    : options_(options) {
  const std::size_t k = options_.num_shards;
  if (k == 0) {
    throw std::invalid_argument(
        "ShardedDatabase: num_shards must be >= 1 (got 0)");
  }
  // Global precondition check, before partitioning: a per-shard check
  // could not see a duplicate pair split across shard boundaries, and the
  // error must name positions in the caller's input vector.
  CheckFiniteAndDistinct(points);
  const std::size_t n = points.size();

  for (const Point& p : points) routing_bounds_.ExpandToInclude(p);
  // Empty construction: no data to derive a curve domain from. Default
  // to the library's experiment domain (coordinates outside it clamp to
  // border cells, as always); the cut keys get an even key-space split
  // below.
  if (routing_bounds_.Empty()) {
    routing_bounds_ = Box{{0.0, 0.0}, {1.0, 1.0}};
  }

  // Order the input along the Hilbert curve. Ties on the curve key (grid
  // cell collisions) break by coordinate, so the resulting partition
  // depends only on the point set, never on input order.
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = HilbertKeyInBox(routing_bounds_, points[i]);
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (keys[a] != keys[b]) return keys[a] < keys[b];
              return points[a] < points[b];
            });

  // Key-aligned cuts at the balanced targets: each cut advances to the
  // end of its key run so no run splits. Shards can come out uneven (or
  // empty) when runs straddle targets or when K > n; that trades perfect
  // balance for exact key routing.
  std::vector<std::size_t> cuts(k + 1, n);
  cuts[0] = 0;
  for (std::size_t s = 1; s < k; ++s) {
    std::size_t cut = std::max(s * n / k, cuts[s - 1]);
    while (cut > 0 && cut < n && keys[order[cut]] == keys[order[cut - 1]]) {
      ++cut;
    }
    cuts[s] = cut;
  }

  DynamicPointDatabase::Options shard_options = options_.shard;
  shard_options.base.skip_distinctness_check = true;

  start_keys_.assign(k, 0);
  std::vector<char> empty_shard(k, 0);
  mbrs_.assign(k, Box{});
  loc_.resize(n);
  shards_.reserve(k);
  auto snap = std::make_shared<Snapshot>();
  snap->shards_.resize(k);
  for (std::size_t s = 0; s < k; ++s) {
    const std::size_t lo = cuts[s];
    const std::size_t hi = cuts[s + 1];
    std::vector<Point> part;
    part.reserve(hi - lo);
    auto ids = std::make_shared<IdMap>();
    ids->chunks.reserve((hi - lo + IdChunk::kCapacity - 1) /
                        IdChunk::kCapacity);
    for (std::size_t i = lo; i < hi; ++i) {
      const PointId global = order[i];
      const PointId local = static_cast<PointId>(i - lo);
      part.push_back(points[global]);
      if (local % IdChunk::kCapacity == 0) {
        ids->chunks.push_back(std::make_shared<IdChunk>());
      }
      ids->chunks.back()->global[local % IdChunk::kCapacity] = global;
      loc_[global] = Loc{static_cast<std::uint32_t>(s), local};
    }
    empty_shard[s] = (lo == hi);
    if (!empty_shard[s]) start_keys_[s] = keys[order[lo]];
    shards_.push_back(
        std::make_unique<DynamicPointDatabase>(std::move(part),
                                               shard_options));
    std::shared_ptr<const DynamicPointDatabase::Snapshot> shard_snap =
        shards_[s]->snapshot();
    mbrs_[s] = shard_snap->base().bounds();
    snap->shards_[s] =
        ShardView{std::move(shard_snap), std::move(ids), mbrs_[s]};
  }
  // Empty shards get the start key of their successor (an empty routing
  // range wedged between neighbours); trailing empties get the key just
  // past the data, so future inserts beyond the tail land in them.
  // `start_keys_[0]` stays 0: keys below the first point route to shard 0.
  const std::uint64_t tail_key = n > 0 ? keys[order[n - 1]] + 1 : 0;
  for (std::size_t s = k; s-- > 1;) {
    if (empty_shard[s]) {
      start_keys_[s] = s + 1 < k ? start_keys_[s + 1] : tail_key;
    }
  }
  start_keys_[0] = 0;
  // With no points, the backfill above collapses every range to [0, 0)
  // and all future inserts would funnel into the last shard. Cut the
  // order-16 key space (2^32 cells) evenly instead, so K-way routing
  // works from the first insert.
  if (n == 0) {
    constexpr std::uint64_t kKeySpace = std::uint64_t{1} << 32;
    for (std::size_t s = 0; s < k; ++s) {
      start_keys_[s] = s * (kKeySpace / k);
    }
  }

  next_global_ = static_cast<PointId>(n);
  snap->stable_limit_ = next_global_;
  current_ = std::move(snap);
}

std::size_t ShardedDatabase::RouteShard(const Point& p) const {
  const std::uint64_t key = HilbertKeyInBox(routing_bounds_, p);
  // `start_keys_[0] == 0 <= key`, so the bound is never `begin()`.
  const auto it =
      std::upper_bound(start_keys_.begin(), start_keys_.end(), key);
  return static_cast<std::size_t>(it - start_keys_.begin()) - 1;
}

std::optional<PointId> ShardedDatabase::Insert(const Point& p) {
  if (!InCoordinateRange(p)) return std::nullopt;
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (next_global_ == kInvalidPointId) return std::nullopt;
  const std::size_t s = RouteShard(p);
  // Every allocating step happens *before* the shard commits the point,
  // so a bad_alloc can never strand a live shard point without its
  // global bookkeeping (the same order-then-commit discipline as
  // `DynamicPointDatabase::Insert`). The shard-local stable id the
  // insert will assign is known up front: ids are dense and every shard
  // mutation funnels through this object, so it is the pinned view's
  // `stable_limit()`.
  const ShardView& view = current_->shards_[s];
  const PointId local = view.snap->stable_limit();
  auto ids = std::make_shared<IdMap>(*view.ids);
  const std::size_t ci = local / IdChunk::kCapacity;
  if (ci == ids->chunks.size()) {
    ids->chunks.push_back(std::make_shared<IdChunk>());
  }
  ids->chunks[ci]->global[local % IdChunk::kCapacity] = next_global_;
  // Geometric pre-grow (an exact-fit reserve would reallocate — and copy
  // the whole table — on every insert); the commit's push_back then
  // cannot throw.
  if (loc_.size() == loc_.capacity()) {
    loc_.reserve(std::max<std::size_t>(16, loc_.capacity() * 2));
  }
  auto next = std::make_shared<Snapshot>(*current_);
  // Key routing sends an equal point to the shard holding its live twin
  // (equal points share a key, and key runs never split), so the shard's
  // local duplicate check is globally sufficient.
  const std::optional<PointId> inserted = shards_[s]->Insert(p);
  if (!inserted.has_value()) return std::nullopt;
  // Commit: nothing below throws.
  const PointId global = next_global_++;
  loc_.push_back(Loc{static_cast<std::uint32_t>(s), local});
  mbrs_[s].ExpandToInclude(p);
  next->shards_[s].snap = shards_[s]->snapshot();
  next->shards_[s].ids = std::move(ids);
  next->shards_[s].mbr = mbrs_[s];
  next->stable_limit_ = next_global_;
  PublishLocked(std::move(next));
  return global;
}

bool ShardedDatabase::Erase(PointId id) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (id >= loc_.size()) return false;
  const Loc loc = loc_[id];
  // Allocate the next version before the shard commits the delete, so an
  // allocation failure cannot leave the published cross-shard view
  // behind the shard's actual state.
  auto next = std::make_shared<Snapshot>(*current_);
  if (!shards_[loc.shard]->Erase(loc.local)) return false;
  next->shards_[loc.shard].snap = shards_[loc.shard]->snapshot();
  // The MBR stays conservative across deletes; Compact() re-tightens it.
  next->shards_[loc.shard].mbr = mbrs_[loc.shard];
  next->stable_limit_ = next_global_;
  PublishLocked(std::move(next));
  return true;
}

void ShardedDatabase::Compact() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  auto next = std::make_shared<Snapshot>(*current_);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->Compact();
    std::shared_ptr<const DynamicPointDatabase::Snapshot> snap =
        shards_[s]->snapshot();
    // Post-compaction the live set is exactly the rebuilt base, so its
    // bounding box is the exact live MBR again.
    mbrs_[s] = snap->base().bounds();
    next->shards_[s].snap = std::move(snap);
    next->shards_[s].mbr = mbrs_[s];
  }
  next->stable_limit_ = next_global_;
  PublishLocked(std::move(next));
}

std::size_t ShardedDatabase::Size() const { return snapshot()->live_size(); }

std::uint64_t ShardedDatabase::Compactions() const {
  std::uint64_t total = 0;
  for (const std::unique_ptr<DynamicPointDatabase>& shard : shards_) {
    total += shard->Compactions();
  }
  return total;
}

std::shared_ptr<const ShardedDatabase::Snapshot> ShardedDatabase::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

void ShardedDatabase::PublishLocked(std::shared_ptr<const Snapshot> next) {
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(next);
}

ShardedDatabase::~ShardedDatabase() = default;

std::shared_ptr<const ShardedDatabase::Snapshot>
ShardedDatabase::Snapshot::Single(
    std::shared_ptr<const DynamicPointDatabase::Snapshot> snap) {
  auto single = std::make_shared<Snapshot>();
  single->stable_limit_ = snap->stable_limit();
  const Box mbr = snap->base().bounds();
  single->shards_.push_back(ShardView{std::move(snap), nullptr, mbr});
  return single;
}

std::vector<PointId> ShardedDatabase::Query(const Polygon& area,
                                            QueryContext& ctx) const {
  return Query(area, ctx, PlanHints{});
}

std::vector<PointId> ShardedDatabase::Query(const Polygon& area,
                                            QueryContext& ctx,
                                            const PlanHints& hints) const {
  return PlannedQuery()->RunPlanned(area, ctx, hints);
}

const PlannedAreaQuery* ShardedDatabase::PlannedQuery() const {
  std::call_once(planned_once_, [this] {
    planned_ = std::make_unique<PlannedAreaQuery>(
        [this] { return snapshot(); }, options_.scatter_engine);
  });
  return planned_.get();
}

}  // namespace vaq
