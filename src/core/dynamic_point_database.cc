#include "core/dynamic_point_database.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "planner/planned_area_query.h"
#include "shard/sharded_database.h"

namespace vaq {

namespace {

/// Key normalisation for the delta coordinate set: +0.0 and -0.0 compare
/// equal but may hash differently; adding 0.0 maps -0.0 to +0.0.
Point NormalizedKey(const Point& p) { return Point{p.x + 0.0, p.y + 0.0}; }

}  // namespace

std::uint64_t DynamicPointDatabase::BaseBundle::NextGeneration() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

DynamicPointDatabase::DynamicPointDatabase(std::vector<Point> initial,
                                           Options options)
    : options_(options) {
  auto mutable_bundle =
      std::make_shared<BaseBundle>(std::move(initial), options_.base);
  mutable_bundle->db.set_simulated_fetch_ns(options_.simulated_fetch_ns);
  mutable_bundle->db.set_fetch_latency_model(options_.fetch_latency_model);
  std::shared_ptr<const BaseBundle> bundle = std::move(mutable_bundle);
  const std::size_t n = bundle->db.size();
  // Stable ids of the initial points are their input positions, which is
  // exactly what the base's internal→original permutation records.
  auto stable = std::make_shared<std::vector<PointId>>(n);
  loc_.reserve(n);
  for (PointId id = 0; id < n; ++id) {
    const PointId stable_id = bundle->db.OriginalId(id);
    (*stable)[id] = stable_id;
    loc_.emplace(stable_id, Loc{Loc::kBase, id});
  }
  auto snap = std::make_shared<Snapshot>();
  snap->bundle_ = std::move(bundle);
  snap->stable_of_internal_ = std::move(stable);
  snap->base_live_ = n;
  snap->delta_ = std::make_shared<const DeltaBuffer>();
  snap->stable_limit_ = static_cast<PointId>(n);
  current_ = std::move(snap);
}

DynamicPointDatabase::~DynamicPointDatabase() = default;

bool DynamicPointDatabase::IsLiveDuplicateLocked(const Point& p) const {
  const Snapshot& snap = *current_;
  // Base side: distinct base points mean at most one can equal `p`, and if
  // one does it is the nearest neighbour (distance 0) — one O(log n) index
  // probe instead of a mutator-side hash of the whole point set.
  const PointDatabase& base = snap.bundle_->db;
  const PointId nn = base.rtree().NearestNeighbor(p, nullptr);
  if (nn != kInvalidPointId && base.points()[nn] == p &&
      !snap.IsTombstoned(nn)) {
    return true;
  }
  // Delta side: the mutator-side coordinate set mirrors the buffer.
  return delta_coords_.count(NormalizedKey(p)) > 0;
}

std::optional<PointId> DynamicPointDatabase::Insert(const Point& p) {
  // Coordinates outside `InCoordinateRange` poison every downstream
  // structure (NaN breaks the ordering the distinctness check sorts by,
  // NaN != NaN would admit duplicates, and finite extremes overflow or
  // underflow the exact predicates of the next compaction's build);
  // reject them at the mutation boundary.
  if (!InCoordinateRange(p)) return std::nullopt;
  std::lock_guard<std::mutex> lock(writer_mu_);
  // Stable ids are never reused; kInvalidPointId caps the lifetime space.
  if (current_->stable_limit_ == kInvalidPointId) return std::nullopt;
  if (IsLiveDuplicateLocked(p)) return std::nullopt;
  // Copy the chunk spine only (shared pointers); the append below writes
  // a slot no published snapshot can read (all record sizes <= the
  // current one), so inserts are amortised O(1), not O(delta).
  auto next = std::make_shared<Snapshot>(*current_);
  next->version_ = next_version_++;
  const PointId stable_id = next->stable_limit_++;
  auto delta = std::make_shared<DeltaBuffer>(*next->delta_);
  const std::size_t ci = delta->size / DeltaChunk::kCapacity;
  const std::size_t at = delta->size % DeltaChunk::kCapacity;
  // A delta delete may leave a trailing part-empty chunk behind, so the
  // append targets the chunk the slot index maps to, pushing a fresh one
  // only when the spine really ends here.
  if (ci == delta->chunks.size()) {
    delta->chunks.push_back(std::make_shared<DeltaChunk>());
  }
  DeltaChunk& tail = *delta->chunks[ci];
  tail.xs[at] = p.x;
  tail.ys[at] = p.y;
  tail.stable[at] = stable_id;
  // The remaining throwing operations are the two bookkeeping inserts;
  // order + rollback keep the store consistent if either runs out of
  // memory (everything after is noexcept).
  delta_coords_.insert(NormalizedKey(p));
  try {
    loc_.emplace(stable_id, Loc{Loc::kDelta,
                                static_cast<PointId>(delta->size)});
  } catch (...) {
    delta_coords_.erase(NormalizedKey(p));
    throw;
  }
  ++delta->size;
  next->delta_ = std::move(delta);
  PublishLocked(std::move(next));
  MaybeAutoCompactLocked();
  return stable_id;
}

bool DynamicPointDatabase::Erase(PointId id) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const auto it = loc_.find(id);
  if (it == loc_.end()) return false;
  auto next = std::make_shared<Snapshot>(*current_);
  next->version_ = next_version_++;
  const Loc loc = it->second;
  if (loc.kind == Loc::kBase) {
    const std::size_t words = (next->bundle_->db.size() + 63) / 64;
    auto tomb =
        next->tombstones_ != nullptr
            ? std::make_shared<std::vector<std::uint64_t>>(
                  *next->tombstones_)
            : std::make_shared<std::vector<std::uint64_t>>(words, 0);
    (*tomb)[loc.idx >> 6] |= std::uint64_t{1} << (loc.idx & 63);
    next->tombstones_ = std::move(tomb);
    --next->base_live_;
    ++tombstone_count_;
  } else {
    // Delta delete leaves no tombstone: swap-remove the buffer entry and
    // repoint the moved entry's location. Only the two touched chunks are
    // copied — the erased slot's chunk (rewritten by the swap) and the
    // tail chunk, whose freed slot a later insert will refill while older
    // snapshots may still read it; every other chunk stays shared.
    auto delta = std::make_shared<DeltaBuffer>(*next->delta_);
    constexpr std::size_t kCap = DeltaChunk::kCapacity;
    const std::size_t di = loc.idx;
    const std::size_t last = delta->size - 1;
    delta->chunks[last / kCap] =
        std::make_shared<DeltaChunk>(*delta->chunks[last / kCap]);
    if (di / kCap != last / kCap) {
      delta->chunks[di / kCap] =
          std::make_shared<DeltaChunk>(*delta->chunks[di / kCap]);
    }
    delta_coords_.erase(NormalizedKey(next->DeltaPoint(di)));
    if (di != last) {
      DeltaChunk& to = *delta->chunks[di / kCap];
      const DeltaChunk& from = *delta->chunks[last / kCap];
      to.xs[di % kCap] = from.xs[last % kCap];
      to.ys[di % kCap] = from.ys[last % kCap];
      to.stable[di % kCap] = from.stable[last % kCap];
      loc_.at(to.stable[di % kCap]).idx = static_cast<PointId>(di);
    }
    --delta->size;
    next->delta_ = std::move(delta);
  }
  loc_.erase(it);
  PublishLocked(std::move(next));
  MaybeAutoCompactLocked();
  return true;
}

std::size_t DynamicPointDatabase::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_->live_size();
}

void DynamicPointDatabase::Compact() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  CompactLocked();
}

void DynamicPointDatabase::PublishLocked(
    std::shared_ptr<const Snapshot> next) {
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(next);
}

void DynamicPointDatabase::CompactLocked() {
  // Pin the input version: everything below reads this snapshot while
  // concurrent queries keep pinning (and running on) the same one — the
  // reader lock is only taken for the final pointer swap, so the O(n log
  // n) rebuild never stalls snapshot().
  const std::shared_ptr<const Snapshot> pinned = current_;
  const Snapshot& snap = *pinned;
  if (snap.delta_size() == 0 && tombstone_count_ == 0) return;
  // Merge the live set, carrying each point's stable id alongside so the
  // rebuilt base's fresh Hilbert relabelling can be mapped back.
  std::vector<Point> merged;
  std::vector<PointId> merged_stable;
  merged.reserve(snap.live_size());
  merged_stable.reserve(snap.live_size());
  snap.ForEachLive([&](PointId stable_id, const Point& p) {
    merged.push_back(p);
    merged_stable.push_back(stable_id);
  });
  // The live set is pairwise distinct by the Insert invariant, so the
  // rebuild skips the construction-boundary check instead of re-proving
  // it; the build reuses the clustered bulk-load and the `hilbert_sorted`
  // Delaunay fast path wholesale.
  PointDatabase::Options rebuild_options = options_.base;
  rebuild_options.skip_distinctness_check = true;
  auto mutable_bundle =
      std::make_shared<BaseBundle>(std::move(merged), rebuild_options);
  mutable_bundle->db.set_simulated_fetch_ns(options_.simulated_fetch_ns);
  mutable_bundle->db.set_fetch_latency_model(options_.fetch_latency_model);
  std::shared_ptr<const BaseBundle> bundle = std::move(mutable_bundle);
  const std::size_t n = bundle->db.size();
  auto stable = std::make_shared<std::vector<PointId>>(n);
  // The location table is rebuilt off to the side and swapped in with the
  // snapshot: a mid-loop allocation failure must not leave loc_ half
  // repointed at a base that was never published.
  std::unordered_map<PointId, Loc> new_loc;
  new_loc.reserve(n);
  for (PointId id = 0; id < n; ++id) {
    const PointId stable_id = merged_stable[bundle->db.OriginalId(id)];
    (*stable)[id] = stable_id;
    new_loc.emplace(stable_id, Loc{Loc::kBase, id});
  }
  auto next = std::make_shared<Snapshot>();
  next->bundle_ = std::move(bundle);
  next->stable_of_internal_ = std::move(stable);
  next->base_live_ = n;
  next->delta_ = std::make_shared<const DeltaBuffer>();
  next->stable_limit_ = snap.stable_limit_;
  next->version_ = next_version_++;
  PublishLocked(std::move(next));
  loc_.swap(new_loc);
  delta_coords_.clear();
  tombstone_count_ = 0;
  ++compactions_;
}

void DynamicPointDatabase::MaybeAutoCompactLocked() {
  if (!options_.auto_compact) return;
  const std::size_t threshold =
      options_.compact_threshold > 0
          ? options_.compact_threshold
          : std::max<std::size_t>(256, current_->bundle_->db.size() / 4);
  if (current_->delta_size() + tombstone_count_ >= threshold) {
    CompactLocked();
  }
}

std::shared_ptr<const DynamicPointDatabase::Snapshot>
DynamicPointDatabase::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

std::optional<Point> DynamicPointDatabase::Find(PointId id) const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const auto it = loc_.find(id);
  if (it == loc_.end()) return std::nullopt;
  if (it->second.kind == Loc::kBase) {
    return current_->bundle_->db.points()[it->second.idx];
  }
  return current_->DeltaPoint(it->second.idx);
}

std::size_t DynamicPointDatabase::DeltaSize() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return current_->delta_size();
}

std::size_t DynamicPointDatabase::TombstoneCount() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return tombstone_count_;
}

std::uint64_t DynamicPointDatabase::Compactions() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return compactions_;
}

std::vector<PointId> DynamicPointDatabase::Query(const Polygon& area,
                                                 QueryContext& ctx) const {
  return Query(area, ctx, PlanHints{});
}

std::vector<PointId> DynamicPointDatabase::Query(
    const Polygon& area, QueryContext& ctx, const PlanHints& hints) const {
  return PlannedQuery()->RunPlanned(area, ctx, hints);
}

const PlannedAreaQuery* DynamicPointDatabase::PlannedQuery() const {
  std::call_once(planned_once_, [this] {
    planned_ = std::make_unique<PlannedAreaQuery>(
        [this] { return ShardedDatabase::Snapshot::Single(snapshot()); });
  });
  return planned_.get();
}

}  // namespace vaq
