#ifndef VAQ_PLANNER_RESULT_CACHE_H_
#define VAQ_PLANNER_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/point_database.h"
#include "geometry/polygon.h"

namespace vaq {

/// Exact bit-hash of a polygon: FNV-1a over the vertex count and the raw
/// IEEE-754 bits of every coordinate in order. Two polygons collide in
/// the cache key only if every vertex is bit-identical in the same order
/// — the only regime in which a cached answer is guaranteed equal to a
/// fresh run (re-ordered or perturbed vertices can change degenerate-edge
/// behaviour, so they intentionally miss).
std::uint64_t HashPolygonBits(const Polygon& area);

/// LRU cache of base passes, keyed on (base generation, polygon bit-hash).
///
/// An entry holds the base-internal ids one query leg's base pass
/// (`Snapshot::BaseQuery(method).Run`) returned for the polygon, ordered
/// by ascending stable id (`OrderBasePassByStableId`): a hit is finished
/// by one sequential tombstone-filter-and-remap pass whose output is
/// already sorted, so serving it costs O(answer), not a sort. The base
/// is immutable for a whole generation (`Snapshot::base_generation()`),
/// so the entry stays exact across every insert and erase of that
/// generation: each query applies its own snapshot's tombstones and delta
/// to a copy (`FinishDynamicSnapshotLeg`). Only a compaction, which builds
/// a new base with a new generation, retires entries — they stop being
/// looked up and age out of the LRU tail. There is no epoch scan, no
/// writer hook, nothing on the mutation path. The method is not part of
/// the key: every method answers the same query over the same base, and
/// the planner may switch methods for a polygon.
///
/// Values are shared immutable id vectors: a hit hands back the pointer,
/// the caller copies if it must mutate. Capacity-bounded; thread-safe
/// (single internal mutex — entries are small and lookups are rare
/// relative to query work).
///
/// **Second-hit admission.** A first-seen polygon is *not* cached: the
/// query's `Admit` verdict is false, so its offers record nothing but the
/// hash in a bounded recency set; only a polygon whose hash an earlier
/// query recorded is admitted. A scan of one-shot polygons (the common
/// exploratory workload) therefore cannot evict the genuinely repeating
/// entries — it churns the hash set (8 bytes per polygon) instead of the
/// result LRU. The verdict is taken once per query, so the K legs of a
/// sharded first-seen query are all declined rather than leg 2 counting
/// leg 1 as its first sighting. The seen set is keyed on the hash alone:
/// a polygon that repeats across compactions is exactly the repeater the
/// cache exists for, so its first run against a new base is admitted.
class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity = 128)
      : capacity_(capacity), seen_capacity_(capacity * 8) {}

  struct Key {
    std::uint64_t generation = 0;
    std::uint64_t polygon_hash = 0;
    bool operator==(const Key& o) const {
      return generation == o.generation && polygon_hash == o.polygon_hash;
    }
  };

  /// Returns the cached ids and refreshes LRU recency, or null on miss.
  std::shared_ptr<const std::vector<PointId>> Lookup(const Key& key);

  /// The second-hit admission verdict of one query: records
  /// `polygon_hash` in the seen set and returns whether an earlier call
  /// had recorded it. Take it once per query, before its legs offer.
  bool Admit(std::uint64_t polygon_hash);

  /// Offers `ids` under `key`. Stored — copied, evicting the least
  /// recently used entry beyond capacity — when `admit` (the query's
  /// `Admit` verdict) holds or the key is already resident (refresh). A
  /// declined offer copies nothing. A capacity of 0 disables the cache.
  void Insert(const Key& key, std::span<const PointId> ids, bool admit);

  /// Cumulative counters (monotonic; for stats plumbing and tests).
  /// `hits`/`misses` count `Lookup` outcomes, one per query leg.
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  /// Admission outcomes of `Insert`: stored/refreshed vs. dropped as
  /// first-seen. `admitted() + declined()` = total offers.
  std::uint64_t admitted() const;
  std::uint64_t declined() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // Mix the two words; splitmix64-style finalizer.
      std::uint64_t x = k.generation * 0x9e3779b97f4a7c15ull ^ k.polygon_hash;
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      return static_cast<std::size_t>(x);
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const std::vector<PointId>> ids;
  };

  const std::size_t capacity_;
  /// Bound of the seen-hash set: 8x the entry capacity, so the admission
  /// memory outlives the result LRU under churn (a repeating polygon
  /// competing with up to 8x its share of one-shots still reaches its
  /// second offer remembered) while staying 8 bytes per slot.
  const std::size_t seen_capacity_;
  mutable std::mutex mu_;
  /// Front = most recent. The map points into the list.
  std::list<Entry> lru_;
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  /// Recency list + index of polygon hashes offered at least once.
  std::list<std::uint64_t> seen_lru_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
      seen_index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t declined_ = 0;
};

}  // namespace vaq

#endif  // VAQ_PLANNER_RESULT_CACHE_H_
