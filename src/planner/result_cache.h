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

/// Snapshot-keyed LRU cache of query results.
///
/// The key is (snapshot version, polygon bit-hash). Versions come from the
/// COW snapshot counters (`DynamicPointDatabase::Snapshot::version`,
/// `ShardedDatabase::Snapshot::version`): every published mutation bumps
/// the version, so *invalidation is free* — entries for older versions
/// simply stop being looked up and age out of the LRU tail. There is no
/// epoch scan, no writer hook, nothing on the mutation path.
///
/// Values are shared immutable id vectors: a hit hands back the pointer,
/// the caller copies if it must mutate. Capacity-bounded; thread-safe
/// (single internal mutex — entries are small and lookups are rare
/// relative to query work).
///
/// **Second-hit admission.** A first-seen polygon is *not* cached:
/// `Insert` records its bit-hash in a bounded recency set and drops the
/// ids; only a polygon whose hash has been seen before is admitted. A
/// scan of one-shot polygons (the common exploratory workload) therefore
/// cannot evict the genuinely repeating entries — it churns the hash set
/// (8 bytes per polygon) instead of the result LRU. The seen set is keyed
/// on the hash alone, not (version, hash): a polygon that repeats across
/// mutations is exactly the repeater the cache exists for, so the new
/// version's first execution is admitted immediately.
class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity = 128)
      : capacity_(capacity), seen_capacity_(capacity * 8) {}

  struct Key {
    std::uint64_t version = 0;
    std::uint64_t polygon_hash = 0;
    bool operator==(const Key& o) const {
      return version == o.version && polygon_hash == o.polygon_hash;
    }
  };

  /// Returns the cached ids and refreshes LRU recency, or null on miss.
  std::shared_ptr<const std::vector<PointId>> Lookup(const Key& key);

  /// Offers `ids` for caching under `key`. Admitted — copied and stored,
  /// evicting the least recently used entry beyond capacity — only when
  /// the polygon hash was offered before (second-hit admission, above) or
  /// the key is already resident (refresh). A declined offer records the
  /// hash and copies nothing. A capacity of 0 disables the cache entirely.
  void Insert(const Key& key, std::span<const PointId> ids);

  /// Cumulative counters (monotonic; for stats plumbing and tests).
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
      std::uint64_t x = k.version * 0x9e3779b97f4a7c15ull ^ k.polygon_hash;
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
