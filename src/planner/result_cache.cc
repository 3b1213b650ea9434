#include "planner/result_cache.h"

#include <bit>
#include <utility>

namespace vaq {

std::uint64_t HashPolygonBits(const Polygon& area) {
  // FNV-1a, 64-bit.
  std::uint64_t h = 1469598103934665603ull;
  const auto Mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  Mix(static_cast<std::uint64_t>(area.size()));
  for (const Point& v : area.vertices()) {
    Mix(std::bit_cast<std::uint64_t>(v.x));
    Mix(std::bit_cast<std::uint64_t>(v.y));
  }
  return h;
}

std::shared_ptr<const std::vector<PointId>> ResultCache::Lookup(
    const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->ids;
}

bool ResultCache::Admit(std::uint64_t polygon_hash) {
  if (capacity_ == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const auto seen = seen_index_.find(polygon_hash);
  if (seen != seen_index_.end()) {
    seen_lru_.splice(seen_lru_.begin(), seen_lru_, seen->second);
    return true;
  }
  seen_lru_.push_front(polygon_hash);
  seen_index_.emplace(polygon_hash, seen_lru_.begin());
  while (seen_lru_.size() > seen_capacity_) {
    seen_index_.erase(seen_lru_.back());
    seen_lru_.pop_back();
  }
  return false;
}

void ResultCache::Insert(const Key& key, std::span<const PointId> ids,
                         bool admit) {
  if (capacity_ == 0) return;
  const auto Copy = [ids] {
    return std::make_shared<const std::vector<PointId>>(ids.begin(),
                                                        ids.end());
  };
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    ++admitted_;
    it->second->ids = Copy();
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  // Second-hit admission: a first-seen polygon's offers are declined —
  // one-shot polygons pay 8 bytes of admission memory, not a cache slot
  // (and not an eviction of a proven repeater).
  if (!admit) {
    ++declined_;
    return;
  }
  ++admitted_;
  lru_.push_front(Entry{key, Copy()});
  index_.emplace(key, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

std::uint64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::uint64_t ResultCache::admitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_;
}

std::uint64_t ResultCache::declined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return declined_;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace vaq
