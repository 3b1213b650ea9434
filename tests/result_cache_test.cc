#include "planner/result_cache.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/polygon.h"

namespace vaq {
namespace {

std::vector<PointId> Ids(std::initializer_list<PointId> ids) { return ids; }

Polygon Square(double x0, double y0, double side) {
  return Polygon{
      {{x0, y0}, {x0 + side, y0}, {x0 + side, y0 + side}, {x0, y0 + side}}};
}

/// One single-leg query's offer: its admission verdict, then the offer.
void Offer(ResultCache& cache, const ResultCache::Key& key,
           const std::vector<PointId>& ids) {
  cache.Insert(key, ids, cache.Admit(key.polygon_hash));
}

/// Stores an entry past second-hit admission: the first offer of a hash
/// is declined by design, the second is admitted.
void Admit(ResultCache& cache, const ResultCache::Key& key,
           const std::vector<PointId>& ids) {
  Offer(cache, key, ids);
  Offer(cache, key, ids);
}

TEST(HashPolygonBitsTest, StableAndSensitiveToEveryBit) {
  const Polygon a = Square(0.1, 0.2, 0.3);
  EXPECT_EQ(HashPolygonBits(a), HashPolygonBits(Square(0.1, 0.2, 0.3)));

  // A one-ulp nudge of a single coordinate must change the hash: the
  // cache may only hit when a fresh run would be bit-identical, and
  // degenerate-edge classification can flip on the last bit.
  Polygon nudged = a;
  std::vector<Point> vertices(nudged.vertices().begin(),
                              nudged.vertices().end());
  vertices[2].x = std::nextafter(vertices[2].x, 2.0);
  nudged = Polygon{vertices};
  EXPECT_NE(HashPolygonBits(a), HashPolygonBits(nudged));

  // Same vertex set, rotated start: geometrically identical ring, but
  // intentionally a different key (edge order affects tie-breaking).
  const Polygon rotated{
      {{0.4, 0.2}, {0.4, 0.5}, {0.1, 0.5}, {0.1, 0.2}}};
  EXPECT_NE(HashPolygonBits(a), HashPolygonBits(rotated));
}

TEST(HashPolygonBitsTest, VertexCountFeedsTheHash) {
  // A degenerate extra collinear vertex keeps the shape but must miss.
  const Polygon tri{{{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}}};
  const Polygon tri4{
      {{0.0, 0.0}, {0.5, 0.0}, {1.0, 0.0}, {0.0, 1.0}}};
  EXPECT_NE(HashPolygonBits(tri), HashPolygonBits(tri4));
}

TEST(ResultCacheTest, FirstOfferIsDeclinedSecondIsAdmitted) {
  // Second-hit admission: a never-seen polygon hash is recorded and its
  // ids dropped — a scan of one-shot polygons must not occupy (or evict)
  // cache slots. The second offer of the same hash is stored.
  ResultCache cache(4);
  const ResultCache::Key key{7, 42};
  EXPECT_EQ(cache.Lookup(key), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  Offer(cache, key, Ids({1, 2, 3}));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.declined(), 1u);
  EXPECT_EQ(cache.Lookup(key), nullptr)
      << "a first-seen polygon must not be cached";
  Offer(cache, key, Ids({1, 2, 3}));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.admitted(), 1u);
  const auto found = cache.Lookup(key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, (std::vector<PointId>{1, 2, 3}));
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ResultCacheTest, DeclinedOfferLeavesCacheAndCountersUntouched) {
  // A declined offer only records the polygon hash: no entry, no copy of
  // the ids, and only `declined` moves — the lookup counters, `admitted`
  // and the resident entries stay exactly as they were.
  ResultCache cache(4);
  Admit(cache, {1, 7}, Ids({1, 2}));
  ASSERT_NE(cache.Lookup({1, 7}), nullptr);
  EXPECT_EQ(cache.Lookup({1, 8}), nullptr);
  const std::size_t size = cache.size();
  const std::uint64_t hits = cache.hits();
  const std::uint64_t misses = cache.misses();
  const std::uint64_t admitted = cache.admitted();
  const std::uint64_t declined = cache.declined();

  const std::vector<PointId> big(10000, 3);
  Offer(cache, {1, 8}, big);  // First offer of hash 8: declined.

  EXPECT_EQ(cache.size(), size);
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_EQ(cache.admitted(), admitted);
  EXPECT_EQ(cache.declined(), declined + 1);
  // The resident entry is untouched, and the declined key did not land.
  const auto kept = cache.Lookup({1, 7});
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(*kept, (std::vector<PointId>{1, 2}));
  EXPECT_EQ(cache.Lookup({1, 8}), nullptr);
}

TEST(ResultCacheTest, AdmittedEntryOwnsACopyOfTheOfferedIds) {
  // Admission copies: the caller's vector may change or die afterwards
  // without touching what the cache serves.
  ResultCache cache(4);
  std::vector<PointId> ids = Ids({4, 5, 6});
  Admit(cache, {1, 9}, ids);
  ids.assign({7});
  const auto found = cache.Lookup({1, 9});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, (std::vector<PointId>{4, 5, 6}));
}

TEST(ResultCacheTest, SeenHashesSpanVersions) {
  // The admission memory is keyed on the polygon hash alone: a polygon
  // that repeats across compactions re-misses (new base generation) but
  // is admitted on that generation's *first* execution — it already
  // proved it repeats.
  ResultCache cache(4);
  Admit(cache, {1, 99}, Ids({10}));
  ASSERT_NE(cache.Lookup({1, 99}), nullptr);
  Offer(cache, {2, 99}, Ids({10, 11}));  // New generation, known hash.
  const auto v2 = cache.Lookup({2, 99});
  ASSERT_NE(v2, nullptr) << "a known hash must be admitted on first offer "
                            "under a new generation";
  EXPECT_EQ(v2->size(), 2u);
}

TEST(ResultCacheTest, VersionIsPartOfTheKey) {
  // The whole invalidation story: a new base generation misses even for
  // the same polygon hash, and the old entry keeps serving readers still
  // pinned on a snapshot of the old base.
  ResultCache cache(4);
  Admit(cache, {1, 99}, Ids({10}));
  EXPECT_EQ(cache.Lookup({2, 99}), nullptr);
  ASSERT_NE(cache.Lookup({1, 99}), nullptr);
  Admit(cache, {2, 99}, Ids({10, 11}));
  EXPECT_EQ(cache.Lookup({1, 99})->size(), 1u);
  EXPECT_EQ(cache.Lookup({2, 99})->size(), 2u);
}

TEST(ResultCacheTest, LruEvictsTheColdestEntry) {
  ResultCache cache(2);
  Admit(cache, {1, 1}, Ids({1}));
  Admit(cache, {1, 2}, Ids({2}));
  // Touch (1,1) so (1,2) is now least recently used.
  ASSERT_NE(cache.Lookup({1, 1}), nullptr);
  Admit(cache, {1, 3}, Ids({3}));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup({1, 2}), nullptr);
  EXPECT_NE(cache.Lookup({1, 1}), nullptr);
  EXPECT_NE(cache.Lookup({1, 3}), nullptr);
}

TEST(ResultCacheTest, OneShotScanDoesNotEvictRepeaters) {
  // The eviction-pressure case the admission policy exists for: a hot
  // entry that proved it repeats, then a scan of `capacity * 4` distinct
  // one-shot polygons. Pre-admission-policy, the scan would sweep the hot
  // entry out of the 2-slot LRU; with second-hit admission every one-shot
  // offer is declined, so the hot entry survives untouched.
  ResultCache cache(2);
  Admit(cache, {1, 7000}, Ids({1, 2, 3}));
  ASSERT_NE(cache.Lookup({1, 7000}), nullptr);

  for (std::uint64_t i = 0; i < 8; ++i) {
    const ResultCache::Key one_shot{1, 100 + i};
    EXPECT_EQ(cache.Lookup(one_shot), nullptr);
    Offer(cache, one_shot, Ids({static_cast<PointId>(i)}));
  }
  EXPECT_EQ(cache.size(), 1u) << "one-shot offers must not occupy slots";
  ASSERT_NE(cache.Lookup({1, 7000}), nullptr)
      << "the proven repeater must survive the scan";
  EXPECT_EQ(cache.declined(), 8u + 1u);  // 8 one-shots + the hot first offer.
}

TEST(ResultCacheTest, SeenSetIsBoundedUnderUnboundedScan) {
  // The admission memory itself is bounded (8x capacity): an unbounded
  // stream of distinct polygons churns it without growing it, and an
  // entry evicted from the seen set loses its admission credit — its
  // next offer is a (declined) first offer again.
  ResultCache cache(2);  // seen capacity = 16.
  Offer(cache, {1, 5555}, Ids({9}));  // Hash 5555 recorded.
  for (std::uint64_t i = 0; i < 64; ++i) {
    Offer(cache, {1, 10000 + i}, Ids({static_cast<PointId>(i)}));
  }
  // 5555's credit was swept out by 64 distinct hashes through a 16-slot
  // set; this offer is declined (recorded again), not admitted.
  Offer(cache, {1, 5555}, Ids({9}));
  EXPECT_EQ(cache.Lookup({1, 5555}), nullptr);
  EXPECT_EQ(cache.admitted(), 0u);
  // And the very next offer is the second hit: admitted.
  Offer(cache, {1, 5555}, Ids({9}));
  EXPECT_NE(cache.Lookup({1, 5555}), nullptr);
}

TEST(ResultCacheTest, ReinsertRefreshesInsteadOfDuplicating) {
  ResultCache cache(2);
  Admit(cache, {1, 1}, Ids({1}));
  Offer(cache, {1, 1}, Ids({1, 2}));  // Resident key: refresh, not dup.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Lookup({1, 1})->size(), 2u);
}

TEST(ResultCacheTest, ZeroCapacityDisablesEverything) {
  ResultCache cache(0);
  Offer(cache, {1, 1}, Ids({1}));
  Offer(cache, {1, 1}, Ids({1}));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup({1, 1}), nullptr);
}

TEST(ResultCacheTest, HitHandsBackSharedOwnership) {
  // An evicted entry's ids survive while a reader still holds them.
  ResultCache cache(1);
  Admit(cache, {1, 1}, Ids({5, 6}));
  const auto held = cache.Lookup({1, 1});
  Admit(cache, {1, 2}, Ids({7}));
  EXPECT_EQ(cache.Lookup({1, 1}), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, (std::vector<PointId>{5, 6}));
}

}  // namespace
}  // namespace vaq
