// The LRU page cache (storage/page_store.h) under scripted access
// sequences: eviction order, prefetch hints, exact hit/miss counters, and
// the accounting invariant `page_cache_hits + page_cache_misses ==
// pages_touched` that the per-query stats plumbing relies on.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/page_format.h"
#include "storage/page_store.h"

namespace vaq {
namespace {

/// 512-byte pages -> 32 points per page. The fixture writes `kPages`
/// pages of deterministic coordinates (x = id, y = -id) and removes the
/// file on teardown.
class PageStoreTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kPageSize = 512;
  static constexpr std::size_t kPpp = 32;
  static constexpr std::size_t kPages = 16;

  void SetUp() override {
    const std::size_t count = kPages * kPpp;
    std::vector<Point> points(count);
    for (std::size_t i = 0; i < count; ++i) {
      points[i] = {static_cast<double>(i), -static_cast<double>(i)};
    }
    path_ = (std::filesystem::temp_directory_path() /
             ("vaq_page_store_test_" + std::to_string(::getpid()) + ".vpag"))
                .string();
    WritePageFile(path_, points, kPageSize);
  }

  void TearDown() override { std::filesystem::remove(path_); }

  std::unique_ptr<PageStore> OpenCache(std::size_t cache_pages,
                                       PageMissMode mode =
                                           PageMissMode::kPread) {
    PageStore::Options options;
    options.cache_pages = cache_pages;
    options.miss_mode = mode;
    return PageStore::Open(path_, options);
  }

  /// First point id of `page`.
  static PointId IdOnPage(std::size_t page) {
    return static_cast<PointId>(page * kPpp);
  }

  std::string path_;
};

TEST_F(PageStoreTest, GatherReadsExactCoordinates) {
  for (const PageMissMode mode :
       {PageMissMode::kPread, PageMissMode::kMmapCopy}) {
    const auto store = OpenCache(4, mode);
    // A gather spanning pages, unaligned, with a same-page run.
    const std::vector<PointId> ids = {0, 1, 31, 32, 33, 100, 101, 511, 5};
    std::vector<double> xs(ids.size()), ys(ids.size());
    QueryStats stats;
    store->Gather(ids.data(), ids.size(), xs.data(), ys.data(), &stats);
    for (std::size_t j = 0; j < ids.size(); ++j) {
      EXPECT_EQ(xs[j], static_cast<double>(ids[j]));
      EXPECT_EQ(ys[j], -static_cast<double>(ids[j]));
    }
    EXPECT_EQ(stats.page_cache_hits + stats.page_cache_misses,
              stats.pages_touched);
  }
}

TEST_F(PageStoreTest, ScriptedSequenceCountsExactly) {
  const auto store = OpenCache(2);
  QueryStats stats;
  // Pages: A=0 B=1 C=2. Cache holds 2.
  store->GetPoint(IdOnPage(0), &stats);  // A: miss (cold).
  store->GetPoint(IdOnPage(1), &stats);  // B: miss (cold).
  store->GetPoint(IdOnPage(0), &stats);  // A: hit. LRU order: A, B.
  store->GetPoint(IdOnPage(2), &stats);  // C: miss, evicts B (LRU).
  EXPECT_FALSE(store->Cached(1));
  EXPECT_TRUE(store->Cached(0));
  EXPECT_TRUE(store->Cached(2));
  store->GetPoint(IdOnPage(1), &stats);  // B: miss again, evicts A.
  EXPECT_FALSE(store->Cached(0));

  EXPECT_EQ(stats.pages_touched, 5u);
  EXPECT_EQ(stats.page_cache_hits, 1u);
  EXPECT_EQ(stats.page_cache_misses, 4u);
  const PageIoCounters c = store->counters();
  EXPECT_EQ(c.pages_touched, 5u);
  EXPECT_EQ(c.cache_hits, 1u);
  EXPECT_EQ(c.cache_misses, 4u);
  EXPECT_EQ(c.evictions, 2u);
}

TEST_F(PageStoreTest, EvictionFollowsLruOrder) {
  const auto store = OpenCache(3);
  store->GetPoint(IdOnPage(0), nullptr);
  store->GetPoint(IdOnPage(1), nullptr);
  store->GetPoint(IdOnPage(2), nullptr);
  // Touch 0 and 2; page 1 is now least recent.
  store->GetPoint(IdOnPage(0), nullptr);
  store->GetPoint(IdOnPage(2), nullptr);
  store->GetPoint(IdOnPage(3), nullptr);  // Evicts 1.
  EXPECT_TRUE(store->Cached(0));
  EXPECT_FALSE(store->Cached(1));
  EXPECT_TRUE(store->Cached(2));
  EXPECT_TRUE(store->Cached(3));
  store->GetPoint(IdOnPage(4), nullptr);  // Evicts 0 (next LRU).
  EXPECT_FALSE(store->Cached(0));
  EXPECT_TRUE(store->Cached(2));
}

TEST_F(PageStoreTest, GatherChargesOncePerPageRun) {
  const auto store = OpenCache(8);
  // 3 runs over 2 distinct pages: [page0 x3][page1 x2][page0 x1].
  const std::vector<PointId> ids = {0, 1, 2, IdOnPage(1), IdOnPage(1) + 1, 3};
  std::vector<double> xs(ids.size()), ys(ids.size());
  QueryStats stats;
  store->Gather(ids.data(), ids.size(), xs.data(), ys.data(), &stats);
  EXPECT_EQ(stats.pages_touched, 3u);       // One per run, not per id.
  EXPECT_EQ(stats.page_cache_misses, 2u);   // Two distinct pages cold.
  EXPECT_EQ(stats.page_cache_hits, 1u);     // The page-0 revisit.
}

TEST_F(PageStoreTest, HitMissInvariantHoldsUnderRandomTraffic) {
  const auto store = OpenCache(3);
  QueryStats stats;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  std::vector<PointId> ids(64);
  std::vector<double> xs(ids.size()), ys(ids.size());
  for (int round = 0; round < 50; ++round) {
    for (auto& id : ids) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      id = static_cast<PointId>((state >> 33) % (kPages * kPpp));
    }
    store->Gather(ids.data(), ids.size(), xs.data(), ys.data(), &stats);
    ASSERT_EQ(stats.page_cache_hits + stats.page_cache_misses,
              stats.pages_touched);
  }
  const PageIoCounters c = store->counters();
  EXPECT_EQ(c.cache_hits + c.cache_misses, c.pages_touched);
  EXPECT_EQ(c.pages_touched, stats.pages_touched);
}

TEST_F(PageStoreTest, PrefetchMakesNextGatherHitWithoutAccounting) {
  const auto store = OpenCache(8);
  std::vector<PointId> ids;
  for (std::size_t p = 0; p < 4; ++p) ids.push_back(IdOnPage(p));
  // A hint is not an access: it only nudges the kernel, so it must not
  // move the query-visible counters or fill a frame — frames are filled
  // only on the gather's checked miss path.
  store->Prefetch(ids.data(), ids.size());
  const PageIoCounters after_hint = store->counters();
  EXPECT_EQ(after_hint.pages_touched, 0u);
  EXPECT_EQ(after_hint.cache_hits, 0u);
  EXPECT_EQ(after_hint.cache_misses, 0u);
  for (std::size_t p = 0; p < 4; ++p) EXPECT_FALSE(store->Cached(p));

  QueryStats stats;
  std::vector<double> xs(ids.size()), ys(ids.size());
  store->Gather(ids.data(), ids.size(), xs.data(), ys.data(), &stats);
  EXPECT_EQ(stats.pages_touched, 4u);
  EXPECT_EQ(stats.page_cache_misses, 4u);
  for (std::size_t p = 0; p < 4; ++p) EXPECT_TRUE(store->Cached(p));
}

TEST_F(PageStoreTest, ResetCountersClearsLifetimeTotals) {
  const auto store = OpenCache(2);
  store->GetPoint(IdOnPage(0), nullptr);
  store->GetPoint(IdOnPage(1), nullptr);
  EXPECT_GT(store->counters().pages_touched, 0u);
  store->ResetCounters();
  const PageIoCounters c = store->counters();
  EXPECT_EQ(c.pages_touched, 0u);
  EXPECT_EQ(c.cache_hits, 0u);
  EXPECT_EQ(c.cache_misses, 0u);
  EXPECT_EQ(c.evictions, 0u);
}

TEST_F(PageStoreTest, ArenaIsSizedToTheFile) {
  // A 4-page file under the default 4096-frame capacity gets 4 frames,
  // and a repeated full scan counts exactly as an uncapped cache would:
  // one cold miss per page, then hits, never an eviction.
  constexpr std::size_t kSmallPages = 4;
  std::vector<Point> points(kSmallPages * kPpp);
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i] = {static_cast<double>(i), -static_cast<double>(i)};
  }
  const std::string small = path_ + ".small";
  WritePageFile(small, points, kPageSize);
  {
    PageStore::Options options;
    options.cache_pages = 4096;
    const auto store = PageStore::Open(small, options);
    EXPECT_EQ(store->cache_pages(), kSmallPages);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t p = 0; p < kSmallPages; ++p) {
        EXPECT_EQ(store->GetPoint(IdOnPage(p), nullptr).x,
                  static_cast<double>(IdOnPage(p)));
      }
    }
    const PageIoCounters c = store->counters();
    EXPECT_EQ(c.pages_touched, 2 * kSmallPages);
    EXPECT_EQ(c.cache_misses, kSmallPages);
    EXPECT_EQ(c.cache_hits, kSmallPages);
    EXPECT_EQ(c.evictions, 0u);
  }
  std::filesystem::remove(small);
}

}  // namespace
}  // namespace vaq
