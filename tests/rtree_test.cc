#include "index/rtree.h"

#include <algorithm>
#include <random>
#include <string>

#include <gtest/gtest.h>

namespace vaq {
namespace {

std::vector<Point> RandomPoints(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::vector<Point> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) points.push_back({dist(rng), dist(rng)});
  return points;
}

TEST(RTreeTest, EmptyTree) {
  RTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.Height(), 0);
  std::vector<PointId> out;
  tree.WindowQuery(Box::FromExtents(0, 0, 1, 1), &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tree.NearestNeighbor({0.5, 0.5}), kInvalidPointId);
}

TEST(RTreeTest, BulkLoadSmall) {
  RTree tree;
  tree.Build(std::vector<Point>{{0.1, 0.1}, {0.9, 0.9}, {0.5, 0.5}});
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_EQ(tree.Height(), 1);  // Fits in one leaf.
  std::string why;
  EXPECT_TRUE(tree.CheckInvariants(&why)) << why;
}

TEST(RTreeTest, BulkLoadInvariantsAtScale) {
  RTree tree;
  tree.Build(RandomPoints(20000, 1));
  EXPECT_EQ(tree.size(), 20000u);
  EXPECT_GE(tree.Height(), 3);
  std::string why;
  EXPECT_TRUE(tree.CheckInvariants(&why)) << why;
}

TEST(RTreeTest, DynamicInsertInvariants) {
  RTree tree;
  const auto points = RandomPoints(3000, 2);
  tree.Build({});
  for (std::size_t i = 0; i < points.size(); ++i) {
    tree.Insert(points[i], static_cast<PointId>(i));
  }
  EXPECT_EQ(tree.size(), points.size());
  std::string why;
  EXPECT_TRUE(tree.CheckInvariants(&why)) << why;

  // Every inserted point must be findable by an exact window query.
  for (std::size_t i = 0; i < 100; ++i) {
    std::vector<PointId> out;
    tree.WindowQuery(Box(points[i]), &out);
    EXPECT_NE(std::find(out.begin(), out.end(), static_cast<PointId>(i)),
              out.end());
  }
}

TEST(RTreeTest, InsertIntoBulkLoadedTree) {
  RTree tree;
  auto points = RandomPoints(5000, 3);
  tree.Build(points);
  const auto extra = RandomPoints(500, 4);
  for (std::size_t i = 0; i < extra.size(); ++i) {
    tree.Insert(extra[i], static_cast<PointId>(points.size() + i));
  }
  EXPECT_EQ(tree.size(), 5500u);
  std::string why;
  EXPECT_TRUE(tree.CheckInvariants(&why)) << why;
}

TEST(RTreeTest, WindowQueryMatchesBruteForce) {
  const auto points = RandomPoints(5000, 5);
  RTree tree;
  tree.Build(points);
  std::mt19937_64 rng(6);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  for (int q = 0; q < 50; ++q) {
    const double x0 = dist(rng), y0 = dist(rng);
    const Box window =
        Box::FromExtents(x0, y0, x0 + dist(rng) * 0.3, y0 + dist(rng) * 0.3);
    std::vector<PointId> got;
    tree.WindowQuery(window, &got);
    std::sort(got.begin(), got.end());
    std::vector<PointId> expect;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (window.Contains(points[i])) {
        expect.push_back(static_cast<PointId>(i));
      }
    }
    EXPECT_EQ(got, expect);
  }
}

TEST(RTreeTest, NearestNeighborMatchesBruteForce) {
  const auto points = RandomPoints(3000, 7);
  RTree tree;
  tree.Build(points);
  std::mt19937_64 rng(8);
  std::uniform_real_distribution<double> dist(-0.2, 1.2);
  for (int q = 0; q < 100; ++q) {
    const Point query{dist(rng), dist(rng)};
    const PointId got = tree.NearestNeighbor(query);
    double best = 1e300;
    PointId expect = kInvalidPointId;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const double d = SquaredDistance(points[i], query);
      if (d < best) {
        best = d;
        expect = static_cast<PointId>(i);
      }
    }
    EXPECT_EQ(SquaredDistance(points[got], query), best);
    EXPECT_EQ(got, expect);
  }
}

TEST(RTreeTest, KnnOrderedByDistance) {
  const auto points = RandomPoints(2000, 9);
  RTree tree;
  tree.Build(points);
  const Point query{0.5, 0.5};
  std::vector<PointId> got;
  tree.KNearestNeighbors(query, 25, &got);
  ASSERT_EQ(got.size(), 25u);
  for (std::size_t i = 1; i < got.size(); ++i) {
    EXPECT_LE(SquaredDistance(points[got[i - 1]], query),
              SquaredDistance(points[got[i]], query));
  }
  // Matches a brute-force top-k.
  std::vector<PointId> all(points.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<PointId>(i);
  std::sort(all.begin(), all.end(), [&](PointId a, PointId b) {
    return SquaredDistance(points[a], query) <
           SquaredDistance(points[b], query);
  });
  all.resize(25);
  EXPECT_EQ(got, all);
}

TEST(RTreeTest, KnnMoreThanSizeReturnsAll) {
  RTree tree;
  tree.Build(RandomPoints(10, 10));
  std::vector<PointId> got;
  tree.KNearestNeighbors({0.5, 0.5}, 100, &got);
  EXPECT_EQ(got.size(), 10u);
}

TEST(RTreeTest, StatsCountNodeAccesses) {
  RTree tree;
  tree.Build(RandomPoints(10000, 11));
  IndexStats stats;
  std::vector<PointId> out;
  tree.WindowQuery(Box::FromExtents(0.4, 0.4, 0.6, 0.6), &out, &stats);
  EXPECT_GT(stats.node_accesses, 0u);
  EXPECT_EQ(stats.entries_reported, out.size());
  stats.Reset();
  EXPECT_EQ(stats.node_accesses, 0u);
}

TEST(RTreeTest, DuplicateCoordinatesSupported) {
  // The R-tree itself has no distinctness requirement.
  std::vector<Point> points(50, Point{0.5, 0.5});
  RTree tree;
  tree.Build(points);
  std::vector<PointId> out;
  tree.WindowQuery(Box(Point{0.5, 0.5}), &out);
  EXPECT_EQ(out.size(), 50u);
  std::string why;
  EXPECT_TRUE(tree.CheckInvariants(&why)) << why;
}

}  // namespace
}  // namespace vaq
