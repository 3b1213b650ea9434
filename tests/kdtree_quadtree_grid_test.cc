// Implementation-specific tests for the non-R-tree indexes (shared
// behavioural properties live in index_property_test.cc).

#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "index/grid_index.h"
#include "index/kdtree.h"
#include "index/quadtree.h"

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

// --- KDTree ---

TEST(KDTreeTest, EmptyTree) {
  KDTree tree;
  tree.Build({});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.NearestNeighbor({0, 0}), kInvalidPointId);
  std::vector<PointId> out;
  tree.WindowQuery(Box::FromExtents(0, 0, 1, 1), &out);
  EXPECT_TRUE(out.empty());
}

TEST(KDTreeTest, SinglePoint) {
  KDTree tree;
  tree.Build(std::vector<Point>{{0.3, 0.7}});
  EXPECT_EQ(tree.NearestNeighbor({0, 0}), 0u);
  std::vector<PointId> out;
  tree.WindowQuery(Box::FromExtents(0, 0.5, 0.5, 1), &out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(KDTreeTest, LeafSizeOneStillCorrect) {
  KDTree tree(/*leaf_size=*/1);
  const auto points = RandomPoints(513, 21);
  tree.Build(points);
  const Point q{0.4, 0.6};
  const PointId got = tree.NearestNeighbor(q);
  double best = 1e300;
  for (const Point& p : points) best = std::min(best, SquaredDistance(p, q));
  EXPECT_DOUBLE_EQ(SquaredDistance(points[got], q), best);
}

TEST(KDTreeTest, RebuildReplacesContent) {
  KDTree tree;
  tree.Build(RandomPoints(100, 22));
  tree.Build(RandomPoints(7, 23));
  EXPECT_EQ(tree.size(), 7u);
  std::vector<PointId> out;
  tree.WindowQuery(Box::FromExtents(-1, -1, 2, 2), &out);
  EXPECT_EQ(out.size(), 7u);
}

TEST(KDTreeTest, CollinearInputHandled) {
  std::vector<Point> points;
  for (int i = 0; i < 200; ++i) points.push_back({i * 0.005, 0.5});
  KDTree tree;
  tree.Build(points);
  EXPECT_EQ(tree.NearestNeighbor({0.5024, 0.5}), 100u);
}

// --- Quadtree ---

TEST(QuadtreeTest, SplitsBeyondBucketCapacity) {
  Quadtree tree(/*bucket_capacity=*/4);
  tree.Build(RandomPoints(1000, 24));
  EXPECT_EQ(tree.size(), 1000u);
}

TEST(QuadtreeTest, DeepDuplicatesCappedByMaxDepth) {
  // 100 points in a tiny cluster force max-depth overflow buckets.
  std::vector<Point> points;
  std::mt19937_64 rng(25);
  std::uniform_real_distribution<double> dist(0.5, 0.5 + 1e-12);
  for (int i = 0; i < 100; ++i) points.push_back({dist(rng), dist(rng)});
  points.push_back({0.1, 0.1});
  Quadtree tree(/*bucket_capacity=*/4, /*max_depth=*/8);
  tree.Build(points);
  EXPECT_EQ(tree.size(), points.size());
  std::vector<PointId> out;
  tree.WindowQuery(Box::FromExtents(0.4, 0.4, 0.6, 0.6), &out);
  EXPECT_EQ(out.size(), 100u);
}

TEST(QuadtreeTest, DynamicInsertAfterBuild) {
  Quadtree tree;
  tree.Build(RandomPoints(50, 26), Box::FromExtents(0, 0, 1, 1));
  tree.Insert({0.123, 0.456}, 50);
  EXPECT_EQ(tree.size(), 51u);
  std::vector<PointId> out;
  tree.WindowQuery(Box(Point{0.123, 0.456}), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 50u);
}

// --- GridIndex ---

TEST(GridIndexTest, SinglePointAndEmpty) {
  GridIndex grid;
  grid.Build({});
  EXPECT_EQ(grid.NearestNeighbor({0.5, 0.5}), kInvalidPointId);
  grid.Build(std::vector<Point>{{0.5, 0.5}});
  EXPECT_EQ(grid.NearestNeighbor({0.9, 0.9}), 0u);
}

TEST(GridIndexTest, QueryOutsideWorldBox) {
  GridIndex grid;
  grid.Build(RandomPoints(100, 27));
  std::vector<PointId> out;
  grid.WindowQuery(Box::FromExtents(5, 5, 6, 6), &out);
  EXPECT_TRUE(out.empty());
  // NN from far outside still works.
  EXPECT_NE(grid.NearestNeighbor({10, 10}), kInvalidPointId);
}

TEST(GridIndexTest, DegenerateAllPointsOneSpot) {
  std::vector<Point> points;
  for (int i = 0; i < 64; ++i) points.push_back({0.5, 0.5 + i * 1e-15});
  GridIndex grid;
  grid.Build(points);
  std::vector<PointId> out;
  grid.WindowQuery(Box::FromExtents(0.4, 0.4, 0.6, 0.6), &out);
  EXPECT_EQ(out.size(), 64u);
}

}  // namespace
}  // namespace vaq
