// The implicit Hilbert R-tree, the index `PointDatabase` builds: window,
// polygon and k-nearest-neighbour queries must equal brute force and the
// pointer R-tree on every size around the fanout's boundaries and on
// uniform, clustered, exact-lattice and collinear inputs; window and
// polygon output must strictly ascend; nearest-neighbour ties must go to
// the smallest id.

#include "index/hilbert_rtree.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/point_database.h"
#include "delaunay/hilbert.h"
#include "geometry/prepared_area.h"
#include "index/rtree.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

enum class Input { kUniform, kClustered, kLattice, kCollinear };

constexpr Box kUnit{{0.0, 0.0}, {1.0, 1.0}};

std::vector<Point> MakeInput(Input input, std::size_t n) {
  Rng rng(77 + n);
  std::vector<Point> points;
  switch (input) {
    case Input::kUniform:
      points = GeneratePoints(n, kUnit, PointDistribution::kUniform, &rng);
      break;
    case Input::kClustered:
      points = GeneratePoints(n, kUnit, PointDistribution::kClustered, &rng);
      break;
    case Input::kLattice: {
      // An exact integer lattice: every distance is exact, so ties are
      // real ties.
      const auto side = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(n))));
      for (std::size_t i = 0; i < n; ++i) {
        points.push_back({static_cast<double>(i % side),
                          static_cast<double>(i / side)});
      }
      break;
    }
    case Input::kCollinear:
      for (std::size_t i = 0; i < n; ++i) {
        points.push_back(
            {static_cast<double>(i), 2.0 * static_cast<double>(i) + 1.0});
      }
      break;
  }
  // The database's order: positions along a Hilbert curve.
  std::vector<Point> clustered;
  for (const std::uint32_t i : HilbertOrder(points)) {
    clustered.push_back(points[i]);
  }
  return clustered;
}

Box DataBox(const std::vector<Point>& points) {
  if (points.empty()) return kUnit;
  Box box;
  for (const Point& p : points) box.ExpandToInclude(p);
  return box;
}

std::vector<PointId> BruteWindow(const std::vector<Point>& points,
                                 const Box& window) {
  std::vector<PointId> out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (window.Contains(points[i])) out.push_back(static_cast<PointId>(i));
  }
  return out;
}

std::vector<PointId> BruteKnn(const std::vector<Point>& points,
                              const Point& q, std::size_t k) {
  std::vector<PointId> ids(points.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<PointId>(i);
  std::sort(ids.begin(), ids.end(), [&](PointId a, PointId b) {
    const double da = SquaredDistance(points[a], q);
    const double db = SquaredDistance(points[b], q);
    return da != db ? da < db : a < b;
  });
  ids.resize(std::min(k, ids.size()));
  return ids;
}

bool StrictlyAscending(const std::vector<PointId>& ids) {
  return std::adjacent_find(ids.begin(), ids.end(),
                            [](PointId a, PointId b) { return a >= b; }) ==
         ids.end();
}

/// The number of ids under the maximal subtrees whose boxes `area`
/// classifies as inside: what `PolygonQuery` must bulk-accept.
std::size_t InsideRangeTotal(const HilbertRTree& tree, const PreparedArea& area,
                             int k, std::size_t j) {
  switch (area.ClassifyBox(tree.NodeBox(k, j))) {
    case PreparedArea::Region::kOutside:
      return 0;
    case PreparedArea::Region::kInside: {
      std::size_t first, last;
      tree.NodeRange(k, j, &first, &last);
      return last - first;
    }
    case PreparedArea::Region::kStraddling:
      break;
  }
  if (k == 0) return 0;
  std::size_t total = 0, first, last;
  tree.ChildRange(k, j, &first, &last);
  for (std::size_t c = first; c < last; ++c) {
    total += InsideRangeTotal(tree, area, k - 1, c);
  }
  return total;
}

using Param = std::tuple<Input, std::size_t>;

class HilbertRTreeTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const auto [input, n] = GetParam();
    points_ = MakeInput(input, n);
    tree_.Build(points_);
    rtree_.Build(points_);
    box_ = DataBox(points_);
  }

  /// Windows of every kind the filter meets: random, borders exactly on
  /// point coordinates, zero-area (a point, a horizontal and a vertical
  /// segment), the whole data box and windows outside the data.
  std::vector<Box> Windows() const {
    std::vector<Box> windows;
    std::mt19937_64 rng(42);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const double w = std::max(box_.Width(), 1.0);
    const double h = std::max(box_.Height(), 1.0);
    for (int q = 0; q < 20; ++q) {
      const double x0 = box_.min.x + u(rng) * w, y0 = box_.min.y + u(rng) * h;
      windows.push_back(Box::FromExtents(x0, y0, x0 + u(rng) * 0.4 * w,
                                         y0 + u(rng) * 0.4 * h));
    }
    for (std::size_t i = 0; i < points_.size(); i += 1 + points_.size() / 7) {
      const Point& a = points_[i];
      const Point& b = points_[(i * 31 + 5) % points_.size()];
      windows.push_back(Box::FromExtents(std::min(a.x, b.x), std::min(a.y, b.y),
                                         std::max(a.x, b.x),
                                         std::max(a.y, b.y)));
      windows.push_back(Box(a));
      windows.push_back(Box::FromExtents(box_.min.x, a.y, box_.max.x, a.y));
      windows.push_back(Box::FromExtents(a.x, box_.min.y, a.x, box_.max.y));
    }
    windows.push_back(box_);
    windows.push_back(Box::FromExtents(box_.max.x + 1, box_.min.y,
                                       box_.max.x + 2, box_.max.y));
    windows.push_back(Box::FromExtents(box_.min.x - 2, box_.min.y - 2,
                                       box_.min.x - 1, box_.min.y - 1));
    return windows;
  }

  std::vector<Point> points_;
  HilbertRTree tree_;
  RTree rtree_;
  Box box_;
};

TEST_P(HilbertRTreeTest, InvariantsHold) {
  std::string why;
  EXPECT_TRUE(tree_.CheckInvariants(&why)) << why;
  EXPECT_EQ(tree_.size(), points_.size());
  if (points_.empty()) {
    EXPECT_EQ(tree_.Height(), 0);
    return;
  }
  EXPECT_EQ(tree_.LevelSize(0),
            (points_.size() + HilbertRTree::kFanout - 1) /
                HilbertRTree::kFanout);
  EXPECT_EQ(tree_.LevelSize(tree_.Height() - 1), 1u);
  EXPECT_EQ(tree_.NodeBox(tree_.Height() - 1, 0), box_);
}

TEST_P(HilbertRTreeTest, WindowQueryMatchesBruteForceAndRTree) {
  for (const Box& window : Windows()) {
    IndexStats stats;
    std::vector<PointId> got;
    tree_.WindowQuery(window, &got, &stats);
    EXPECT_TRUE(StrictlyAscending(got)) << window;
    EXPECT_EQ(got, BruteWindow(points_, window)) << window;
    EXPECT_EQ(stats.entries_reported, got.size());
    std::vector<PointId> pointer;
    rtree_.WindowQuery(window, &pointer);
    std::sort(pointer.begin(), pointer.end());
    EXPECT_EQ(got, pointer) << window;
  }
}

TEST_P(HilbertRTreeTest, PolygonQueryMatchesBruteForceAndRTree) {
  Rng rng(9);
  PolygonSpec spec;
  std::vector<Polygon> areas;
  for (const double fraction : {0.01, 0.08, 0.32}) {
    spec.query_size_fraction = fraction;
    for (int rep = 0; rep < 4; ++rep) {
      // A domain of at least unit extent: single points and runs along
      // one axis have a degenerate data box.
      const Box domain = Box::FromExtents(
          box_.min.x, box_.min.y, box_.min.x + std::max(box_.Width(), 1.0),
          box_.min.y + std::max(box_.Height(), 1.0));
      areas.push_back(GenerateQueryPolygon(spec, domain, &rng));
    }
  }
  // Covers the whole data: the root is bulk-accepted.
  areas.push_back(Polygon::FromBox(Box::FromExtents(
      box_.min.x - 1, box_.min.y - 1, box_.max.x + 1, box_.max.y + 1)));
  for (const Polygon& area : areas) {
    const PreparedArea prep(area);
    IndexStats stats;
    std::vector<PointId> got;
    tree_.PolygonQuery(prep, &got, &stats);
    EXPECT_TRUE(StrictlyAscending(got));
    std::vector<PointId> truth;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (area.Contains(points_[i])) truth.push_back(static_cast<PointId>(i));
    }
    EXPECT_EQ(got, truth);
    std::vector<PointId> pointer;
    rtree_.PolygonQuery(prep, &pointer);
    std::sort(pointer.begin(), pointer.end());
    EXPECT_EQ(got, pointer);
    EXPECT_EQ(stats.entries_reported, got.size());
    const std::size_t inside =
        points_.empty()
            ? 0
            : InsideRangeTotal(tree_, prep, tree_.Height() - 1, 0);
    EXPECT_EQ(stats.bulk_accepted, inside);
  }
}

TEST_P(HilbertRTreeTest, KnnMatchesBruteForceInDistanceThenIdOrder) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(-0.1, 1.1);
  std::vector<Point> queries;
  for (int q = 0; q < 10; ++q) {
    queries.push_back({box_.min.x + u(rng) * std::max(box_.Width(), 1.0),
                       box_.min.y + u(rng) * std::max(box_.Height(), 1.0)});
  }
  // Data points and lattice-cell centres: exact ties on lattice input.
  for (std::size_t i = 0; i < points_.size(); i += 1 + points_.size() / 5) {
    queries.push_back(points_[i]);
    queries.push_back({points_[i].x + 0.5, points_[i].y + 0.5});
  }
  for (const Point& q : queries) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{7},
                                points_.size() + 1}) {
      std::vector<PointId> got;
      tree_.KNearestNeighbors(q, k, &got);
      EXPECT_EQ(got, BruteKnn(points_, q, k)) << q << " k " << k;
    }
    const PointId nn = tree_.NearestNeighbor(q);
    if (points_.empty()) {
      EXPECT_EQ(nn, kInvalidPointId);
      continue;
    }
    EXPECT_EQ(nn, BruteKnn(points_, q, 1)[0]) << q;
    // The pointer R-tree breaks ties arbitrarily: compare distances only.
    EXPECT_EQ(SquaredDistance(points_[nn], q),
              SquaredDistance(points_[rtree_.NearestNeighbor(q)], q));
  }
}

const char* InputName(Input input) {
  switch (input) {
    case Input::kUniform: return "uniform";
    case Input::kClustered: return "clustered";
    case Input::kLattice: return "lattice";
    case Input::kCollinear: return "collinear";
  }
  return "?";
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, HilbertRTreeTest,
    ::testing::Combine(::testing::Values(Input::kUniform, Input::kClustered,
                                         Input::kLattice, Input::kCollinear),
                       ::testing::Values(0, 1, 15, 16, 17, 255, 256, 257,
                                         4097)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(InputName(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(HilbertRTreeTieTest, NearestNeighborPicksSmallestIdOnExactLattice) {
  // A 3x3 lattice in row-major order; the query at a cell centre is
  // equidistant from its four corners, the one on an edge midpoint from
  // two.
  std::vector<Point> lattice;
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) lattice.push_back({double(x), double(y)});
  }
  HilbertRTree tree;
  tree.Build(lattice);
  EXPECT_EQ(tree.NearestNeighbor({0.5, 0.5}), 0u);  // {0, 1, 3, 4}
  EXPECT_EQ(tree.NearestNeighbor({1.5, 1.5}), 4u);  // {4, 5, 7, 8}
  EXPECT_EQ(tree.NearestNeighbor({2.0, 0.5}), 2u);  // {2, 5}
  std::vector<PointId> knn;
  tree.KNearestNeighbors({1.5, 0.5}, 6, &knn);
  EXPECT_EQ(knn, (std::vector<PointId>{1, 2, 4, 5, 0, 3}));
}

TEST(HilbertRTreeTieTest, DatabaseSeedIsTheSmallestEquidistantId) {
  // The database's own index on an exact lattice: the Voronoi seed must
  // not depend on heap order.
  std::vector<Point> lattice;
  for (int y = 0; y < 40; ++y) {
    for (int x = 0; x < 40; ++x) lattice.push_back({double(x), double(y)});
  }
  const PointDatabase db(lattice);
  const auto points = db.points();
  for (int y = 0; y < 39; y += 3) {
    for (int x = 0; x < 39; x += 5) {
      const Point q{x + 0.5, y + 0.5};
      PointId expect = kInvalidPointId;
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (SquaredDistance(points[i], q) == 0.5) {
          expect = std::min(expect, static_cast<PointId>(i));
        }
      }
      EXPECT_EQ(db.rtree().NearestNeighbor(q), expect) << q;
    }
  }
}

TEST(HilbertRTreeOrderTest, UnorderedInputStaysExact) {
  // Input in no spatial order only loosens the boxes.
  Rng rng(3);
  std::vector<Point> points =
      GeneratePoints(1000, kUnit, PointDistribution::kUniform, &rng);
  HilbertRTree tree;
  tree.Build(points);
  std::string why;
  ASSERT_TRUE(tree.CheckInvariants(&why)) << why;
  const Box window = Box::FromExtents(0.2, 0.3, 0.45, 0.6);
  std::vector<PointId> got;
  tree.WindowQuery(window, &got);
  EXPECT_EQ(got, BruteWindow(points, window));
  EXPECT_EQ(tree.NearestNeighbor({0.5, 0.5}),
            BruteKnn(points, {0.5, 0.5}, 1)[0]);
}

}  // namespace
}  // namespace vaq
