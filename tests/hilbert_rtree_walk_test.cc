// Walk parity for `HilbertRTree`: the iterative, mask-driven walk behind
// `WindowQuery` and `PolygonQuery` must emit exactly the ids, in exactly
// the order, and count exactly the `IndexStats` of the plain recursive
// walk below, which visits a straddling node's children one call each.
// Windows cover every shape the filter meets (random, zero-width, a point,
// outside the data, covering the data); sizes cover n < 16 (a root leaf)
// and n not a multiple of 16 (partial last leaves and nodes).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "delaunay/hilbert.h"
#include "geometry/prepared_area.h"
#include "index/hilbert_rtree.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit{{0.0, 0.0}, {1.0, 1.0}};

/// Reference walk over the public node accessors: classify, emit an
/// inside node's range, descend a straddling one child by child.
template <typename Classify, typename Accept>
void ReferenceWalk(const HilbertRTree& tree, const std::vector<Point>& points,
                   const Classify& classify, const Accept& accept,
                   bool counts_bulk, int k, std::size_t j,
                   std::vector<PointId>* out, IndexStats* stats) {
  std::size_t first, last;
  switch (classify(tree.NodeBox(k, j))) {
    case PreparedArea::Region::kOutside:
      return;
    case PreparedArea::Region::kInside:
      tree.NodeRange(k, j, &first, &last);
      for (std::size_t id = first; id < last; ++id) {
        out->push_back(static_cast<PointId>(id));
      }
      stats->entries_reported += last - first;
      if (counts_bulk) stats->bulk_accepted += last - first;
      return;
    case PreparedArea::Region::kStraddling:
      break;
  }
  ++stats->node_accesses;
  if (k == 0) {
    tree.NodeRange(0, j, &first, &last);
    for (std::size_t id = first; id < last; ++id) {
      if (accept(points[id])) {
        out->push_back(static_cast<PointId>(id));
        ++stats->entries_reported;
      }
    }
    return;
  }
  tree.ChildRange(k, j, &first, &last);
  for (std::size_t c = first; c < last; ++c) {
    ReferenceWalk(tree, points, classify, accept, counts_bulk, k - 1, c, out,
                  stats);
  }
}

void ReferenceWindow(const HilbertRTree& tree,
                     const std::vector<Point>& points, const Box& window,
                     std::vector<PointId>* out, IndexStats* stats) {
  if (tree.Height() == 0) return;
  ReferenceWalk(
      tree, points,
      [&](const Box& box) {
        if (!window.Intersects(box)) return PreparedArea::Region::kOutside;
        if (window.Contains(box)) return PreparedArea::Region::kInside;
        return PreparedArea::Region::kStraddling;
      },
      [&](const Point& p) { return window.Contains(p); }, false,
      tree.Height() - 1, 0, out, stats);
}

void ExpectSameStats(const IndexStats& got, const IndexStats& want,
                     const std::string& where) {
  EXPECT_EQ(got.node_accesses, want.node_accesses) << where;
  EXPECT_EQ(got.entries_reported, want.entries_reported) << where;
  EXPECT_EQ(got.bulk_accepted, want.bulk_accepted) << where;
}

std::vector<Point> HilbertOrdered(std::vector<Point> points) {
  std::vector<Point> ordered;
  for (const std::uint32_t i : HilbertOrder(points)) {
    ordered.push_back(points[i]);
  }
  return ordered;
}

class HilbertRTreeWalkTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HilbertRTreeWalkTest, WindowWalkMatchesTheRecursiveWalk) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  const std::vector<Point> points = HilbertOrdered(
      GeneratePoints(n, kUnit, PointDistribution::kUniform, &rng));
  HilbertRTree tree;
  tree.Build(points);

  std::vector<Box> windows;
  for (int q = 0; q < 200; ++q) {
    const double x0 = rng.Uniform(-0.1, 1.0), y0 = rng.Uniform(-0.1, 1.0);
    const double s = q % 4 == 0 ? 0.01 : (q % 4 == 1 ? 0.1 : 0.5);
    windows.push_back(Box::FromExtents(x0, y0, x0 + rng.Uniform(0, s),
                                       y0 + rng.Uniform(0, s)));
  }
  for (std::size_t i = 0; i < n; i += 1 + n / 20) {
    const Point& a = points[i];
    windows.push_back(Box(a));                                 // A point.
    windows.push_back(Box::FromExtents(a.x, 0.0, a.x, 1.0));   // Zero width.
    windows.push_back(Box::FromExtents(0.0, a.y, 1.0, a.y));   // Zero height.
  }
  windows.push_back(kUnit);                                      // Covering.
  windows.push_back(Box::FromExtents(-1.0, -1.0, 2.0, 2.0));
  windows.push_back(Box::FromExtents(1.5, 0.0, 2.5, 1.0));      // Outside.
  windows.push_back(Box::FromExtents(-3.0, -3.0, -2.0, -2.0));

  for (std::size_t w = 0; w < windows.size(); ++w) {
    const std::string where =
        "n=" + std::to_string(n) + " window #" + std::to_string(w);
    std::vector<PointId> got{7, 8};  // Appends after existing content.
    std::vector<PointId> want{7, 8};
    IndexStats got_stats, want_stats;
    tree.WindowQuery(windows[w], &got, &got_stats);
    ReferenceWindow(tree, points, windows[w], &want, &want_stats);
    ASSERT_EQ(got, want) << where;
    ExpectSameStats(got_stats, want_stats, where);
    std::vector<PointId> no_stats;
    tree.WindowQuery(windows[w], &no_stats);
    ASSERT_EQ(no_stats.size() + 2, want.size()) << where;
  }
}

TEST_P(HilbertRTreeWalkTest, PolygonWalkMatchesTheRecursiveWalk) {
  const std::size_t n = GetParam();
  Rng rng(2000 + n);
  const std::vector<Point> points = HilbertOrdered(
      GeneratePoints(n, kUnit, PointDistribution::kUniform, &rng));
  HilbertRTree tree;
  tree.Build(points);
  PolygonSpec spec;
  for (int q = 0; q < 40; ++q) {
    spec.vertices = q % 2 == 0 ? 10 : 40;
    spec.query_size_fraction = q % 3 == 0 ? 0.01 : (q % 3 == 1 ? 0.1 : 0.6);
    const Polygon poly = GenerateQueryPolygon(spec, kUnit, &rng);
    const PreparedArea area(poly);
    std::vector<PointId> got, want;
    IndexStats got_stats, want_stats;
    tree.PolygonQuery(area, &got, &got_stats);
    if (tree.Height() > 0) {
      ReferenceWalk(
          tree, points, [&](const Box& box) { return area.ClassifyBox(box); },
          [&](const Point& p) { return area.Contains(p); }, true,
          tree.Height() - 1, 0, &want, &want_stats);
    }
    const std::string where =
        "n=" + std::to_string(n) + " polygon #" + std::to_string(q);
    ASSERT_EQ(got, want) << where;
    ExpectSameStats(got_stats, want_stats, where);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HilbertRTreeWalkTest,
                         ::testing::Values(0, 1, 7, 15, 16, 17, 100, 255, 256,
                                           257, 1000, 4097, 20000),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace vaq
