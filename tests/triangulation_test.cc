#include "delaunay/triangulation.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "delaunay/hilbert.h"
#include "geometry/predicates.h"
#include "pinned_inputs.h"
#include "workload/point_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

// `v`'s Voronoi neighbours: its fan row without the super slots.
std::vector<PointId> RealNeighbors(const DelaunayTriangulation& dt,
                                   PointId v) {
  std::vector<PointId> out;
  for (const PointId u : dt.NeighborsOf(v)) {
    if (u < dt.num_points()) out.push_back(u);
  }
  return out;
}

TEST(TriangulationTest, SingleTriangle) {
  DelaunayTriangulation dt({{0, 0}, {1, 0}, {0, 1}});
  EXPECT_EQ(dt.num_points(), 3u);
  EXPECT_EQ(dt.num_triangles(), 1u);
  const auto tris = dt.Triangles();
  ASSERT_EQ(tris.size(), 1u);
  // All three vertices mutually adjacent.
  for (PointId v = 0; v < 3; ++v) {
    EXPECT_EQ(RealNeighbors(dt, v).size(), 2u);
  }
}

TEST(TriangulationTest, SquareHasFiveEdges) {
  // Four corners of a square: 2 triangles, 5 Delaunay edges (4 sides + 1
  // diagonal, whichever the cocircular tie-break picks).
  DelaunayTriangulation dt({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  EXPECT_EQ(dt.num_triangles(), 2u);
  std::size_t total_degree = 0;
  for (PointId v = 0; v < 4; ++v) total_degree += RealNeighbors(dt, v).size();
  EXPECT_EQ(total_degree, 10u);  // 2 * 5 edges.
}

TEST(TriangulationTest, StructureValidAfterRandomBuild) {
  Rng rng(100);
  DelaunayTriangulation dt(
      GenerateUniformPoints(2000, Box::FromExtents(0, 0, 1, 1), &rng));
  std::string why;
  EXPECT_TRUE(dt.CheckStructure(&why)) << why;
}

TEST(TriangulationTest, DelaunayPropertyHoldsSmall) {
  Rng rng(101);
  DelaunayTriangulation dt(
      GenerateUniformPoints(250, Box::FromExtents(0, 0, 1, 1), &rng));
  std::string why;
  EXPECT_TRUE(dt.CheckDelaunay(&why)) << why;
}

TEST(TriangulationTest, EulerFormulaForTriangulations) {
  // For n points with h hull points: triangles = 2n - h - 2,
  // edges = 3n - h - 3 (counting only real triangles/edges).
  Rng rng(102);
  const auto points =
      GenerateUniformPoints(500, Box::FromExtents(0, 0, 1, 1), &rng);
  DelaunayTriangulation dt(points);
  std::size_t num_edges = 0;
  for (PointId v = 0; v < dt.num_points(); ++v) {
    num_edges += RealNeighbors(dt, v).size();
  }
  num_edges /= 2;
  // Triangles touching the super vertices replace hull triangles, so use
  // the edge/triangle relation directly: every real triangle has 3 edges,
  // every interior edge is shared by <=2 real triangles.
  EXPECT_GT(num_edges, dt.num_triangles());
  EXPECT_LE(dt.num_triangles(), 2 * dt.num_points());
  // Known closed form (hull edges all exist because the far super triangle
  // keeps the hull convex): E = 3n - 3 - h.
  std::set<PointId> hullish;  // Vertices with a super-vertex triangle.
  // Count via handshake instead: 2E = sum of degrees.
  std::size_t degree_sum = 0;
  for (PointId v = 0; v < dt.num_points(); ++v) {
    degree_sum += RealNeighbors(dt, v).size();
  }
  EXPECT_EQ(degree_sum, 2 * num_edges);
}

TEST(TriangulationTest, AdjacencyIsSymmetric) {
  Rng rng(103);
  DelaunayTriangulation dt(
      GenerateUniformPoints(800, Box::FromExtents(0, 0, 1, 1), &rng));
  for (PointId v = 0; v < dt.num_points(); ++v) {
    for (const PointId u : RealNeighbors(dt, v)) {
      const auto back = dt.NeighborsOf(u);
      EXPECT_NE(std::find(back.begin(), back.end(), v), back.end())
          << u << " missing back-edge to " << v;
    }
  }
}

TEST(TriangulationTest, NoSelfLoopsOrDuplicateNeighbors) {
  Rng rng(104);
  DelaunayTriangulation dt(
      GenerateUniformPoints(600, Box::FromExtents(0, 0, 1, 1), &rng));
  for (PointId v = 0; v < dt.num_points(); ++v) {
    const auto nbrs = dt.NeighborsOf(v);
    std::set<PointId> unique(nbrs.begin(), nbrs.end());
    EXPECT_EQ(unique.size(), nbrs.size()) << "duplicate neighbour of " << v;
    EXPECT_EQ(unique.count(v), 0u) << "self-loop at " << v;
  }
}

TEST(TriangulationTest, NearestNeighborIsDelaunayNeighbor) {
  // Paper Property 6 (NN-graph is a subgraph of the Delaunay graph): every
  // point's nearest neighbour must appear in its adjacency list.
  Rng rng(105);
  const auto points =
      GenerateUniformPoints(400, Box::FromExtents(0, 0, 1, 1), &rng);
  DelaunayTriangulation dt(points);
  for (PointId v = 0; v < points.size(); ++v) {
    double best = 1e300;
    PointId nn = kInvalidPointId;
    for (PointId u = 0; u < points.size(); ++u) {
      if (u == v) continue;
      const double d = SquaredDistance(points[u], points[v]);
      if (d < best) {
        best = d;
        nn = u;
      }
    }
    const auto nbrs = dt.NeighborsOf(v);
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), nn), nbrs.end())
        << "NN of " << v << " not a Voronoi neighbour";
  }
}

TEST(TriangulationTest, DelaunayGraphIsConnected) {
  // Paper Property 5: the Delaunay graph is connected.
  Rng rng(106);
  DelaunayTriangulation dt(
      GenerateUniformPoints(1000, Box::FromExtents(0, 0, 1, 1), &rng));
  std::vector<bool> seen(dt.num_points(), false);
  std::vector<PointId> stack{0};
  seen[0] = true;
  std::size_t count = 0;
  while (!stack.empty()) {
    const PointId v = stack.back();
    stack.pop_back();
    ++count;
    for (const PointId u : RealNeighbors(dt, v)) {
      if (!seen[u]) {
        seen[u] = true;
        stack.push_back(u);
      }
    }
  }
  EXPECT_EQ(count, dt.num_points());
}

TEST(TriangulationTest, GridPointsDegenerateInput) {
  // Exact grid: masses of collinear and cocircular quadruples. The exact
  // predicates must keep the structure valid.
  std::vector<Point> points;
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) {
      points.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  DelaunayTriangulation dt(points);
  std::string why;
  EXPECT_TRUE(dt.CheckStructure(&why)) << why;
  EXPECT_TRUE(dt.CheckDelaunay(&why)) << why;
  EXPECT_EQ(dt.num_points(), 144u);
  // 11x11 cells, 2 triangles each.
  EXPECT_EQ(dt.num_triangles(), 242u);
}

TEST(TriangulationTest, CollinearOnlyInputHasNoTriangles) {
  std::vector<Point> points;
  for (int i = 0; i < 10; ++i) points.push_back({static_cast<double>(i), 2.0});
  DelaunayTriangulation dt(points);
  EXPECT_EQ(dt.num_triangles(), 0u);
  // But consecutive points are still graph-adjacent (via super triangles).
  std::string why;
  EXPECT_TRUE(dt.CheckStructure(&why)) << why;
  for (PointId v = 0; v + 1 < 10; ++v) {
    const auto nbrs = dt.NeighborsOf(v);
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), v + 1), nbrs.end());
  }
}

TEST(TriangulationTest, FanRowsAreClosedCcwCycles) {
  // Every row is its vertex's closed CCW fan: each consecutive triple is a
  // strictly CCW triangle (super coordinates included), and the real ones
  // are exactly the derived triangles, each met once from each corner.
  Rng rng(107);
  const auto points =
      GenerateUniformPoints(300, Box::FromExtents(0, 0, 1, 1), &rng);
  DelaunayTriangulation dt(points);
  std::set<std::array<PointId, 3>> derived;
  for (const auto& t : dt.Triangles()) derived.insert({t.a, t.b, t.c});
  ASSERT_EQ(derived.size(), dt.num_triangles());
  std::map<std::array<PointId, 3>, int> corners_seen;
  for (PointId v = 0; v < dt.num_points(); ++v) {
    const auto row = dt.NeighborsOf(v);
    ASSERT_GE(row.size(), 3u);
    std::set<PointId> unique(row.begin(), row.end());
    EXPECT_EQ(unique.size(), row.size()) << "fan of " << v << " repeats";
    for (std::size_t k = 0; k < row.size(); ++k) {
      const PointId a = row[k];
      const PointId b = row[(k + 1) % row.size()];
      EXPECT_GT(Orient2DSign(dt.point(v), dt.point(a), dt.point(b)), 0)
          << "fan triangle (" << v << ", " << a << ", " << b << ")";
      if (a >= dt.num_points() || b >= dt.num_points()) continue;
      std::array<PointId, 3> t{v, a, b};
      std::rotate(t.begin(), std::min_element(t.begin(), t.end()), t.end());
      EXPECT_EQ(derived.count(t), 1u)
          << "fan triangle (" << v << ", " << a << ", " << b
          << ") is not a derived triangle";
      ++corners_seen[t];
    }
  }
  EXPECT_EQ(corners_seen.size(), derived.size());
  for (const auto& [t, count] : corners_seen) {
    EXPECT_EQ(count, 3) << t[0] << " " << t[1] << " " << t[2];
  }
}

// Digest of everything a query can observe of the build: each fan row's
// length and order, super slots included.
std::uint64_t BuildDigest(const DelaunayTriangulation& dt) {
  pinned::Fnv1a h;
  for (PointId v = 0; v < dt.num_points(); ++v) {
    const auto row = dt.NeighborsOf(v);
    h.Add(static_cast<std::uint32_t>(row.size()));
    for (const PointId u : row) h.Add(u);
  }
  return h.value();
}

TEST(TriangulationTest, BuildOutputIsPinned) {
  // Speed work on the builder must not change a single id: every fan row,
  // its start and its super slots included, is pinned. The inputs are
  // built from integers and powers of two, and the build decides every
  // step with exact predicates, so the digests do not depend on the
  // compiler or the build type. `hilbert_sorted` runs get the input
  // permuted the way `PointDatabase` permutes it.
  struct Case {
    const char* name;
    std::vector<Point> points;
    std::uint64_t unsorted_digest;
    std::uint64_t sorted_digest;
  };
  const Case cases[] = {
      {"uniform", pinned::UniformPoints(50000, 1), 0x7f2fd1254f1c2763ULL,
       0xf01696e4d58eb0b1ULL},
      {"clustered", pinned::ClusteredPoints(50000, 2), 0x8192ad4be60f8185ULL,
       0x997a249cba1a42afULL},
      {"grid", pinned::GridPoints(100), 0x3240f5a594d351ebULL,
       0xb5390c0975ff427fULL},
  };
  for (const Case& c : cases) {
    const DelaunayTriangulation unsorted(c.points);
    std::vector<Point> sorted;
    sorted.reserve(c.points.size());
    for (const std::uint32_t i : HilbertOrder(c.points)) {
      sorted.push_back(c.points[i]);
    }
    const DelaunayTriangulation presorted(std::move(sorted),
                                          /*hilbert_sorted=*/true);
    std::string why;
    EXPECT_TRUE(unsorted.CheckStructure(&why)) << c.name << ": " << why;
    EXPECT_TRUE(presorted.CheckStructure(&why)) << c.name << ": " << why;
    EXPECT_EQ(BuildDigest(unsorted), c.unsorted_digest)
        << c.name << std::hex << " unsorted 0x" << BuildDigest(unsorted);
    EXPECT_EQ(BuildDigest(presorted), c.sorted_digest)
        << c.name << std::hex << " sorted 0x" << BuildDigest(presorted);
  }
}

// Digests of what the build decides, independent of how it is stored: the
// real triangles, each rotated to start at its smallest id (CCW kept) and
// sorted, and every vertex's real-neighbour set in ascending order.
struct SetDigests {
  std::uint64_t triangles;
  std::uint64_t neighbours;
};

SetDigests BuildSetDigests(const DelaunayTriangulation& dt) {
  std::vector<std::array<PointId, 3>> tris;
  for (const auto& t : dt.Triangles()) {
    std::array<PointId, 3> v{t.a, t.b, t.c};
    std::rotate(v.begin(), std::min_element(v.begin(), v.end()), v.end());
    tris.push_back(v);
  }
  std::sort(tris.begin(), tris.end());
  pinned::Fnv1a th;
  for (const auto& v : tris) {
    for (const PointId u : v) th.Add(u);
  }
  pinned::Fnv1a nh;
  std::vector<PointId> set;
  for (PointId v = 0; v < dt.num_points(); ++v) {
    set.clear();
    for (const PointId u : dt.NeighborsOf(v)) {
      if (u < dt.num_points()) set.push_back(u);
    }
    std::sort(set.begin(), set.end());
    nh.Add(static_cast<std::uint32_t>(set.size()));
    for (const PointId u : set) nh.Add(u);
  }
  return {th.value(), nh.value()};
}

TEST(TriangulationTest, BuildSetsArePinned) {
  // The triangle set and the neighbour sets are the build's answer; a
  // change of how the graph is stored must not move either. Same inputs
  // and build paths as BuildOutputIsPinned.
  struct Case {
    const char* name;
    std::vector<Point> points;
    SetDigests unsorted;
    SetDigests sorted;
  };
  const Case cases[] = {
      {"uniform",
       pinned::UniformPoints(50000, 1),
       {0xdbd896c2ee07d27eULL, 0x61e6ea1b45164677ULL},
       {0xe82c338c6ea1dc6eULL, 0x03459642f15b8105ULL}},
      {"clustered",
       pinned::ClusteredPoints(50000, 2),
       {0x8198c34269eff0cfULL, 0xe7b9120ab9841802ULL},
       {0xdedde6dd20c3dfacULL, 0xf4354de66d391aa8ULL}},
      {"grid",
       pinned::GridPoints(100),
       {0x528cd263f0018072ULL, 0xd2ab8a1de0d45383ULL},
       {0x9828af9fb5e4a22cULL, 0x9e021053bda848d3ULL}},
  };
  for (const Case& c : cases) {
    const DelaunayTriangulation unsorted(c.points);
    std::vector<Point> sorted;
    sorted.reserve(c.points.size());
    for (const std::uint32_t i : HilbertOrder(c.points)) {
      sorted.push_back(c.points[i]);
    }
    const DelaunayTriangulation presorted(std::move(sorted),
                                          /*hilbert_sorted=*/true);
    const SetDigests u = BuildSetDigests(unsorted);
    const SetDigests s = BuildSetDigests(presorted);
    EXPECT_EQ(u.triangles, c.unsorted.triangles)
        << c.name << std::hex << " unsorted triangles 0x" << u.triangles;
    EXPECT_EQ(u.neighbours, c.unsorted.neighbours)
        << c.name << std::hex << " unsorted neighbours 0x" << u.neighbours;
    EXPECT_EQ(s.triangles, c.sorted.triangles)
        << c.name << std::hex << " sorted triangles 0x" << s.triangles;
    EXPECT_EQ(s.neighbours, c.sorted.neighbours)
        << c.name << std::hex << " sorted neighbours 0x" << s.neighbours;
  }
}

}  // namespace
}  // namespace vaq
