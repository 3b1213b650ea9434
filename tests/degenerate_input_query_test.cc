// Degenerate point sets against every exact query method. On collinear and
// lattice input the Delaunay fans of real points run through the super
// vertices between real neighbours, so the flood's graph walk, the
// dual-edge rule's fan walk and its super-vertex escape all meet their
// corner cases here. Every method must return brute force's ids, in
// memory and paged.

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/grid_sweep_area_query.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "geometry/box.h"
#include "pinned_inputs.h"

namespace vaq {
namespace {

// 200 exactly collinear points on y = x / 2 (dyadic coordinates).
std::vector<Point> CollinearPoints() {
  std::vector<Point> out;
  for (int i = 0; i < 200; ++i) {
    out.push_back({i * 0x1p-8, i * 0x1p-9});
  }
  return out;
}

// A 20 x 20 lattice with spacing 1/16, optionally jittered by up to
// `jitter` per coordinate.
std::vector<Point> LatticePoints(double jitter) {
  pinned::SplitMix64 g(31);
  const auto wobble = [&] {
    return jitter * (static_cast<double>(g.Next() >> 11) * 0x1p-52 - 1.0);
  };
  std::vector<Point> out;
  for (int y = 0; y < 20; ++y) {
    for (int x = 0; x < 20; ++x) {
      out.push_back({x / 16.0 + wobble(), y / 16.0 + wobble()});
    }
  }
  return out;
}

struct Area {
  const char* name;
  Polygon polygon;
};

// One area holds every point, one crosses the set (`crossing`, with
// vertices on data points), and one leaves the data box inflated by 5%,
// where the dual-edge rule must escape round the super vertices.
std::vector<Area> Areas(const std::vector<Point>& points,
                        std::vector<Point> crossing) {
  Box b;
  for (const Point& p : points) b.ExpandToInclude(p);
  const double w = b.Width();
  const double h = b.Height();
  const Point c = b.Center();
  return {
      {"whole", Polygon({{b.min.x - 0.02 * w, b.min.y - 0.02 * h},
                         {b.max.x + 0.02 * w, b.min.y - 0.02 * h},
                         {b.max.x + 0.02 * w, b.max.y + 0.02 * h},
                         {b.min.x - 0.02 * w, b.max.y + 0.02 * h}})},
      {"crossing", Polygon(std::move(crossing))},
      {"leaving", Polygon({c, {b.max.x + 2.0 * w, c.y + 0.1 * h},
                           {c.x, c.y + 0.3 * h}})},
  };
}

void ExpectMethodsMatchBruteForce(const std::string& family,
                                  const std::vector<Point>& points,
                                  const std::vector<Point>& crossing) {
  PointDatabase::Options paged;
  paged.storage.backend = StorageBackend::kMmap;
  paged.storage.cache_pages = 2;
  const PointDatabase memory_db(points);
  const PointDatabase paged_db(points, paged);
  for (const PointDatabase* db : {&memory_db, &paged_db}) {
    const char* backend = db == &memory_db ? "memory" : "paged";
    const BruteForceAreaQuery brute(db);
    const VoronoiAreaQuery voronoi(
        db, {VoronoiAreaQuery::ExpansionRule::kDualEdge});
    const TraditionalAreaQuery traditional(db);
    const GridSweepAreaQuery grid(db);
    const AreaQuery* methods[] = {&voronoi, &traditional, &grid};
    QueryContext ctx;
    for (const Area& area : Areas(points, crossing)) {
      const std::vector<PointId> truth = brute.Run(area.polygon, ctx);
      EXPECT_FALSE(truth.empty()) << family << " " << area.name;
      for (const PointId id : truth) ASSERT_LT(id, db->size());
      for (const AreaQuery* method : methods) {
        const std::vector<PointId> got = method->Run(area.polygon, ctx);
        for (const PointId id : got) {
          ASSERT_LT(id, db->size()) << method->Name();
        }
        EXPECT_EQ(got, truth)
            << family << " " << backend << " " << area.name << " "
            << method->Name();
      }
    }
  }
}

// A quadrilateral across the set, two of its vertices on data points.
std::vector<Point> CrossingArea(const std::vector<Point>& points,
                                std::size_t a, std::size_t b) {
  const Point& p = points[a];
  const Point& q = points[b];
  return {p, {q.x, p.y}, q, {p.x, q.y}};
}

TEST(DegenerateInputQueryTest, CollinearPoints) {
  const std::vector<Point> points = CollinearPoints();
  ExpectMethodsMatchBruteForce("collinear", points,
                               CrossingArea(points, 30, 150));
}

TEST(DegenerateInputQueryTest, ExactLattice) {
  const std::vector<Point> points = LatticePoints(0.0);
  // Lattice (2, 1) to (13, 11): the area's edges run through lattice rows.
  ExpectMethodsMatchBruteForce("lattice", points,
                               CrossingArea(points, 22, 233));
}

TEST(DegenerateInputQueryTest, JitteredLattice) {
  const std::vector<Point> points = LatticePoints(1e-9);
  ExpectMethodsMatchBruteForce("jittered", points,
                               CrossingArea(points, 22, 233));
}

}  // namespace
}  // namespace vaq
