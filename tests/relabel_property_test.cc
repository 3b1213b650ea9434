// Property tests for the Hilbert-clustered storage layer: relabelling the
// points at construction must be invisible to every query method. The same
// point set presented in different input orders must produce the same
// *coordinate sets* from all three methods (internal ids differ only by the
// permutation), and the original↔internal id mappings must round-trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "core/brute_force_area_query.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit{{0.0, 0.0}, {1.0, 1.0}};

using CoordSet = std::set<std::pair<double, double>>;

CoordSet ResultCoords(const PointDatabase& db,
                      const std::vector<PointId>& ids) {
  CoordSet coords;
  for (const PointId id : ids) {
    coords.insert({db.points()[id].x, db.points()[id].y});
  }
  return coords;
}

TEST(RelabelPropertyTest, MappingsRoundTripAndOrderIsHilbert) {
  Rng rng(71);
  const auto input = GenerateUniformPoints(1500, kUnit, &rng);
  PointDatabase db(input);
  ASSERT_EQ(db.size(), input.size());
  // The stored geometry of an internal id is the input point at its
  // original slot.
  for (PointId id = 0; id < db.size(); ++id) {
    EXPECT_EQ(db.points()[id], input[db.OriginalId(id)]);
  }
  // original_ids() is exactly the permutation.
  std::vector<PointId> perm = db.original_ids();
  std::sort(perm.begin(), perm.end());
  for (PointId i = 0; i < perm.size(); ++i) EXPECT_EQ(perm[i], i);
}

TEST(RelabelPropertyTest, ShuffledInputOrdersGiveIdenticalResultSets) {
  Rng rng(72);
  const auto base_points = GenerateUniformPoints(2500, kUnit, &rng);

  Rng qrng(73);
  PolygonSpec spec;
  std::vector<Polygon> areas;
  for (const double qs : {0.02, 0.15}) {
    spec.query_size_fraction = qs;
    for (int rep = 0; rep < 3; ++rep) {
      areas.push_back(GenerateQueryPolygon(spec, kUnit, &qrng));
    }
  }

  // Reference answers from the original input order.
  PointDatabase reference(base_points);
  std::vector<CoordSet> expected;
  for (const Polygon& area : areas) {
    expected.push_back(ResultCoords(
        reference, BruteForceAreaQuery(&reference).Run(area, nullptr)));
  }

  std::mt19937 shuffle_rng(7);
  for (int shuffle = 0; shuffle < 3; ++shuffle) {
    std::vector<Point> points = base_points;
    std::shuffle(points.begin(), points.end(), shuffle_rng);
    PointDatabase db(points);
    const BruteForceAreaQuery brute(&db);
    const TraditionalAreaQuery trad(&db);
    const VoronoiAreaQuery voronoi(&db);
    for (std::size_t a = 0; a < areas.size(); ++a) {
      const auto truth = brute.Run(areas[a], nullptr);
      EXPECT_EQ(ResultCoords(db, truth), expected[a])
          << "shuffle " << shuffle << " area " << a;
      // All three methods agree on the id set within this database...
      EXPECT_EQ(trad.Run(areas[a], nullptr), truth);
      EXPECT_EQ(voronoi.Run(areas[a], nullptr), truth);
      // ...and the ids map back to original input positions that hold the
      // same coordinates.
      for (const PointId id : truth) {
        EXPECT_EQ(points[db.OriginalId(id)], db.points()[id]);
      }
    }
  }
}

TEST(RelabelPropertyTest, EmptyAndSingletonDatabases) {
  PointDatabase empty(std::vector<Point>{});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.original_ids().empty());

  PointDatabase one(std::vector<Point>{{0.25, 0.75}});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.OriginalId(0), 0u);
  EXPECT_EQ(one.points()[0], (Point{0.25, 0.75}));
}

TEST(RelabelPropertyTest, BatchedFetchMatchesScalarFetchAndCharges) {
  Rng rng(76);
  PointDatabase db(GenerateUniformPoints(300, kUnit, &rng));
  std::vector<PointId> ids(db.size());
  std::iota(ids.begin(), ids.end(), 0u);
  std::mt19937 g(3);
  std::shuffle(ids.begin(), ids.end(), g);

  QueryStats batch_stats;
  std::vector<double> xs(ids.size()), ys(ids.size());
  db.FetchPoints(ids.data(), ids.size(), xs.data(), ys.data(), &batch_stats);
  EXPECT_EQ(batch_stats.geometry_loads, ids.size());

  QueryStats scalar_stats;
  for (std::size_t j = 0; j < ids.size(); ++j) {
    const Point& p = db.FetchPoint(ids[j], &scalar_stats);
    EXPECT_EQ(xs[j], p.x);
    EXPECT_EQ(ys[j], p.y);
  }
  EXPECT_EQ(scalar_stats.geometry_loads, batch_stats.geometry_loads);

  QueryStats charge_stats;
  db.ChargeFetches(17, &charge_stats);
  EXPECT_EQ(charge_stats.geometry_loads, 17u);
}

}  // namespace
}  // namespace vaq
