// End-to-end integration tests across module boundaries: dataset files ->
// database -> queries; bulk vs incremental index construction; the
// experiment pipeline against direct query runs.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/brute_force_area_query.h"
#include "core/point_database.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "delaunay/voronoi.h"
#include "index/rtree.h"
#include "workload/dataset_io.h"
#include "workload/experiment.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

TEST(IntegrationTest, DatasetRoundTripPreservesQueryResults) {
  Rng rng(1);
  const auto points = GenerateUniformPoints(3000, kUnit, &rng);
  const std::string points_path =
      std::string(::testing::TempDir()) + "/integration_points.vaqp";
  const std::string poly_path =
      std::string(::testing::TempDir()) + "/integration_poly.csv";

  PolygonSpec spec;
  spec.query_size_fraction = 0.05;
  Rng qrng(2);
  const Polygon area = GenerateQueryPolygon(spec, kUnit, &qrng);

  ASSERT_TRUE(SavePointsBinary(points_path, points));
  ASSERT_TRUE(SavePolygonCsv(poly_path, area));

  PointDatabase original(points);
  const auto expected = VoronoiAreaQuery(&original).Run(area, nullptr);

  // A "different machine": everything reloaded from disk.
  std::vector<Point> loaded_points;
  Polygon loaded_area;
  ASSERT_TRUE(LoadPointsBinary(points_path, &loaded_points));
  ASSERT_TRUE(LoadPolygonCsv(poly_path, &loaded_area));
  PointDatabase reloaded(std::move(loaded_points));
  EXPECT_EQ(VoronoiAreaQuery(&reloaded).Run(loaded_area, nullptr), expected);
  EXPECT_EQ(TraditionalAreaQuery(&reloaded).Run(loaded_area, nullptr),
            expected);

  std::remove(points_path.c_str());
  std::remove(poly_path.c_str());
}

TEST(IntegrationTest, BulkAndIncrementalRTreesAnswerIdentically) {
  Rng rng(3);
  const auto points = GenerateUniformPoints(4000, kUnit, &rng);
  RTree bulk;
  bulk.Build(points);
  RTree incremental;
  incremental.Build({});
  for (std::size_t i = 0; i < points.size(); ++i) {
    incremental.Insert(points[i], static_cast<PointId>(i));
  }
  Rng qrng(4);
  for (int q = 0; q < 25; ++q) {
    const double x = qrng.Uniform(0, 0.8), y = qrng.Uniform(0, 0.8);
    const Box window = Box::FromExtents(x, y, x + 0.15, y + 0.15);
    std::vector<PointId> a, b;
    bulk.WindowQuery(window, &a);
    incremental.WindowQuery(window, &b);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    const Point probe{qrng.Uniform(0, 1), qrng.Uniform(0, 1)};
    EXPECT_EQ(SquaredDistance(points[bulk.NearestNeighbor(probe)], probe),
              SquaredDistance(points[incremental.NearestNeighbor(probe)],
                              probe));
  }
}

TEST(IntegrationTest, TraditionalQueryWorksOnIncrementallyBuiltIndex) {
  // The traditional method with an injected dynamically-built index must
  // equal the database's bulk-loaded R-tree result.
  Rng rng(5);
  const auto points = GenerateUniformPoints(3000, kUnit, &rng);
  PointDatabase db(points);
  // An injected index must index the database's internal (Hilbert-ordered)
  // array so its ids agree with the database's id space.
  RTree dynamic_tree(8, 3, RTree::SplitStrategy::kLinear);
  dynamic_tree.Build({});
  for (std::size_t i = 0; i < db.points().size(); ++i) {
    dynamic_tree.Insert(db.points()[i], static_cast<PointId>(i));
  }
  const TraditionalAreaQuery with_bulk(&db);
  const TraditionalAreaQuery with_dynamic(&db, &dynamic_tree);
  Rng qrng(6);
  PolygonSpec spec;
  spec.query_size_fraction = 0.03;
  for (int rep = 0; rep < 10; ++rep) {
    const Polygon area = GenerateQueryPolygon(spec, kUnit, &qrng);
    EXPECT_EQ(with_dynamic.Run(area, nullptr), with_bulk.Run(area, nullptr));
  }
}

TEST(IntegrationTest, ExperimentRowMatchesDirectRuns) {
  // The experiment runner's averages must equal a hand-rolled loop over
  // the same seeds.
  ExperimentConfig config;
  config.data_size = 1500;
  config.query_size_fraction = 0.04;
  config.repetitions = 8;
  config.seed = 99;
  const ExperimentRow row = RunExperiment(config);

  Rng data_rng(config.seed);
  PointDatabase db(GenerateUniformPoints(config.data_size, kUnit, &data_rng));
  const TraditionalAreaQuery trad(&db);
  Rng query_rng(config.seed ^ 0x9E3779B97F4A7C15ULL);
  PolygonSpec spec;
  spec.vertices = config.polygon_vertices;
  spec.query_size_fraction = config.query_size_fraction;
  double candidates = 0.0;
  QueryStats stats;
  for (int rep = 0; rep < config.repetitions; ++rep) {
    const Polygon area = GenerateQueryPolygon(spec, kUnit, &query_rng);
    trad.Run(area, &stats);
    candidates += static_cast<double>(stats.candidates);
  }
  EXPECT_DOUBLE_EQ(row.traditional.candidates,
                   candidates / config.repetitions);
}

TEST(IntegrationTest, VoronoiCellsReflectDensity) {
  // Clustered data: the mean Voronoi cell inside a cluster must be far
  // smaller than cells in the sparse outskirts — a cross-check of the
  // whole Delaunay -> Voronoi -> clipping chain on non-uniform input.
  Rng rng(7);
  std::vector<Point> points;
  for (int i = 0; i < 400; ++i) {  // Dense blob.
    points.push_back({rng.Uniform(0.4, 0.6), rng.Uniform(0.4, 0.6)});
  }
  for (int i = 0; i < 40; ++i) {  // Sparse background.
    const double x = rng.Uniform(0, 1), y = rng.Uniform(0, 1);
    if (x > 0.35 && x < 0.65 && y > 0.35 && y < 0.65) continue;
    points.push_back({x, y});
  }
  PointDatabase db(std::move(points));
  const VoronoiDiagram vd(db.delaunay(), kUnit);
  double blob_area = 0.0, bg_area = 0.0;
  int blob_n = 0, bg_n = 0;
  for (PointId v = 0; v < vd.size(); ++v) {
    const Point& g = vd.generator(v);
    if (g.x > 0.4 && g.x < 0.6 && g.y > 0.4 && g.y < 0.6) {
      blob_area += vd.CellArea(v);
      ++blob_n;
    } else {
      bg_area += vd.CellArea(v);
      ++bg_n;
    }
  }
  ASSERT_GT(blob_n, 0);
  ASSERT_GT(bg_n, 0);
  EXPECT_LT(blob_area / blob_n, 0.1 * (bg_area / bg_n));
}

}  // namespace
}  // namespace vaq
