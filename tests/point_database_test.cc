#include "core/point_database.h"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "pinned_inputs.h"
#include "storage/page_format.h"
#include "workload/point_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

TEST(PointDatabaseTest, BuildsBothStructures) {
  Rng rng(11);
  PointDatabase db(GenerateUniformPoints(1000, kUnit, &rng));
  EXPECT_EQ(db.size(), 1000u);
  EXPECT_EQ(db.rtree().size(), 1000u);
  EXPECT_EQ(db.delaunay().num_points(), 1000u);
  EXPECT_GT(db.delaunay().num_triangles(), 1500u);  // ~2n for uniform.
  EXPECT_TRUE(kUnit.Contains(db.bounds()));
}

TEST(PointDatabaseTest, MemoryFootprintCountsEachStructure) {
  // The index stores only its per-level MBR arrays: 32 bytes per node, far
  // below the coordinate array it indexes.
  constexpr std::size_t kN = 100000;
  Rng rng(17);
  const std::vector<Point> input = GenerateUniformPoints(kN, kUnit, &rng);
  for (const StorageBackend backend :
       {StorageBackend::kInMemory, StorageBackend::kMmap}) {
    PointDatabase::Options options;
    options.storage.backend = backend;
    const PointDatabase db(input, options);
    const PointDatabase::StructureBytes bytes = db.MemoryFootprint();
    std::size_t nodes = 0;
    for (int k = 0; k < db.rtree().Height(); ++k) {
      nodes += db.rtree().LevelSize(k);
    }
    EXPECT_EQ(nodes, 6250u + 391u + 25u + 2u + 1u);
    EXPECT_EQ(bytes.index, 32 * nodes);
    EXPECT_LT(bytes.index, bytes.coordinates / 5);
    EXPECT_GE(bytes.coordinates, (kN + 3) * sizeof(Point));
    EXPECT_GE(bytes.id_permutation, kN * sizeof(PointId));
    // About 6 fan entries per row plus one offset each.
    EXPECT_GT(bytes.csr_graph, 6 * kN * sizeof(PointId));
    if (backend == StorageBackend::kInMemory) {
      EXPECT_EQ(bytes.page_cache_frames, 0u);
    } else {
      EXPECT_EQ(bytes.page_cache_frames,
                db.page_store()->cache_pages() *
                    db.page_store()->page_size_bytes());
    }
    EXPECT_EQ(bytes.total(), bytes.coordinates + bytes.csr_graph +
                                 bytes.index + bytes.id_permutation +
                                 bytes.page_cache_frames);
  }
}

TEST(PointDatabaseTest, PointsViewTheTriangulationOnBothBackends) {
  // One coordinate store: points() is the triangulation's array, not a
  // copy, whichever backend serves the fetches.
  Rng rng(13);
  const std::vector<Point> input = GenerateUniformPoints(500, kUnit, &rng);
  for (const StorageBackend backend :
       {StorageBackend::kInMemory, StorageBackend::kMmap}) {
    PointDatabase::Options options;
    options.storage.backend = backend;
    options.storage.page_size_bytes = 512;
    const PointDatabase db(input, options);
    ASSERT_EQ(db.storage_backend(), backend);
    EXPECT_EQ(db.points().data(), &db.delaunay().point(0));
    EXPECT_EQ(db.points().size(), db.size());
    for (PointId id = 0; id < db.size(); ++id) {
      ASSERT_EQ(db.FetchPoint(id, nullptr), db.points()[id]) << "id=" << id;
    }
  }
}

TEST(PointDatabaseTest, FetchPointChargesStats) {
  PointDatabase db(std::vector<Point>{{0.1, 0.1}, {0.9, 0.9}});
  QueryStats stats;
  EXPECT_EQ(db.FetchPoint(0, &stats), Point(0.1, 0.1));
  EXPECT_EQ(db.FetchPoint(1, &stats), Point(0.9, 0.9));
  EXPECT_EQ(stats.geometry_loads, 2u);
  // Null stats allowed.
  EXPECT_EQ(db.FetchPoint(0, nullptr), Point(0.1, 0.1));
}

TEST(PointDatabaseTest, SimulatedFetchLatencySlowsLoads) {
  Rng rng(12);
  PointDatabase db(GenerateUniformPoints(100, kUnit, &rng));
  const auto timed_loads = [&](int count) {
    const auto t0 = std::chrono::steady_clock::now();
    QueryStats stats;
    for (int i = 0; i < count; ++i) db.FetchPoint(i % 100, &stats);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  db.set_simulated_fetch_ns(0);
  const double fast = timed_loads(1000);
  db.set_simulated_fetch_ns(10000);  // 10us per load -> >= 10ms total.
  const double slow = timed_loads(1000);
  EXPECT_GE(slow, 9.0);
  EXPECT_LT(fast, slow);
}

TEST(QueryStatsTest, AccumulateAndRedundancy) {
  QueryStats a;
  a.candidates = 10;
  a.candidate_hits = 7;
  a.results = 7;
  a.elapsed_ms = 1.5;
  QueryStats b;
  b.candidates = 5;
  b.candidate_hits = 5;
  b.results = 5;
  b.elapsed_ms = 0.5;
  a += b;
  EXPECT_EQ(a.candidates, 15u);
  EXPECT_EQ(a.results, 12u);
  EXPECT_EQ(a.RedundantValidations(), 3u);
  EXPECT_DOUBLE_EQ(a.elapsed_ms, 2.0);
  a.Reset();
  EXPECT_EQ(a.candidates, 0u);
}

// -- Pairwise-distinct enforcement ------------------------------------------

TEST(PointDatabaseTest, DuplicatePointsThrowWithInputPositions) {
  // The documented precondition is enforced at the construction boundary,
  // and the error speaks the caller's frame of reference: positions in the
  // input vector, before the Hilbert relabelling.
  const std::vector<Point> points{
      {0.1, 0.1}, {0.5, 0.5}, {0.9, 0.2}, {0.5, 0.5}, {0.3, 0.8}};
  try {
    PointDatabase db(points);
    FAIL() << "duplicate input must throw";
  } catch (const DuplicatePointError& e) {
    EXPECT_EQ(e.point(), Point(0.5, 0.5));
    EXPECT_EQ(e.first_index(), 1u);
    EXPECT_EQ(e.second_index(), 3u);
    EXPECT_NE(std::string(e.what()).find("0.5"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("pairwise distinct"),
              std::string::npos);
  }
  // Several duplicates: the report is the lexicographically smallest
  // duplicated point at its two lowest positions — here (0.25, 0.75) at 3
  // and 9, although the triple (0.5, 0.5) at 1, 5 and 8 starts earlier.
  const std::vector<Point> several{
      {0.9, 0.1}, {0.5, 0.5}, {0.7, 0.3}, {0.25, 0.75}, {0.6, 0.6},
      {0.5, 0.5}, {0.1, 0.9}, {0.3, 0.3}, {0.5, 0.5},   {0.25, 0.75}};
  try {
    PointDatabase db(several);
    FAIL() << "duplicate input must throw";
  } catch (const DuplicatePointError& e) {
    EXPECT_EQ(e.point(), Point(0.25, 0.75));
    EXPECT_EQ(e.first_index(), 3u);
    EXPECT_EQ(e.second_index(), 9u);
  }
  // With only the triple left, its two lowest positions are reported.
  std::vector<Point> triple = several;
  triple[9] = {0.8, 0.8};
  try {
    PointDatabase db(triple);
    FAIL() << "duplicate input must throw";
  } catch (const DuplicatePointError& e) {
    EXPECT_EQ(e.point(), Point(0.5, 0.5));
    EXPECT_EQ(e.first_index(), 1u);
    EXPECT_EQ(e.second_index(), 5u);
  }
}

TEST(PointDatabaseTest, DuplicateDetectionSeesNonAdjacentPairs) {
  // Duplicates split by many other points (and by the Hilbert reorder)
  // must still be caught — the check is global, not neighbour-only.
  Rng rng(77);
  auto points = GenerateUniformPoints(2000, kUnit, &rng);
  points.push_back(points[13]);
  EXPECT_THROW(PointDatabase db(std::move(points)), DuplicatePointError);
}

TEST(PointDatabaseTest, NonFiniteCoordinatesThrow) {
  // NaN would break the strict weak ordering of the distinctness sort
  // (and NaN != NaN would admit duplicates), so non-finite input is
  // rejected before anything else runs.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(
      PointDatabase db(std::vector<Point>{{0.1, 0.1}, {nan, 0.5}}),
      std::invalid_argument);
  EXPECT_THROW(
      PointDatabase db(std::vector<Point>{{0.1, 0.1}, {0.5, inf}}),
      std::invalid_argument);
}

TEST(PointDatabaseTest, OutOfRangeCoordinatesThrowWithInputPosition) {
  // Finite but extreme coordinates overflow or underflow the exact
  // predicates, so construction rejects them and names the position.
  for (const double bad : {1e200, 0x1p101, -1e150, 1e-200, 0x1p-101,
                           -0x1p-120, 5e-324}) {
    for (const Point p : {Point{bad, 0.5}, Point{0.5, bad}}) {
      try {
        PointDatabase db(std::vector<Point>{{0.1, 0.1}, {0.9, 0.2}, p});
        FAIL() << p << " must be rejected";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("input position 2"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  // The range is closed, and zero of either sign is in it.
  EXPECT_NO_THROW(PointDatabase db(std::vector<Point>{{0x1p100, 0x1p-100},
                                                      {-0x1p100, -0x1p-100},
                                                      {0.0, -0.0},
                                                      {0.5, 0.25}}));
}

TEST(PointDatabaseTest, DistinctPointsDoNotThrow) {
  // Near-duplicates (distinct in the last ulp) are legal input.
  const double x = 0.5;
  const double next = std::nextafter(x, 1.0);
  EXPECT_NO_THROW(PointDatabase db(
      std::vector<Point>{{x, 0.5}, {next, 0.5}, {x, next}, {0.1, 0.9}}));
}

TEST(PointDatabaseTest, HilbertPermutationIsPinned) {
  // The internal id space is the Hilbert permutation of the input; every
  // stored id, cached answer and page offset depends on it, so a faster
  // key or sort must reproduce it exactly (ties break on input position).
  struct Case {
    const char* name;
    std::vector<Point> points;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"uniform", pinned::UniformPoints(50000, 1), 0xf648b7aee52c19d1ULL},
      {"clustered", pinned::ClusteredPoints(50000, 2), 0x1f53b99c83bcd3d9ULL},
      {"grid", pinned::GridPoints(100), 0xa0e6c02b762c76b9ULL},
  };
  for (const Case& c : cases) {
    const PointDatabase db(c.points);
    pinned::Fnv1a h;
    for (const PointId id : db.original_ids()) h.Add(id);
    EXPECT_EQ(h.value(), c.digest)
        << c.name << std::hex << " 0x" << h.value();
  }
}

TEST(PointDatabaseTest, PageFilePayloadIsPinned) {
  // The page file of a database's clustered points: Hilbert permutation,
  // page layout and checksum together. A change to how the database
  // stores coordinates must leave these bytes as they are.
  const PointDatabase db(pinned::UniformPoints(5000, 3));
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("vaq_point_database_test_" + std::to_string(::getpid()) + ".vpag"))
          .string();
  WritePageFile(path, db.points(), 512);
  const PageFileHeader header = ReadPageFileHeader(path);
  std::filesystem::remove(path);
  EXPECT_EQ(header.point_count, 5000u);
  EXPECT_EQ(header.payload_checksum, 0xfd4e5dcff05b698fULL)
      << std::hex << " 0x" << header.payload_checksum;
}

}  // namespace
}  // namespace vaq
