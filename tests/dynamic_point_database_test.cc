#include "core/dynamic_point_database.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dynamic_area_query.h"
#include "planner/query_plan.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

const DynamicMethod kAllMethods[] = {
    DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
    DynamicMethod::kBruteForce};

/// Ground truth over the dynamic database's own live set: brute force on
/// the snapshot, in stable ids.
std::vector<PointId> LiveBruteForce(const DynamicPointDatabase& db,
                                    const Polygon& area) {
  std::vector<PointId> expected;
  db.snapshot()->ForEachLive([&](PointId id, const Point& p) {
    if (area.Contains(p)) expected.push_back(id);
  });
  std::sort(expected.begin(), expected.end());
  return expected;
}

Polygon TestArea(std::uint64_t seed = 7, double size = 0.1) {
  Rng qrng(seed);
  PolygonSpec spec;
  spec.query_size_fraction = size;
  return GenerateQueryPolygon(spec, kUnit, &qrng);
}

TEST(DynamicPointDatabaseTest, InitialPointsKeepInputIds) {
  const std::vector<Point> points{{0.1, 0.2}, {0.8, 0.9}, {0.4, 0.5}};
  DynamicPointDatabase db(points);
  EXPECT_EQ(db.Size(), 3u);
  for (PointId id = 0; id < points.size(); ++id) {
    EXPECT_EQ(db.Find(id), std::optional<Point>(points[id]));
  }
  EXPECT_EQ(db.Find(3), std::nullopt);
}

TEST(DynamicPointDatabaseTest, InsertEraseSizeAccounting) {
  Rng rng(21);
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(GenerateUniformPoints(100, kUnit, &rng), options);

  const auto id = db.Insert({0.123, 0.456});
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 100u);  // Stable ids continue past the initial vector.
  EXPECT_EQ(db.Size(), 101u);
  EXPECT_EQ(db.DeltaSize(), 1u);
  EXPECT_EQ(db.Find(*id), std::optional<Point>(Point{0.123, 0.456}));

  // Erase a base point -> tombstone; erase the delta point -> buffer
  // shrinks, no tombstone.
  EXPECT_TRUE(db.Erase(42));
  EXPECT_EQ(db.Size(), 100u);
  EXPECT_EQ(db.TombstoneCount(), 1u);
  EXPECT_EQ(db.Find(42), std::nullopt);
  EXPECT_TRUE(db.Erase(*id));
  EXPECT_EQ(db.DeltaSize(), 0u);
  EXPECT_EQ(db.TombstoneCount(), 1u);

  // Double/unknown erases are rejected.
  EXPECT_FALSE(db.Erase(42));
  EXPECT_FALSE(db.Erase(*id));
  EXPECT_FALSE(db.Erase(9999));
}

TEST(DynamicPointDatabaseTest, InsertRejectsLiveDuplicates) {
  DynamicPointDatabase db(
      std::vector<Point>{{0.1, 0.1}, {0.5, 0.5}, {0.9, 0.9}});
  // Equal to a base point: rejected.
  EXPECT_EQ(db.Insert({0.5, 0.5}), std::nullopt);
  // Equal to a delta point: rejected too.
  ASSERT_TRUE(db.Insert({0.2, 0.3}).has_value());
  EXPECT_EQ(db.Insert({0.2, 0.3}), std::nullopt);
  EXPECT_EQ(db.Size(), 4u);
}

TEST(DynamicPointDatabaseTest, InsertRejectsNonFiniteCoordinates) {
  DynamicPointDatabase db(std::vector<Point>{{0.1, 0.1}, {0.9, 0.9}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(db.Insert({nan, 0.5}), std::nullopt);
  EXPECT_EQ(db.Insert({0.5, -inf}), std::nullopt);
  EXPECT_EQ(db.Size(), 2u);
}

TEST(DynamicPointDatabaseTest, OutOfRangeInsertIsRejectedBeforeCompaction) {
  // A finite point far from 1 used to enter the delta and corrupt the
  // next compaction's triangulation: the in-circle terms overflowed (or,
  // for tiny coordinates, underflowed) and most Voronoi answers went
  // wrong. The insert boundary now applies the construction range.
  Rng rng(3);
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(GenerateUniformPoints(10000, kUnit, &rng), options);
  for (const double bad : {1e200, 1e150, 0x1p101, -1e200, 1e-200, 0x1p-101}) {
    EXPECT_EQ(db.Insert({bad, bad}), std::nullopt) << bad;
    EXPECT_EQ(db.Insert({0.5, bad}), std::nullopt) << bad;
  }
  EXPECT_EQ(db.Size(), 10000u);
  ASSERT_TRUE(db.Insert({0.123, 0.456}).has_value());
  db.Compact();
  std::string why;
  EXPECT_TRUE(db.snapshot()->base().delaunay().CheckStructure(&why)) << why;
  for (std::uint64_t q = 0; q < 200; ++q) {
    const Polygon area = TestArea(1000 + q, 0.02);
    QueryContext ctx;
    EXPECT_EQ(RunDynamicSnapshotQuery(*db.snapshot(), DynamicMethod::kVoronoi,
                                      area, ctx),
              LiveBruteForce(db, area))
        << "query " << q;
  }
}

TEST(DynamicPointDatabaseTest, ErasedPointCanBeReinserted) {
  DynamicPointDatabase db(
      std::vector<Point>{{0.1, 0.1}, {0.5, 0.5}, {0.9, 0.9}});
  EXPECT_TRUE(db.Erase(1));
  const auto id = db.Insert({0.5, 0.5});  // Same coordinates, fresh id.
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 3u);
  EXPECT_EQ(db.Size(), 3u);
  EXPECT_EQ(db.Find(1), std::nullopt);
  EXPECT_EQ(db.Find(*id), std::optional<Point>(Point{0.5, 0.5}));
}

TEST(DynamicPointDatabaseTest, DuplicateInInitialVectorThrows) {
  EXPECT_THROW(DynamicPointDatabase db(std::vector<Point>{
                   {0.1, 0.1}, {0.5, 0.5}, {0.1, 0.1}}),
               DuplicatePointError);
}

TEST(DynamicPointDatabaseTest, AllMethodsAnswerOverBaseDeltaTombstones) {
  Rng rng(33);
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(GenerateUniformPoints(3000, kUnit, &rng),
                          options);
  // Mutate: inserts everywhere, deletes of a spread of base ids.
  for (int i = 0; i < 500; ++i) {
    db.Insert({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (PointId id = 0; id < 3000; id += 7) db.Erase(id);

  const Polygon area = TestArea();
  const std::vector<PointId> expected = LiveBruteForce(db, area);
  ASSERT_FALSE(expected.empty());
  for (const DynamicMethod method : kAllMethods) {
    QueryContext ctx;
    EXPECT_EQ(RunDynamicSnapshotQuery(*db.snapshot(), method, area, ctx),
              expected)
        << "method: " << MethodName(method);
  }
}

TEST(DynamicPointDatabaseTest, DeltaSpansMultipleChunksWithErases) {
  // Push the delta buffer well past one chunk (capacity 1024) with
  // interleaved delta deletes, so appends after swap-removes land in
  // part-empty trailing chunks and every chunk-indexing path runs.
  Rng rng(123);
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(GenerateUniformPoints(500, kUnit, &rng),
                          options);
  std::vector<PointId> mine;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 600; ++i) {
      const auto id = db.Insert({rng.Uniform(0, 1), rng.Uniform(0, 1)});
      if (id.has_value()) mine.push_back(*id);
    }
    for (int i = 0; i < 100 && !mine.empty(); ++i) {
      const std::size_t at = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(mine.size()) - 1));
      EXPECT_TRUE(db.Erase(mine[at]));
      mine[at] = mine.back();
      mine.pop_back();
    }
  }
  EXPECT_EQ(db.DeltaSize(), 5u * 500u);
  EXPECT_GT(db.DeltaSize(), 2u * 1024u);

  const Polygon area = TestArea(17, 0.2);
  const std::vector<PointId> expected = LiveBruteForce(db, area);
  for (const DynamicMethod method : kAllMethods) {
    QueryContext ctx;
    EXPECT_EQ(RunDynamicSnapshotQuery(*db.snapshot(), method, area, ctx),
              expected)
        << "method: " << MethodName(method);
  }
  db.Compact();
  for (const DynamicMethod method : kAllMethods) {
    QueryContext ctx;
    EXPECT_EQ(RunDynamicSnapshotQuery(*db.snapshot(), method, area, ctx),
              expected)
        << "method: " << MethodName(method);
  }
}

TEST(DynamicPointDatabaseTest, CompactPreservesIdsAndResults) {
  Rng rng(44);
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(GenerateUniformPoints(2000, kUnit, &rng),
                          options);
  std::vector<PointId> inserted;
  for (int i = 0; i < 300; ++i) {
    const auto id = db.Insert({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    if (id.has_value()) inserted.push_back(*id);
  }
  for (PointId id = 100; id < 200; ++id) db.Erase(id);

  const Polygon area = TestArea(11, 0.15);
  const std::vector<PointId> before = LiveBruteForce(db, area);
  QueryContext ctx;
  EXPECT_EQ(RunDynamicSnapshotQuery(*db.snapshot(), DynamicMethod::kVoronoi,
                                    area, ctx),
            before);
  EXPECT_GT(ctx.stats.delta_candidates, 0u);

  db.Compact();
  EXPECT_EQ(db.Compactions(), 1u);
  EXPECT_EQ(db.DeltaSize(), 0u);
  EXPECT_EQ(db.TombstoneCount(), 0u);
  EXPECT_EQ(db.Size(), 2000u + inserted.size() - 100u);

  // Same stable ids before and after the rebuild, and the delta share of
  // the candidates is gone.
  EXPECT_EQ(RunDynamicSnapshotQuery(*db.snapshot(), DynamicMethod::kVoronoi,
                                    area, ctx),
            before);
  EXPECT_EQ(ctx.stats.delta_candidates, 0u);
  EXPECT_EQ(db.Find(inserted.front()).has_value(), true);
  EXPECT_EQ(db.Find(150), std::nullopt);  // Tombstone stayed dead.
}

TEST(DynamicPointDatabaseTest, AutoCompactionTriggersAtThreshold) {
  Rng rng(55);
  DynamicPointDatabase::Options options;
  options.compact_threshold = 64;
  DynamicPointDatabase db(GenerateUniformPoints(500, kUnit, &rng), options);
  for (int i = 0; i < 200; ++i) {
    db.Insert({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  EXPECT_GE(db.Compactions(), 2u);
  EXPECT_LT(db.DeltaSize(), 64u);
  EXPECT_EQ(db.Size(), 700u);
}

TEST(DynamicPointDatabaseTest, EmptyInitialDatabaseGrowsFromDelta) {
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(std::vector<Point>{}, options);
  EXPECT_EQ(db.Size(), 0u);

  const Polygon area = TestArea(3, 0.3);
  // Queries on a fully empty database return nothing and fill stats.
  for (const DynamicMethod method : kAllMethods) {
    QueryContext ctx;
    EXPECT_TRUE(
        RunDynamicSnapshotQuery(*db.snapshot(), method, area, ctx).empty());
    EXPECT_GT(ctx.stats.elapsed_ms, 0.0);
  }

  Rng rng(66);
  for (int i = 0; i < 40; ++i) {
    db.Insert({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  const std::vector<PointId> expected = LiveBruteForce(db, area);
  for (const DynamicMethod method : kAllMethods) {
    QueryContext ctx;
    EXPECT_EQ(RunDynamicSnapshotQuery(*db.snapshot(), method, area, ctx),
              expected)
        << "method: " << MethodName(method);
  }

  // Folding a delta into an empty base exercises the smallest rebuilds.
  db.Compact();
  for (const DynamicMethod method : kAllMethods) {
    QueryContext ctx;
    EXPECT_EQ(RunDynamicSnapshotQuery(*db.snapshot(), method, area, ctx),
              expected)
        << "method: " << MethodName(method);
  }
}

TEST(DynamicPointDatabaseTest, SnapshotIsImmuneToLaterMutations) {
  Rng rng(88);
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(GenerateUniformPoints(500, kUnit, &rng), options);
  const auto snap = db.snapshot();
  const std::size_t live_before = snap->live_size();

  for (int i = 0; i < 50; ++i) {
    db.Insert({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (PointId id = 0; id < 100; ++id) db.Erase(id);
  db.Compact();

  // The pinned version still describes the pre-mutation state.
  EXPECT_EQ(snap->live_size(), live_before);
  std::size_t seen = 0;
  snap->ForEachLive([&](PointId, const Point&) { ++seen; });
  EXPECT_EQ(seen, live_before);
  EXPECT_EQ(db.Size(), live_before + 50 - 100);
}

TEST(DynamicPointDatabaseTest, StatsKeepCandidateInvariant) {
  Rng rng(99);
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(GenerateUniformPoints(2000, kUnit, &rng),
                          options);
  for (int i = 0; i < 400; ++i) {
    db.Insert({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (PointId id = 0; id < 400; id += 3) db.Erase(id);

  const Polygon area = TestArea(13, 0.1);
  for (const DynamicMethod method : kAllMethods) {
    QueryContext ctx;
    const auto result =
        RunDynamicSnapshotQuery(*db.snapshot(), method, area, ctx);
    EXPECT_EQ(ctx.stats.results, result.size());
    EXPECT_EQ(ctx.stats.delta_candidates, db.DeltaSize());
    EXPECT_EQ(ctx.stats.candidates,
              ctx.stats.candidate_hits + ctx.stats.visited_rejected)
        << "method: " << MethodName(method);
    // Tombstoned hits are validated candidates but not results; every
    // result is either a validated hit or a bulk accept.
    EXPECT_GE(ctx.stats.candidate_hits + ctx.stats.bulk_accepted,
              ctx.stats.results);
  }
}

TEST(DynamicPointDatabaseTest, ForcedPlannedQueryMatchesSnapshotQueryWork) {
  // The planned path pins the database as one view and runs the shared
  // executor; forced onto a method, it must return the same ids and do
  // the same work as the fixed-method snapshot query (one base pass, one
  // delta pass, no extra prune or sort).
  Rng rng(101);
  DynamicPointDatabase::Options options;
  options.auto_compact = false;
  DynamicPointDatabase db(GenerateUniformPoints(3000, kUnit, &rng),
                          options);
  for (int i = 0; i < 300; ++i) {
    db.Insert({rng.Uniform(0, 1), rng.Uniform(0, 1)});
  }
  for (PointId id = 0; id < 3000; id += 5) db.Erase(id);
  ASSERT_GT(db.DeltaSize(), 0u);
  ASSERT_GT(db.TombstoneCount(), 0u);

  const Polygon area = TestArea(19, 0.2);
  const auto snap = db.snapshot();
  for (const DynamicMethod method : kAllMethods) {
    QueryContext fixed_ctx;
    const std::vector<PointId> fixed =
        RunDynamicSnapshotQuery(*snap, method, area, fixed_ctx);
    PlanHints hints;
    hints.force_method = method;
    hints.use_cache = false;
    QueryContext planned_ctx;
    EXPECT_EQ(db.Query(area, planned_ctx, hints), fixed) << MethodName(method);
    const QueryStats& a = fixed_ctx.stats;
    const QueryStats& b = planned_ctx.stats;
    EXPECT_EQ(a.candidates, b.candidates) << MethodName(method);
    EXPECT_EQ(a.geometry_loads, b.geometry_loads) << MethodName(method);
    EXPECT_EQ(a.neighbor_expansions, b.neighbor_expansions)
        << MethodName(method);
    EXPECT_EQ(a.segment_tests, b.segment_tests) << MethodName(method);
    EXPECT_EQ(b.plan_method, MethodBit(method));
  }
}

}  // namespace
}  // namespace vaq
