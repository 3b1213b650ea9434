// Dynamic updates walkthrough: insert and delete points while area
// queries keep answering — including concurrently, through a QueryEngine
// running the database's planned query — and watch the delta buffer fold
// into the base at compaction.

#include <cstdio>
#include <thread>
#include <vector>

#include "core/dynamic_area_query.h"
#include "core/dynamic_point_database.h"
#include "engine/query_engine.h"
#include "planner/planned_area_query.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

using namespace vaq;

int main() {
  const Box domain{{0.0, 0.0}, {1.0, 1.0}};
  Rng rng(7);

  // A mutable database seeded with 20k points. Inserts go to a delta
  // buffer, deletes to a tombstone set; at the threshold the base is
  // rebuilt. Queries always see base ∪ delta − tombstones.
  DynamicPointDatabase::Options options;
  options.compact_threshold = 4096;
  DynamicPointDatabase db(GenerateUniformPoints(20000, domain, &rng),
                          options);

  // Fixed-method queries against the current version: each call pins a
  // snapshot and answers over it.
  QueryContext ctx;
  const auto query = [&](DynamicMethod method, const Polygon& area) {
    return RunDynamicSnapshotQuery(*db.snapshot(), method, area, ctx);
  };

  PolygonSpec spec;
  spec.query_size_fraction = 0.05;
  const Polygon area = GenerateQueryPolygon(spec, domain, &rng);

  std::printf("initially: %zu results in the area\n",
              query(DynamicMethod::kVoronoi, area).size());

  // Mutate: 6000 inserts, 2000 deletes. Each insert returns a stable id
  // that survives compaction; duplicates would be rejected (nullopt).
  std::vector<PointId> inserted;
  for (int i = 0; i < 6000; ++i) {
    const auto id = db.Insert({rng.Uniform(0, 1), rng.Uniform(0, 1)});
    if (id.has_value()) inserted.push_back(*id);
  }
  for (int i = 0; i < 2000; ++i) {
    db.Erase(inserted[static_cast<std::size_t>(rng.UniformInt(
        0, static_cast<std::int64_t>(inserted.size()) - 1))]);
  }
  std::printf("after churn: size=%zu delta=%zu compactions=%llu\n",
              db.Size(), db.DeltaSize(),
              static_cast<unsigned long long>(db.Compactions()));

  const std::vector<PointId> now = query(DynamicMethod::kVoronoi, area);
  std::printf("now: %zu results, %llu of %llu candidates from the delta "
              "buffer\n",
              now.size(),
              static_cast<unsigned long long>(ctx.stats.delta_candidates),
              static_cast<unsigned long long>(ctx.stats.candidates));
  if (now != query(DynamicMethod::kBruteForce, area)) {
    std::printf("ERROR: methods disagree\n");
    return 1;
  }

  // Snapshot consistency under concurrency: engine workers keep running
  // planned queries on the versions they pinned while a writer mutates.
  // Explicit Compact() mid-stream is safe too — in-flight queries finish
  // on the old base.
  QueryEngine engine({.num_threads = 2});
  const int method = engine.RegisterMethod(db.PlannedQuery());
  const std::uint64_t writer_seed = rng.Next();
  std::thread writer([&db, writer_seed] {
    Rng wrng(writer_seed);
    for (int i = 0; i < 2000; ++i) {
      db.Insert({wrng.Uniform(0, 1), wrng.Uniform(0, 1)});
      if (i % 512 == 0) db.Compact();
    }
  });
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 200; ++i) futures.push_back(engine.Submit(area, method));
  std::size_t total = 0;
  for (auto& f : futures) total += f.get().ids.size();
  writer.join();
  std::printf("200 concurrent queries returned %zu ids; final size=%zu, "
              "compactions=%llu\n",
              total, db.Size(),
              static_cast<unsigned long long>(db.Compactions()));
  return 0;
}
