// Shard scaling: sharded scatter-gather throughput versus shard count
// under the paper-faithful blocking IO model (every candidate fetch is one
// 20us object IO the worker sleeps through).
//
// The client issues queries sequentially; each query pins one cross-shard
// snapshot, prunes shards by MBR and scatters the survivors onto a fixed
// 4-worker pool. The two query sizes probe the two ways sharding pays:
//
//  * 2% queries land inside one or two shard MBRs — most shards prune,
//    so the win is *less work*, not parallelism (speedup is modest but
//    pruned counts are high);
//  * 48% queries overlap every shard with near-balanced shares — the
//    legs overlap their IO waits, so per-query latency (and therefore
//    the sequential client's throughput) improves toward the thread
//    count. This is the acceptance row: >2x at 4 shards / 4 threads,
//    bounded in theory by the largest single-shard share of the query
//    (~0.37 expected for half-domain MBRs over quadrant-shaped shards).
//
// Every repetition also cross-checks voronoi against traditional, so the
// bench doubles as a differential smoke test in CI — it is what caught
// the shard-amplified incompleteness of the paper's segment-expansion
// rule (see DESIGN.md §9).
//
// Usage: bench_shard_scaling [--quick] [--json]
//   --quick: fewer repetitions, same knob grid (rows key-match the
//   committed BENCH_shard.json baseline).
//   --json: write BENCH_shard.json in the working directory.

#include <chrono>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <vector>

#include "engine/query_engine.h"
#include "shard/sharded_area_query.h"
#include "shard/sharded_database.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace {

using namespace vaq;

constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};

struct MethodNumbers {
  QueryStats sum;  // Additive counters over all repetitions.
  double wall_ms = 0.0;
  double throughput_qps = 0.0;
};

struct ShardRow {
  double query_size = 0.0;
  std::size_t num_shards = 0;
  MethodNumbers voronoi;
  MethodNumbers traditional;
  int mismatches = 0;
};

void WriteMethodJson(const MethodNumbers& m, int reps, std::ostream& os) {
  const double n = reps;
  os << "{\"candidates\": " << static_cast<double>(m.sum.candidates) / n
     << ", \"redundant\": " << static_cast<double>(m.sum.visited_rejected) / n
     << ", \"geometry_loads\": "
     << static_cast<double>(m.sum.geometry_loads) / n
     << ", \"shards_hit\": " << static_cast<double>(m.sum.shards_hit) / n
     << ", \"shards_pruned\": "
     << static_cast<double>(m.sum.shards_pruned) / n
     << ", \"time_ms\": " << m.sum.elapsed_ms / n
     << ", \"throughput_qps\": " << m.throughput_qps << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  constexpr std::size_t kDataSize = 200000;
  constexpr double kFetchNs = 20000.0;
  constexpr int kScatterThreads = 4;
  const int reps = quick ? 16 : 32;
  const double query_sizes[] = {0.02, 0.48};
  const std::size_t shard_counts[] = {1, 2, 4, 8};

  Rng data_rng(20260730);
  const std::vector<Point> points =
      GenerateUniformPoints(kDataSize, kUnit, &data_rng);

  QueryEngine scatter({.num_threads = kScatterThreads});
  std::vector<ShardRow> rows;

  std::cout << "=== Shard scaling: blocking IO model (20us/fetch), "
            << kScatterThreads << "-thread scatter pool, " << kDataSize
            << " points ===\n";
  for (const std::size_t k : shard_counts) {
    ShardedDatabase::Options options;
    options.num_shards = k;
    options.shard.simulated_fetch_ns = kFetchNs;
    options.shard.fetch_latency_model =
        PointDatabase::FetchLatencyModel::kSleep;
    const ShardedDatabase db(points, options);

    for (const double query_size : query_sizes) {
      // The polygon stream is regenerated identically for every K, so
      // rows of one query size differ only in sharding.
      Rng query_rng(20260730 ^ 0x9E3779B97F4A7C15ULL);
      PolygonSpec spec;
      spec.query_size_fraction = query_size;
      std::vector<Polygon> areas;
      areas.reserve(reps);
      for (int rep = 0; rep < reps; ++rep) {
        areas.push_back(GenerateQueryPolygon(spec, kUnit, &query_rng));
      }

      ShardRow row;
      row.query_size = query_size;
      row.num_shards = k;
      QueryContext ctx;
      const auto run_method =
          [&](DynamicMethod method, MethodNumbers* numbers,
              std::vector<std::vector<PointId>>* results) {
            const auto t0 = std::chrono::steady_clock::now();
            for (const Polygon& area : areas) {
              results->push_back(RunShardedSnapshotQuery(
                  *db.snapshot(), method, area, ctx, &scatter));
              numbers->sum += ctx.stats;
            }
            numbers->wall_ms = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
            numbers->throughput_qps = reps / (numbers->wall_ms / 1000.0);
          };
      std::vector<std::vector<PointId>> voronoi_results;
      std::vector<std::vector<PointId>> traditional_results;
      run_method(DynamicMethod::kVoronoi, &row.voronoi, &voronoi_results);
      run_method(DynamicMethod::kTraditional, &row.traditional,
                 &traditional_results);
      for (int rep = 0; rep < reps; ++rep) {
        if (voronoi_results[rep] != traditional_results[rep]) {
          ++row.mismatches;
        }
      }
      rows.push_back(row);

      std::cout << std::fixed << std::setprecision(0) << "K=" << k << " @"
                << query_size * 100.0 << "%  voronoi "
                << std::setprecision(1) << row.voronoi.throughput_qps
                << " qps (" << std::setprecision(2)
                << row.voronoi.sum.elapsed_ms / reps
                << " ms/q)  traditional " << std::setprecision(1)
                << row.traditional.throughput_qps << " qps ("
                << std::setprecision(2)
                << row.traditional.sum.elapsed_ms / reps << " ms/q)  pruned "
                << std::setprecision(1)
                << static_cast<double>(row.traditional.sum.shards_pruned) /
                       reps
                << "/" << k << "  mismatches " << row.mismatches << "\n";
    }
  }

  for (const double query_size : query_sizes) {
    std::cout << "\nSpeedup vs 1 shard at " << std::fixed
              << std::setprecision(0) << query_size * 100.0
              << "% query size:\n";
    const ShardRow* base = nullptr;
    for (const ShardRow& row : rows) {
      if (row.query_size != query_size) continue;
      if (base == nullptr) base = &row;
      std::cout << std::fixed << std::setprecision(2) << "K="
                << row.num_shards << "  voronoi "
                << row.voronoi.throughput_qps / base->voronoi.throughput_qps
                << "x  traditional "
                << row.traditional.throughput_qps /
                       base->traditional.throughput_qps
                << "x\n";
    }
  }

  if (json) {
    std::ofstream out("BENCH_shard.json");
    out << "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ShardRow& row = rows[i];
      out << "  {\"data_size\": " << kDataSize
          << ", \"query_size_fraction\": " << row.query_size
          << ", \"simulated_fetch_ns\": " << kFetchNs
          << ", \"blocking_fetch\": true"
          << ", \"num_threads\": " << kScatterThreads
          << ", \"num_shards\": " << row.num_shards
          << ", \"mismatches\": " << row.mismatches << ",\n   \"voronoi\": ";
      WriteMethodJson(row.voronoi, reps, out);
      out << ",\n   \"traditional\": ";
      WriteMethodJson(row.traditional, reps, out);
      out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "]\n";
    std::cout << "\nwrote BENCH_shard.json (" << rows.size() << " rows)\n";
  }
  return 0;
}
