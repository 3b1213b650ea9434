#include "workload/experiment.h"

#include <chrono>
#include <iomanip>
#include <ostream>

#include "core/brute_force_area_query.h"
#include "core/traditional_area_query.h"
#include "core/voronoi_area_query.h"
#include "delaunay/hilbert.h"
#include "delaunay/triangulation.h"
#include "engine/query_engine.h"
#include "index/hilbert_rtree.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kUnitDomain{{0.0, 0.0}, {1.0, 1.0}};

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void Accumulate(MethodAverages* avg, const QueryStats& stats) {
  avg->candidates += static_cast<double>(stats.candidates);
  avg->redundant += static_cast<double>(stats.visited_rejected);
  avg->time_ms += stats.elapsed_ms;
  avg->node_accesses += static_cast<double>(stats.index_node_accesses);
  avg->geometry_loads += static_cast<double>(stats.geometry_loads);
  avg->bulk_accepted += static_cast<double>(stats.bulk_accepted);
  avg->shards_hit += static_cast<double>(stats.shards_hit);
  avg->shards_pruned += static_cast<double>(stats.shards_pruned);
  avg->pages_touched += static_cast<double>(stats.pages_touched);
  avg->page_cache_hits += static_cast<double>(stats.page_cache_hits);
  avg->page_cache_misses += static_cast<double>(stats.page_cache_misses);
  avg->io_retries += static_cast<double>(stats.io_retries);
  avg->pages_quarantined += static_cast<double>(stats.pages_quarantined);
  avg->kernel_kind |= stats.kernel_kind;  // Mask of kernels that ran.
}

void Finish(MethodAverages* avg, int reps) {
  avg->candidates /= reps;
  avg->redundant /= reps;
  avg->time_ms /= reps;
  avg->node_accesses /= reps;
  avg->geometry_loads /= reps;
  avg->bulk_accepted /= reps;
  avg->shards_hit /= reps;
  avg->shards_pruned /= reps;
  avg->pages_touched /= reps;
  avg->page_cache_hits /= reps;
  avg->page_cache_misses /= reps;
  avg->io_retries /= reps;
  avg->pages_quarantined /= reps;
  if (avg->batch_wall_ms > 0.0) {
    avg->throughput_qps = reps / (avg->batch_wall_ms / 1000.0);
  }
}

PointDatabase::Options DatabaseOptions(const ExperimentConfig& config) {
  PointDatabase::Options options;
  options.storage.backend = config.storage_backend;
  options.storage.cache_pages = config.page_cache_pages;
  options.storage.page_size_bytes = config.page_size_bytes;
  return options;
}

std::vector<Polygon> GenerateQueryStream(const ExperimentConfig& config) {
  // Query polygons come from a stream seeded independently of the data so
  // the same queries hit different data sizes comparably.
  Rng query_rng(config.seed ^ 0x9E3779B97F4A7C15ULL);
  PolygonSpec spec;
  spec.vertices = config.polygon_vertices;
  spec.query_size_fraction = config.query_size_fraction;
  std::vector<Polygon> areas;
  areas.reserve(config.repetitions);
  for (int rep = 0; rep < config.repetitions; ++rep) {
    areas.push_back(GenerateQueryPolygon(spec, kUnitDomain, &query_rng));
  }
  return areas;
}

/// Runs `areas` as one engine batch and folds the per-query stats into
/// `avg`; returns the per-query results.
std::vector<QueryResult> RunMethodBatch(QueryEngine& engine, int method,
                                        std::span<const Polygon> areas,
                                        MethodAverages* avg) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<QueryResult> results = engine.RunBatch(areas, method);
  avg->batch_wall_ms = MillisSince(t0);
  for (const QueryResult& r : results) Accumulate(avg, r.stats);
  return results;
}

}  // namespace

ExperimentRow RunExperimentOnDatabase(PointDatabase& db,
                                      const ExperimentConfig& config) {
  ExperimentRow row;
  row.config = config;
  db.set_simulated_fetch_ns(config.simulated_fetch_ns);
  db.set_fetch_latency_model(config.blocking_fetch
                                 ? PointDatabase::FetchLatencyModel::kSleep
                                 : PointDatabase::FetchLatencyModel::kBusyWait);

  const TraditionalAreaQuery traditional(&db);
  const VoronoiAreaQuery voronoi(&db);
  const BruteForceAreaQuery brute(&db);

  const std::vector<Polygon> areas = GenerateQueryStream(config);

  QueryEngine engine({.num_threads = config.num_threads,
                      .queue_capacity =
                          static_cast<std::size_t>(config.repetitions) + 1});
  const int trad_id = engine.RegisterMethod(&traditional);
  const int vaq_id = engine.RegisterMethod(&voronoi);

  const std::vector<QueryResult> trad_results =
      RunMethodBatch(engine, trad_id, areas, &row.traditional);
  const std::vector<QueryResult> vaq_results =
      RunMethodBatch(engine, vaq_id, areas, &row.voronoi);

  for (int rep = 0; rep < config.repetitions; ++rep) {
    row.result_size += static_cast<double>(trad_results[rep].ids.size());
    if (config.verify) {
      const std::vector<PointId> truth = brute.Run(areas[rep]);
      if (trad_results[rep].ids != truth || vaq_results[rep].ids != truth) {
        ++row.mismatches;
      }
    } else if (trad_results[rep].ids != vaq_results[rep].ids) {
      ++row.mismatches;
    }
  }
  Finish(&row.traditional, config.repetitions);
  Finish(&row.voronoi, config.repetitions);
  row.result_size /= config.repetitions;
  return row;
}

ExperimentRow RunExperiment(const ExperimentConfig& config) {
  Rng data_rng(config.seed);
  std::vector<Point> points = GeneratePoints(config.data_size, kUnitDomain,
                                             config.distribution, &data_rng);

  // Time the two builds separately (the paper treats them as offline).
  // The R-tree figure replays the database's own index build: Hilbert
  // clustering plus the MBR levels over the clustered array.
  const auto t_rtree = std::chrono::steady_clock::now();
  std::vector<Point> clustered;
  clustered.reserve(points.size());
  for (const std::uint32_t i : HilbertOrder(points)) {
    clustered.push_back(points[i]);
  }
  HilbertRTree throwaway_rtree;
  throwaway_rtree.Build(clustered);
  const double rtree_ms = MillisSince(t_rtree);

  const auto t_delaunay = std::chrono::steady_clock::now();
  PointDatabase db(std::move(points), DatabaseOptions(config));
  const double delaunay_ms = MillisSince(t_delaunay);

  ExperimentRow row = RunExperimentOnDatabase(db, config);
  row.build_rtree_ms = rtree_ms;
  row.build_delaunay_ms = delaunay_ms;
  return row;
}

std::vector<ExperimentRow> RunThreadSweep(
    const ExperimentConfig& config, const std::vector<int>& thread_counts) {
  Rng data_rng(config.seed);
  PointDatabase db(GeneratePoints(config.data_size, kUnitDomain,
                                  config.distribution, &data_rng),
                   DatabaseOptions(config));
  std::vector<ExperimentRow> rows;
  rows.reserve(thread_counts.size());
  for (const int threads : thread_counts) {
    ExperimentConfig cell = config;
    cell.num_threads = threads;
    rows.push_back(RunExperimentOnDatabase(db, cell));
  }
  return rows;
}

void PrintPaperTable(const std::vector<ExperimentRow>& rows,
                     bool vary_query_size, std::ostream& os) {
  os << (vary_query_size ? "Query size" : "Data size")
     << "  Result size  |  Traditional: candidates  time(ms)  |  "
        "Voronoi: candidates  time(ms)  |  saved: cand  time\n";
  for (const ExperimentRow& r : rows) {
    os << std::fixed;
    if (vary_query_size) {
      os << std::setw(9) << std::setprecision(0)
         << r.config.query_size_fraction * 100.0 << "%";
    } else {
      os << std::setw(10) << r.config.data_size;
    }
    os << std::setw(13) << std::setprecision(2) << r.result_size << "  |"
       << std::setw(25) << std::setprecision(2) << r.traditional.candidates
       << std::setw(10) << std::setprecision(3) << r.traditional.time_ms
       << "  |" << std::setw(21) << std::setprecision(2)
       << r.voronoi.candidates << std::setw(10) << std::setprecision(3)
       << r.voronoi.time_ms << "  |" << std::setw(10) << std::setprecision(1)
       << r.CandidatesSavedFraction() * 100.0 << "%" << std::setw(6)
       << std::setprecision(1) << r.TimeSavedFraction() * 100.0 << "%\n";
  }
}

void PrintFigureSeries(const std::vector<ExperimentRow>& rows,
                       bool vary_query_size, std::ostream& os) {
  os << "# Figure series: time cost (ms)\n";
  os << (vary_query_size ? "# query_size_pct" : "# data_size")
     << "  traditional_ms  voronoi_ms\n";
  for (const ExperimentRow& r : rows) {
    os << std::fixed << std::setprecision(4);
    if (vary_query_size) {
      os << r.config.query_size_fraction * 100.0;
    } else {
      os << r.config.data_size;
    }
    os << "  " << r.traditional.time_ms << "  " << r.voronoi.time_ms << "\n";
  }
  os << "# Figure series: redundant validations\n";
  os << (vary_query_size ? "# query_size_pct" : "# data_size")
     << "  traditional_redundant  voronoi_redundant\n";
  for (const ExperimentRow& r : rows) {
    os << std::fixed << std::setprecision(4);
    if (vary_query_size) {
      os << r.config.query_size_fraction * 100.0;
    } else {
      os << r.config.data_size;
    }
    os << "  " << r.traditional.redundant << "  " << r.voronoi.redundant
       << "\n";
  }
}

namespace {

void WriteMethodJson(const MethodAverages& m, std::ostream& os) {
  os << "{\"candidates\": " << m.candidates
     << ", \"redundant\": " << m.redundant << ", \"time_ms\": " << m.time_ms
     << ", \"node_accesses\": " << m.node_accesses
     << ", \"geometry_loads\": " << m.geometry_loads
     << ", \"bulk_accepted\": " << m.bulk_accepted
     << ", \"shards_hit\": " << m.shards_hit
     << ", \"shards_pruned\": " << m.shards_pruned
     << ", \"pages_touched\": " << m.pages_touched
     << ", \"page_cache_hits\": " << m.page_cache_hits
     << ", \"page_cache_misses\": " << m.page_cache_misses
     << ", \"io_retries\": " << m.io_retries
     << ", \"pages_quarantined\": " << m.pages_quarantined
     << ", \"kernel_kind\": " << m.kernel_kind
     << ", \"batch_wall_ms\": " << m.batch_wall_ms
     << ", \"throughput_qps\": " << m.throughput_qps << "}";
}

}  // namespace

void WriteRowsJson(const std::vector<ExperimentRow>& rows, std::ostream& os) {
  os << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ExperimentRow& r = rows[i];
    os << "  {\"data_size\": " << r.config.data_size
       << ", \"query_size_fraction\": " << r.config.query_size_fraction
       << ", \"repetitions\": " << r.config.repetitions
       << ", \"polygon_vertices\": " << r.config.polygon_vertices
       << ", \"simulated_fetch_ns\": " << r.config.simulated_fetch_ns
       << ", \"blocking_fetch\": "
       << (r.config.blocking_fetch ? "true" : "false")
       << ", \"num_threads\": " << r.config.num_threads
       << ", \"backend\": \"" << StorageBackendName(r.config.storage_backend)
       << "\", \"page_cache_pages\": " << r.config.page_cache_pages
       << ", \"result_size\": " << r.result_size
       << ", \"mismatches\": " << r.mismatches
       << ", \"build_rtree_ms\": " << r.build_rtree_ms
       << ", \"build_delaunay_ms\": " << r.build_delaunay_ms
       << ",\n   \"traditional\": ";
    WriteMethodJson(r.traditional, os);
    os << ",\n   \"voronoi\": ";
    WriteMethodJson(r.voronoi, os);
    os << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

void PrintThreadScalingTable(const std::vector<ExperimentRow>& rows,
                             std::ostream& os) {
  os << "Threads  |  Traditional: qps  speedup  |  Voronoi: qps  speedup\n";
  const double trad_base =
      rows.empty() ? 0.0 : rows.front().traditional.throughput_qps;
  const double vaq_base =
      rows.empty() ? 0.0 : rows.front().voronoi.throughput_qps;
  for (const ExperimentRow& r : rows) {
    os << std::fixed << std::setw(7) << r.config.num_threads << "  |"
       << std::setw(18) << std::setprecision(1)
       << r.traditional.throughput_qps << std::setw(9)
       << std::setprecision(2)
       << (trad_base > 0.0 ? r.traditional.throughput_qps / trad_base : 0.0)
       << "x  |" << std::setw(14) << std::setprecision(1)
       << r.voronoi.throughput_qps << std::setw(9) << std::setprecision(2)
       << (vaq_base > 0.0 ? r.voronoi.throughput_qps / vaq_base : 0.0)
       << "x\n";
  }
}

}  // namespace vaq
