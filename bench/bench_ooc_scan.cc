// Out-of-core page cache bench: cold sequential scan vs warm (cache
// resident) re-scan of a page file larger than the LRU cache, reported in
// pages/second with exact hit/miss accounting (see src/storage/page_store.h).
//
// The scan is page-granular — one point read per page — so each timed
// access is one cache touch: the cold pass (sequential, dataset larger
// than cache, so LRU never helps) pays one miss per page, and the warm
// pass loops over a hot window half the cache size, where every touch is
// a hit. The cold/warm ratio is the measured cost gap between a page
// fault (pread syscall or mmap copy, per --miss-mode rows) and a cache
// frame read — the gap the prefetch hints in the query kernels exist to
// hide.
//
// Usage: bench_ooc_scan [--quick] [--json]
//                       [--points=N] [--page-size=B] [--cache-pages=C]
//   --quick: smaller dataset for CI smoke (cache still smaller than data).
//   --json:  write rows to BENCH_ooc.json for the regression gate.

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "storage/page_format.h"
#include "storage/page_store.h"

namespace {

struct Row {
  const char* miss_mode;
  std::size_t points, page_size, cache_pages, num_pages;
  double cold_ms, warm_ms;
  double cold_pages_per_sec, warm_pages_per_sec, warm_cold_ratio;
  std::uint64_t cold_hits, cold_misses, warm_hits, warm_misses;
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

Row RunScan(const std::string& path, vaq::PageMissMode mode,
            const char* mode_name, std::size_t cache_pages) {
  vaq::PageStore::Options options;
  options.cache_pages = cache_pages;
  options.miss_mode = mode;
  options.verify_checksum = false;  // Open cost is not what this measures.
  std::unique_ptr<vaq::PageStore> store = vaq::PageStore::Open(path, options);

  const std::size_t num_pages = store->num_pages();
  const std::size_t ppp = store->points_per_page();
  double sink = 0.0;  // Consumed below so the reads cannot be elided.

  // Cold: one touch per page, sequentially, dataset larger than cache —
  // every touch is a capacity miss.
  store->ResetCounters();
  const auto t_cold = std::chrono::steady_clock::now();
  for (std::size_t p = 0; p < num_pages; ++p) {
    sink += store->GetPoint(static_cast<vaq::PointId>(p * ppp), nullptr).x;
  }
  const double cold_ms = MsSince(t_cold);
  const vaq::PageIoCounters cold = store->counters();

  // Warm: loop over a hot window half the cache, so it stays resident.
  // One untimed priming pass faults the window in; the timed passes are
  // pure cache-frame reads.
  const std::size_t hot_pages = std::max<std::size_t>(1, cache_pages / 2);
  const std::size_t warm_reps = std::max<std::size_t>(1, num_pages / hot_pages);
  for (std::size_t p = 0; p < hot_pages; ++p) {
    sink += store->GetPoint(static_cast<vaq::PointId>(p * ppp), nullptr).y;
  }
  store->ResetCounters();
  const auto t_warm = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < warm_reps; ++rep) {
    for (std::size_t p = 0; p < hot_pages; ++p) {
      sink += store->GetPoint(static_cast<vaq::PointId>(p * ppp), nullptr).x;
    }
  }
  const double warm_ms = MsSince(t_warm);
  const vaq::PageIoCounters warm = store->counters();

  Row row;
  row.miss_mode = mode_name;
  row.points = store->point_count();
  row.page_size = store->page_size_bytes();
  row.cache_pages = cache_pages;
  row.num_pages = num_pages;
  row.cold_ms = cold_ms;
  row.warm_ms = warm_ms;
  row.cold_pages_per_sec =
      cold_ms > 0.0 ? static_cast<double>(num_pages) / (cold_ms / 1000.0) : 0.0;
  const std::size_t warm_touches = warm_reps * hot_pages;
  row.warm_pages_per_sec =
      warm_ms > 0.0 ? static_cast<double>(warm_touches) / (warm_ms / 1000.0)
                    : 0.0;
  row.warm_cold_ratio = row.cold_pages_per_sec > 0.0
                            ? row.warm_pages_per_sec / row.cold_pages_per_sec
                            : 0.0;
  row.cold_hits = cold.cache_hits;
  row.cold_misses = cold.cache_misses;
  row.warm_hits = warm.cache_hits;
  row.warm_misses = warm.cache_misses;
  if (sink == 42.125) std::cout << "";  // Keep `sink` (and the reads) live.
  return row;
}

void PrintRow(const Row& r) {
  const double hit_rate =
      r.warm_hits + r.warm_misses > 0
          ? static_cast<double>(r.warm_hits) /
                static_cast<double>(r.warm_hits + r.warm_misses)
          : 0.0;
  std::cout << "miss_mode=" << r.miss_mode << "  pages=" << r.num_pages
            << "  cache=" << r.cache_pages << "\n"
            << "  cold: " << r.cold_ms << " ms  ("
            << static_cast<std::uint64_t>(r.cold_pages_per_sec)
            << " pages/s, " << r.cold_misses << " misses / " << r.cold_hits
            << " hits)\n"
            << "  warm: " << r.warm_ms << " ms  ("
            << static_cast<std::uint64_t>(r.warm_pages_per_sec)
            << " pages/s, hit rate " << hit_rate * 100.0 << "%)\n"
            << "  warm/cold throughput ratio: " << r.warm_cold_ratio << "x\n";
}

void WriteJson(const std::vector<Row>& rows, std::ostream& os) {
  os << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "  {\"bench\": \"ooc_scan\", \"miss_mode\": \"" << r.miss_mode
       << "\", \"points\": " << r.points << ", \"page_size\": " << r.page_size
       << ", \"cache_pages\": " << r.cache_pages
       << ", \"num_pages\": " << r.num_pages << ",\n   \"cold_ms\": "
       << r.cold_ms << ", \"warm_ms\": " << r.warm_ms
       << ", \"cold_pages_per_sec\": " << r.cold_pages_per_sec
       << ", \"warm_pages_per_sec\": " << r.warm_pages_per_sec
       << ", \"warm_cold_ratio\": " << r.warm_cold_ratio
       << ",\n   \"cold_hits\": " << r.cold_hits << ", \"cold_misses\": "
       << r.cold_misses << ", \"warm_hits\": " << r.warm_hits
       << ", \"warm_misses\": " << r.warm_misses << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  std::size_t points = 4000000;
  std::size_t page_size = 4096;
  std::size_t cache_pages = 1024;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--points=", 0) == 0) {
      points = std::stoull(arg.substr(9));
    } else if (arg.rfind("--page-size=", 0) == 0) {
      page_size = std::stoull(arg.substr(12));
    } else if (arg.rfind("--cache-pages=", 0) == 0) {
      cache_pages = std::stoull(arg.substr(14));
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 1;
    }
  }
  if (quick) {
    points = 500000;
    cache_pages = 256;
  }

  // Synthetic coordinates: the scan measures the IO path, not geometry,
  // so the values only need to be readable and distinct.
  std::vector<vaq::Point> coords(points);
  for (std::size_t i = 0; i < points; ++i) {
    coords[i] = {static_cast<double>(i), -static_cast<double>(i)};
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("vaq-bench-ooc-" + std::to_string(::getpid()) + ".vpag"))
          .string();
  vaq::WritePageFile(path, coords, static_cast<std::uint32_t>(page_size));

  std::vector<Row> rows;
  std::cout << "=== out-of-core page scan: " << points << " points, "
            << page_size << " B pages, cache " << cache_pages
            << " pages ===\n";
  for (const auto& [mode, name] :
       {std::pair{vaq::PageMissMode::kPread, "pread"},
        std::pair{vaq::PageMissMode::kMmapCopy, "mmap_copy"}}) {
    rows.push_back(RunScan(path, mode, name, cache_pages));
    PrintRow(rows.back());
  }
  ::unlink(path.c_str());

  if (json) {
    std::ofstream out("BENCH_ooc.json");
    WriteJson(rows, out);
    std::cout << "wrote BENCH_ooc.json (" << rows.size() << " rows)\n";
  }
  return 0;
}
