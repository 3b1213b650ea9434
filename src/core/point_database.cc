#include "core/point_database.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <thread>
#include <utility>

#include "delaunay/hilbert.h"
#include "storage/page_format.h"

namespace vaq {

namespace {

std::string DuplicateMessage(const Point& p, std::size_t first,
                             std::size_t second) {
  std::ostringstream os;
  os.precision(17);
  os << "PointDatabase: duplicate point (" << p.x << ", " << p.y
     << ") at input positions " << first << " and " << second
     << " (points must be pairwise distinct)";
  return os.str();
}

/// Enforces the pairwise-distinct precondition: a lexicographic sort of
/// the input positions brings equal coordinates together, so one adjacent
/// scan finds any duplicate pair — and reports it in the caller's frame of
/// reference (input positions), before the Hilbert permutation renames
/// everything. O(n log n), same complexity class as the build itself.
/// Non-finite and out-of-range coordinates are rejected first: NaN breaks
/// the strict weak ordering the sort needs (and NaN != NaN would let
/// duplicates through), infinities collapse the Hilbert/bounding-box
/// arithmetic, and finite values outside `InCoordinateRange` overflow or
/// underflow the exact predicates.
std::vector<Point> CheckPairwiseDistinct(std::vector<Point> points) {
  CheckFiniteAndDistinct(points);
  return points;
}

/// Permutes `points` into Hilbert-curve order over their bounding box and
/// records the internal→original mapping in `*to_original`. The result
/// has room for the triangulation's three super vertices, so it becomes
/// the triangulation's point array without a reallocation.
std::vector<Point> HilbertCluster(std::vector<Point> points,
                                  std::vector<PointId>* to_original) {
  *to_original = HilbertOrder(points);
  std::vector<Point> clustered;
  clustered.reserve(points.size() + 3);
  for (const PointId original : *to_original) {
    clustered.push_back(points[original]);
  }
  return clustered;
}

}  // namespace

void CheckFiniteAndDistinct(const std::vector<Point>& points) {
  // Contiguous (point, position) records keep the sort's comparisons in
  // cache; position breaks ties, so the first adjacent equal pair is the
  // smallest duplicated point at its two lowest input positions.
  struct Record {
    Point p;
    std::uint32_t index;
  };
  std::vector<Record> records(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    if (!InCoordinateRange(p)) {
      std::ostringstream os;
      if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
        os << "PointDatabase: non-finite coordinate at input position " << i
           << " (coordinates must be finite)";
      } else {
        os.precision(17);
        os << "PointDatabase: coordinate out of range at input position "
           << i << " " << p
           << " (each coordinate must be 0 or have magnitude in "
              "[2^-100, 2^100])";
      }
      throw std::invalid_argument(os.str());
    }
    records[i] = {p, static_cast<std::uint32_t>(i)};
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) {
              if (a.p != b.p) return a.p < b.p;
              return a.index < b.index;
            });
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i - 1].p == records[i].p) {
      throw DuplicatePointError(records[i].p, records[i - 1].index,
                                records[i].index);
    }
  }
}

DuplicatePointError::DuplicatePointError(const Point& point,
                                         std::size_t first_index,
                                         std::size_t second_index)
    : std::invalid_argument(
          DuplicateMessage(point, first_index, second_index)),
      point_(point),
      first_index_(first_index),
      second_index_(second_index) {}

void PointDatabase::SimulateFetchLatency(std::size_t n) const {
  double wait_ns = simulated_fetch_ns_ * static_cast<double>(n);
  if (fetch_injector_ != nullptr &&
      fetch_injector_->FetchSpikes(
          fetch_seq_.fetch_add(1, std::memory_order_relaxed))) {
    // A spiked fetch pays spike_ms on top of its modelled wait. The
    // sequence number depends on scheduling, which is fine here: spikes
    // perturb latency only, never results, so replay determinism is not
    // required of this site (unlike the page-keyed storage faults).
    wait_ns += fetch_injector_->spec().spike_ms * 1e6;
  }
  const auto wait = std::chrono::nanoseconds(static_cast<long>(wait_ns));
  if (latency_model_ == FetchLatencyModel::kSleep) {
    std::this_thread::sleep_for(wait);
    return;
  }
  // Busy-wait model, hybridised above the cutoff: a multi-hundred-us
  // charge (typically a batched 256-block at ~1 us/object) used to spin
  // the whole wait, occupying a core inside the timed region and
  // serialising the very IO overlap the blocking benches measure. Sleep
  // off everything but a spin tail sized to the scheduler's wakeup
  // jitter; if the sleep overshoots the deadline, the spin loop exits
  // immediately (error bounded by the overshoot, a few percent of a
  // cutoff-sized wait). See the FetchLatencyModel docs for granularity.
  const auto deadline = std::chrono::steady_clock::now() + wait;
  if (wait_ns >= kSpinSleepCutoffNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(static_cast<long>(wait_ns - kSpinTailNs)));
  }
  while (std::chrono::steady_clock::now() < deadline) {
    // Spin: models synchronous object IO, precise to the clock read.
  }
}

PointDatabase::PointDatabase(std::vector<Point> input, Options options)
    : delaunay_(HilbertCluster(options.skip_distinctness_check
                                   ? std::move(input)
                                   : CheckPairwiseDistinct(std::move(input)),
                               &to_original_),
                /*hilbert_sorted=*/true) {
  for (const Point& p : points()) bounds_.ExpandToInclude(p);
  // The array is already Hilbert-clustered, so runs of 16 consecutive ids
  // are the R-tree's leaves; the tree stores only their MBR levels.
  rtree_.Build(points());
  options_storage_ = options.storage;
  // Programmatic spec wins; otherwise VAQ_FAULT_SPEC arms the fault
  // layer, so every existing harness doubles as a fault soak with no code
  // changes (the CI fault leg relies on this). The resolved spec flows
  // into the page store below and drives the fetch-spike injector on
  // every backend.
  if (!options_storage_.fault.enabled) {
    options_storage_.fault = FaultSpec::FromEnv();
  }
  if (options_storage_.fault.enabled &&
      options_storage_.fault.fetch_spike_rate > 0.0) {
    fetch_injector_ = std::make_unique<FaultInjector>(options_storage_.fault);
  }
  if (options_storage_.backend != StorageBackend::kInMemory && size() > 0) {
    InitPagedStorage();
  }
}

PointDatabase::StructureBytes PointDatabase::MemoryFootprint() const {
  StructureBytes bytes;
  bytes.coordinates = delaunay_.CoordinateBytes();
  bytes.csr_graph = delaunay_.GraphBytes();
  bytes.index = rtree_.MemoryBytes();
  bytes.id_permutation = to_original_.capacity() * sizeof(PointId);
  if (page_store_ != nullptr) {
    bytes.page_cache_frames = page_store_->frame_bytes();
  }
  return bytes;
}

void PointDatabase::InitPagedStorage() {
  // Spill the Hilbert-ordered points to a page file and serve every
  // fetch through the LRU page cache. The file is unlinked as soon as it
  // is mapped: the mapping keeps it alive for this database's lifetime
  // and nothing survives a crash — spill files are an implementation
  // detail, not an artifact (use tools/vaq_pack for durable page files).
  static std::atomic<std::uint64_t> spill_counter{0};
  const std::string dir =
      options_storage_.spill_dir.empty()
          ? std::filesystem::temp_directory_path().string()
          : options_storage_.spill_dir;
  std::ostringstream name;
  name << dir << "/vaq-spill-" << ::getpid() << "-"
       << spill_counter.fetch_add(1) << ".vpag";
  const std::string path = name.str();
  WritePageFile(path, points(), options_storage_.page_size_bytes);
  PageStore::Options store_options;
  store_options.cache_pages = options_storage_.cache_pages;
  store_options.verify_checksum = options_storage_.verify_checksum;
  store_options.miss_mode = options_storage_.miss_mode;
  store_options.required_page_size_bytes = options_storage_.page_size_bytes;
  store_options.fault = options_storage_.fault;
  try {
    page_store_ = PageStore::Open(path, store_options);
  } catch (...) {
    ::unlink(path.c_str());
    throw;
  }
  ::unlink(path.c_str());
}

}  // namespace vaq
