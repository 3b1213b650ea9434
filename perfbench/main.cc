// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <serve_small|serve_churn|paper_io> --seed <n>
//             --seconds <s> --trace <0|1> --spill-dir <dir>
//             --trace-dir <dir> [--commit <id>]
//
// Builds a seeded workload, times a closed-loop window of client queries
// (plus an open-loop writer where the workload has one), checks every
// timed answer against an oracle it computes itself (a point-in-polygon
// scan over the generated points and the log of acknowledged
// mutations), and prints one JSON result line. `--trace 0` reports the
// end-to-end metrics; `--trace 1` repeats the window with spans around
// the benchmark's calls into each layer and reports the per-layer
// metrics. See README.md in this directory for the workloads and the
// metric map.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/cancel.h"
#include "core/dynamic_point_database.h"
#include "engine/errors.h"
#include "engine/query_engine.h"
#include "geometry/prepared_area.h"
#include "geometry/simd/simd_dispatch.h"
#include "geometry/wkt.h"
#include "planner/planned_area_query.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/query_server.h"
#include "stats.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using vaq::Box;
using vaq::DynamicMethod;
using vaq::DynamicPointDatabase;
using vaq::Point;
using vaq::PointId;
using vaq::Polygon;
using vaq::QueryStats;

// --- Workload constants -------------------------------------------------

constexpr std::size_t kPoints = 100000;
constexpr Box kUnit = Box{{0.0, 0.0}, {1.0, 1.0}};
/// Set-ups per run; `setup_s` is their median, the last one is measured.
constexpr int kSetupReps = 5;
/// Completed samples a window needs so its p99 leaves ten beyond it.
constexpr std::size_t kMinSamples = 1200;
/// The end-to-end query metrics are medians over this many equal time
/// slices of the window (`SliceMedian`): the host's CPU speed varies in
/// phases of seconds, and the median slice ignores a slow phase.
constexpr int kSlices = 10;
constexpr int kServeClients = 2;
constexpr int kEngineThreads = 2;
/// paper_io: generator threads, each with one query in flight.
constexpr int kPaperInFlight = 2;
/// serve_churn traffic; README.md gives the basis of each value.
/// Zipf exponent: YCSB's default zipfian constant.
constexpr double kChurnZipfS = 0.99;
/// Pool of seeded 1% decagons: twice the result cache's default capacity
/// (128), within its seen-set (1024), so every pool polygon is admitted
/// on its first miss in a new version but the pool never fits at once.
constexpr std::size_t kChurnPool = 256;
/// About a quarter of the ~391 data pages.
constexpr std::size_t kChurnCachePages = 98;
/// Mutations per second: about 3% of the operations at the ~14k queries/s
/// of the reference host, the order of YCSB workload B's 5% updates. A
/// fixed rate, so a faster query path does not change the write load.
constexpr double kChurnWriteRate = 400.0;
/// A 20 s window spans about thirteen auto-compactions.
constexpr std::size_t kChurnCompactThreshold = 600;
/// Quiescent oracle sample (use_cache = false) after each window.
constexpr std::size_t kQuiescentChecks = 64;
/// serve_churn: every 8th timed answer, up to a cap per connection, is
/// kept for the interval check; the cap bounds the memory it holds.
constexpr std::uint64_t kChurnCheckEvery = 8;
constexpr std::size_t kChurnChecksPerClient = 2000;
/// Forced-method replays per traced run.
constexpr std::size_t kCoreReplays = 48;

enum class Workload { kServeSmall, kServeChurn, kPaperIo };

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Micros(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

std::uint64_t Mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seed of item `i` of generator stream `stream` in run `run_seed`.
std::uint64_t StreamSeed(std::uint64_t run_seed, std::uint64_t stream,
                         std::uint64_t i) {
  return Mix(run_seed ^ Mix((stream << 40) ^ i));
}

// Generator streams (distinct polygons per purpose and window).
constexpr std::uint64_t kStreamPoints = 1;
constexpr std::uint64_t kStreamWarmup = 2;
constexpr std::uint64_t kStreamPool = 3;
constexpr std::uint64_t kStreamQuiescent = 4;
constexpr std::uint64_t kStreamWriter = 5;
constexpr std::uint64_t kStreamZipf = 6;
constexpr std::uint64_t kStreamWindow = 16;  // + 8 * window + thread

/// The paper's random ten-vertex star polygon. On paper_io its MBR share
/// is drawn log-uniformly from [1%, 32%], Table II's range.
Polygon MakePolygon(Workload w, std::uint64_t seed) {
  vaq::Rng rng(seed);
  vaq::PolygonSpec spec;
  spec.query_size_fraction =
      w == Workload::kPaperIo ? 0.01 * std::pow(32.0, rng.Uniform(0.0, 1.0))
                              : 0.01;
  return vaq::GenerateQueryPolygon(spec, kUnit, &rng);
}

// --- Oracle -------------------------------------------------------------

/// Order-independent digest of a result id set.
struct Digest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t mix = 0;
  void Add(PointId id) {
    const std::uint64_t h = Mix(id);
    ++count;
    sum += h;
    mix ^= Mix(h);
  }
  std::uint64_t Value() const { return Mix(sum ^ Mix(count)) ^ mix; }
};

std::uint64_t DigestOf(const std::vector<PointId>& ids) {
  Digest d;
  for (const PointId id : ids) d.Add(id);
  return d.Value();
}

/// Even-odd crossing test, written independently of the library's
/// predicates.
bool InsideRing(const std::vector<Point>& v, double x, double y) {
  bool in = false;
  for (std::size_t i = 0, j = v.size() - 1; i < v.size(); j = i++) {
    const Point& a = v[i];
    const Point& b = v[j];
    if ((a.y > y) != (b.y > y) &&
        x < (b.x - a.x) * (y - a.y) / (b.y - a.y) + a.x) {
      in = !in;
    }
  }
  return in;
}

/// Uniform grid over the unit square of (id, point) entries, scanned
/// cell by cell over a polygon's MBR.
class PointGrid {
 public:
  static constexpr int kSide = 128;

  explicit PointGrid(const std::vector<std::pair<PointId, Point>>& pts)
      : start_(kSide * kSide + 1, 0), entries_(pts.size()) {
    for (const auto& [id, p] : pts) ++start_[Cell(p) + 1];
    for (std::size_t c = 1; c < start_.size(); ++c) start_[c] += start_[c - 1];
    std::vector<std::size_t> fill(start_.begin(), start_.end() - 1);
    for (const auto& e : pts) entries_[fill[Cell(e.second)]++] = e;
  }

  template <typename Fn>
  void ForEachInside(const Polygon& poly, Fn&& fn) const {
    const Box& b = poly.Bounds();
    const int x0 = Coord(b.min.x), x1 = Coord(b.max.x);
    const int y0 = Coord(b.min.y), y1 = Coord(b.max.y);
    for (int cy = y0; cy <= y1; ++cy) {
      for (int cx = x0; cx <= x1; ++cx) {
        const std::size_t c = static_cast<std::size_t>(cy) * kSide + cx;
        for (std::size_t k = start_[c]; k < start_[c + 1]; ++k) {
          const auto& [id, p] = entries_[k];
          if (InsideRing(poly.vertices(), p.x, p.y)) fn(id);
        }
      }
    }
  }

  std::uint64_t DigestInside(const Polygon& poly) const {
    Digest d;
    ForEachInside(poly, [&](PointId id) { d.Add(id); });
    return d.Value();
  }

 private:
  static int Coord(double v) {
    return std::clamp(static_cast<int>(v * kSide), 0, kSide - 1);
  }
  static std::size_t Cell(const Point& p) {
    return static_cast<std::size_t>(Coord(p.y)) * kSide + Coord(p.x);
  }
  std::vector<std::size_t> start_;
  std::vector<std::pair<PointId, Point>> entries_;
};

// --- Tracing ------------------------------------------------------------

/// Per-thread span recorder; spans stay in memory until the run ends.
class Tracer {
 public:
  explicit Tracer(std::uint64_t thread) : next_id_((thread + 1) << 40) {}

  std::size_t Begin(const char* name, std::uint64_t parent,
                    std::uint64_t request) {
    spans_.push_back(Span{++next_id_, parent, request, name, NowNs(), 0});
    return spans_.size() - 1;
  }
  void End(std::size_t idx) { spans_[idx].end_ns = NowNs(); }
  /// Records an interval observed rather than bracketed.
  void Add(const char* name, std::uint64_t parent, std::uint64_t request,
           std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back(Span{++next_id_, parent, request, name, start_ns, end_ns});
  }
  std::uint64_t IdOf(std::size_t idx) const { return spans_[idx].id; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Times `fn` as a child span of `parent` when `tracer` is set.
template <typename Fn>
auto Traced(Tracer* tracer, const char* name, std::uint64_t parent,
            std::uint64_t request, Fn&& fn) {
  if (tracer == nullptr) return fn();
  const std::size_t idx = tracer->Begin(name, parent, request);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    tracer->End(idx);
  } else {
    auto result = fn();
    tracer->End(idx);
    return result;
  }
}

// --- Per-thread logs ----------------------------------------------------

struct StaticCheck {
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
};

struct ChurnCheck {
  std::size_t pool_index = 0;
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;
  std::vector<PointId> ids;
};

/// What one query thread saw in one window. Queries completing after the
/// window closed are not recorded.
struct QueryLog {
  explicit QueryLog(std::uint64_t thread) : tracer(thread) {}

  std::vector<std::int64_t> done_ns;
  std::vector<double> latency_us;
  std::vector<double> exec_us;
  std::uint64_t shed = 0, aborted = 0, errors = 0, transport = 0;
  std::uint64_t method_counts[vaq::kNumDynamicMethods] = {};
  std::uint64_t learned = 0;
  std::uint64_t cache_hits = 0;
  double pred_err_sum = 0.0;
  std::uint64_t pred_err_n = 0;
  double boundary_share_sum = 0.0;
  std::uint64_t boundary_n = 0;
  std::vector<StaticCheck> checks;
  std::vector<ChurnCheck> churn_checks;
  Tracer tracer;

  void Record(std::int64_t send_ns, std::int64_t done, double exec_ms,
              std::uint64_t plan_method, std::uint64_t plan_reason,
              std::uint64_t cache_hit) {
    done_ns.push_back(done);
    latency_us.push_back(Micros(done - send_ns));
    exec_us.push_back(exec_ms * 1e3);
    for (int m = 0; m < vaq::kNumDynamicMethods; ++m) {
      if (plan_method & vaq::MethodBit(static_cast<DynamicMethod>(m))) {
        ++method_counts[m];
      }
    }
    if (plan_reason & vaq::plan_reason::kLearnedModel) ++learned;
    cache_hits += cache_hit;
  }

  void CountError(const std::exception& e) {
    if (const auto* se = dynamic_cast<const vaq::ServerError*>(&e)) {
      switch (se->code()) {
        case vaq::WireErrorCode::kRetryLater:
          ++shed;
          return;
        case vaq::WireErrorCode::kDeadline:
        case vaq::WireErrorCode::kCancelled:
          ++aborted;
          return;
        default:
          ++errors;
          return;
      }
    }
    if (dynamic_cast<const vaq::EngineOverloadedError*>(&e)) {
      ++shed;
    } else if (dynamic_cast<const vaq::QueryAbortedError*>(&e)) {
      ++aborted;
    } else {
      ++transport;
    }
  }
};

struct MutationEvent {
  bool insert = false;
  bool ok = false;
  PointId id = 0;
  Point p;
  std::int64_t send_ns = 0;
  std::int64_t ack_ns = 0;
};

/// The serve_churn writer's log.
struct MutationLog {
  std::vector<std::int64_t> due_ns;
  std::vector<double> latency_us;  // ack - due
  std::vector<double> lag_us;      // send - due
  std::vector<MutationEvent> events;
  std::uint64_t errors = 0;
  // Traced only.
  std::uint64_t compactions = 0;
  double compact_ms_sum = 0.0;
  double delta_size_sum = 0.0;
  std::uint64_t delta_samples = 0;
};

/// Open-loop writer on its own connection: op k is due at start + k /
/// rate and alternates INSERT of a fresh uniform point and ERASE of a
/// uniformly chosen live id, so the live size stays near n. Latency
/// counts from the due time.
void RunWriter(vaq::QueryClient& conn, double rate, std::uint64_t seed,
               std::vector<PointId>* live, std::int64_t start_ns,
               const std::atomic<bool>& stop,
               const DynamicPointDatabase* traced_db, MutationLog* log) {
  vaq::Rng rng(seed);
  const double period_ns = 1e9 / rate;
  std::uint64_t compactions =
      traced_db != nullptr ? traced_db->Compactions() : 0;
  for (std::size_t k = 0; !stop.load(); ++k) {
    const std::int64_t due =
        start_ns + static_cast<std::int64_t>(k * period_ns);
    // Sleep to just short of the due time, then spin: the OS timer's
    // wake-up jitter would otherwise show up as writer lag.
    const std::int64_t early = due - 100000 - NowNs();
    if (early > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(early));
    while (NowNs() < due) {
    }
    MutationEvent ev;
    ev.insert = (k % 2 == 0) || live->empty();
    ev.send_ns = NowNs();
    try {
      if (ev.insert) {
        ev.p = Point{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)};
        const vaq::WireMutationResult r = conn.Insert(ev.p.x, ev.p.y);
        ev.ok = r.ok;
        if (ev.ok) {
          ev.id = static_cast<PointId>(r.value);
          live->push_back(ev.id);
        }
      } else {
        const std::size_t at = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(live->size()) - 1));
        ev.id = (*live)[at];
        ev.ok = conn.Erase(ev.id).ok;
        (*live)[at] = live->back();
        live->pop_back();
      }
    } catch (const std::exception&) {
      ++log->errors;
      continue;
    }
    ev.ack_ns = NowNs();
    log->due_ns.push_back(due);
    log->latency_us.push_back(Micros(ev.ack_ns - due));
    log->lag_us.push_back(Micros(ev.send_ns - due));
    log->events.push_back(ev);
    if (traced_db != nullptr) {
      // Auto-compaction runs inside the mutation that crossed the
      // threshold, so that mutation's service time is the compaction's.
      const std::uint64_t now_compactions = traced_db->Compactions();
      if (now_compactions != compactions) {
        log->compactions += now_compactions - compactions;
        log->compact_ms_sum += (ev.ack_ns - ev.send_ns) * 1e-6;
        compactions = now_compactions;
      }
      log->delta_size_sum += traced_db->snapshot()->delta_size();
      ++log->delta_samples;
    }
  }
}

// --- Environment --------------------------------------------------------

struct SetupTimes {
  double total_s = 0.0;
  double db_build_s = 0.0;
  double service_start_s = 0.0;
  double warmup_s = 0.0;
};

/// One set-up workload: the data, the database and the service in front
/// of it (a loopback server, or an in-process engine on paper_io).
/// Members are destroyed service-first.
struct Env {
  Workload workload = Workload::kServeSmall;
  std::uint64_t seed = 0;
  std::vector<Point> initial;
  std::unique_ptr<DynamicPointDatabase> db;
  std::unique_ptr<vaq::QueryServer> server;
  std::unique_ptr<vaq::QueryEngine> engine;
  int method = -1;
  std::vector<Polygon> pool;
  std::vector<std::string> pool_wkt;
  std::vector<double> zipf_cdf;
  std::vector<PointId> live;  // The writer's view of the live ids.
  SetupTimes times;

  bool served() const { return server != nullptr; }
};

/// Hints of every timed request. The served workloads force traditional,
/// the method the planner is meant to pick for 1% polygons in RAM: left
/// to itself, its EWMA locks onto grid-sweep for seconds at a time after
/// one slow traditional query (a slot that is not chosen is never
/// re-measured), and grid-sweep executes ~1.8x slower there, which made
/// the served latency bimodal from run to run. Caching stays on; the
/// planner's own choice is measured on paper_io.
vaq::WireQueryRequest RequestFor(Workload w) {
  vaq::WireQueryRequest req;
  if (w != Workload::kPaperIo) req.force_method = DynamicMethod::kTraditional;
  return req;
}

std::unique_ptr<Env> SetUp(Workload w, std::uint64_t seed,
                           const std::string& spill_dir) {
  auto env = std::make_unique<Env>();
  env->workload = w;
  env->seed = seed;
  const std::int64_t t0 = NowNs();
  vaq::Rng rng(StreamSeed(seed, kStreamPoints, 0));
  env->initial = vaq::GenerateUniformPoints(kPoints, kUnit, &rng);
  env->live.resize(kPoints);
  for (std::size_t i = 0; i < kPoints; ++i) env->live[i] = PointId(i);

  DynamicPointDatabase::Options opts;
  if (w == Workload::kServeChurn) {
    vaq::StorageOptions& s = opts.base.storage;
    s.backend = vaq::StorageBackend::kMmap;
    s.miss_mode = vaq::PageMissMode::kPread;
    s.page_size_bytes = 4096;
    s.cache_pages = kChurnCachePages;
    s.spill_dir = spill_dir;
    opts.compact_threshold = kChurnCompactThreshold;
  } else if (w == Workload::kPaperIo) {
    opts.simulated_fetch_ns = 1000.0;
  }
  const std::int64_t t1 = NowNs();
  env->db = std::make_unique<DynamicPointDatabase>(env->initial, opts);
  const std::int64_t t2 = NowNs();
  if (w == Workload::kPaperIo) {
    vaq::EngineOptions eo;
    eo.num_threads = kEngineThreads;
    env->engine = std::make_unique<vaq::QueryEngine>(eo);
    env->method = env->engine->RegisterMethod(env->db->PlannedQuery());
  } else {
    vaq::QueryServer::Options so;
    so.engine_threads = kEngineThreads;
    env->server = std::make_unique<vaq::QueryServer>(env->db.get(), so);
    env->server->Start();
  }
  const std::int64_t t3 = NowNs();

  // Untimed warm-up: planner EWMAs, connection path, page cache and, on
  // serve_churn, second-hit admission of the pool.
  if (w == Workload::kServeChurn) {
    for (std::size_t i = 0; i < kChurnPool; ++i) {
      env->pool.push_back(MakePolygon(w, StreamSeed(seed, kStreamPool, i)));
      env->pool_wkt.push_back(vaq::ToWkt(env->pool.back()));
    }
    double total = 0.0;
    for (std::size_t k = 0; k < kChurnPool; ++k) {
      total += 1.0 / std::pow(double(k + 1), kChurnZipfS);
      env->zipf_cdf.push_back(total);
    }
    for (double& c : env->zipf_cdf) c /= total;
  }
  if (env->served()) {
    vaq::QueryClient client(env->server->port());
    const std::size_t n = w == Workload::kServeChurn ? 2 * kChurnPool : 400;
    for (std::size_t i = 0; i < n; ++i) {
      vaq::WireQueryRequest req = RequestFor(w);
      req.wkt = w == Workload::kServeChurn
                    ? env->pool_wkt[i % kChurnPool]
                    : vaq::ToWkt(MakePolygon(
                          w, StreamSeed(seed, kStreamWarmup, i)));
      client.Query(req);
    }
  } else {
    for (std::size_t i = 0; i < 48; ++i) {
      env->engine
          ->Submit(MakePolygon(w, StreamSeed(seed, kStreamWarmup, i)),
                   env->method)
          .get();
    }
  }
  const std::int64_t t4 = NowNs();
  env->times.total_s = Seconds(t4 - t0);
  env->times.db_build_s = Seconds(t2 - t1);
  env->times.service_start_s = Seconds(t3 - t2);
  env->times.warmup_s = Seconds(t4 - t3);
  return env;
}

// --- Query windows ------------------------------------------------------

/// Per-request replays of the layers a served query crosses, timed as
/// spans under the request: encode, WKT parse, plan, prepare. Returns the
/// plan, whose candidate prediction is compared with the measured count.
vaq::QueryPlan ReplayFrontLayers(Env& env, const vaq::WireQueryRequest& req,
                                 const Polygon* given, QueryLog& log,
                                 std::uint64_t parent, std::uint64_t request,
                                 vaq::PreparedArea& prep) {
  Tracer* t = &log.tracer;
  Traced(t, "protocol.encode", parent, request,
         [&] { return vaq::EncodeQueryRequest(req).size(); });
  const Polygon parsed = Traced(t, "geometry.wkt_parse", parent, request,
                                [&] { return vaq::ParseWktPolygon(req.wkt); });
  const Polygon& area = given != nullptr ? *given : parsed;
  vaq::PlanHints hints;
  hints.force_method = req.force_method;
  hints.use_cache = req.use_cache;
  const vaq::QueryPlan plan = Traced(t, "planner.plan", parent, request, [&] {
    return env.db->PlannedQuery()->PlanFor(area, hints);
  });
  Traced(t, "geometry.prepare", parent, request, [&] {
    prep.Prepare(area, vaq::PreparedArea::SuggestGridSide(
                           area.size(), plan.expected_tests));
  });
  const double cells = double(prep.grid_side()) * prep.grid_side();
  if (cells > 0) {
    log.boundary_share_sum += prep.boundary_cell_count() / cells;
    ++log.boundary_n;
  }
  return plan;
}

void ReplayDecode(const std::vector<PointId>& ids, QueryLog& log,
                  std::uint64_t parent, std::uint64_t request) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t off = 0; off < ids.size() || off == 0;
       off += vaq::kIdsPerFrame) {
    const std::size_t n = std::min(vaq::kIdsPerFrame, ids.size() - off);
    frames.push_back(vaq::EncodeResultIdsPayload(
        std::span<const PointId>(ids.data() + off, n)));
  }
  Traced(&log.tracer, "protocol.decode_ids", parent, request, [&] {
    std::size_t total = 0;
    for (const auto& f : frames) total += vaq::DecodeResultIdsPayload(f).size();
    return total;
  });
}

void AccountPrediction(QueryLog& log, const vaq::QueryPlan& plan,
                       const QueryStats& measured) {
  if (measured.result_cache_hits != 0 || measured.candidates == 0) return;
  const double m = static_cast<double>(measured.candidates);
  log.pred_err_sum += std::abs(plan.predicted_candidates - m) / m;
  ++log.pred_err_n;
}

struct WindowControl {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
};

void ServeClientLoop(Env& env, int window, int client, bool traced,
                     WindowControl& ctl, QueryLog& log) {
  std::optional<vaq::QueryClient> conn;
  try {
    conn.emplace(env.server->port());
  } catch (const std::exception& e) {
    log.CountError(e);
  }
  vaq::Rng zipf(StreamSeed(env.seed, kStreamZipf, window * 8 + client));
  vaq::PreparedArea prep;
  const std::uint64_t stream = kStreamWindow + 8 * window + client;
  ctl.ready.fetch_add(1);
  while (!ctl.go.load()) std::this_thread::yield();
  for (std::uint64_t i = 0; conn && !ctl.stop.load(); ++i) {
    const std::uint64_t request = (stream << 40) | i;
    std::size_t root = 0;
    if (traced) root = log.tracer.Begin("request", 0, request);
    const std::uint64_t root_id = traced ? log.tracer.IdOf(root) : 0;

    vaq::WireQueryRequest req = RequestFor(env.workload);
    std::uint64_t seed = 0;
    std::size_t pool_index = 0;
    const Polygon* pool_poly = nullptr;
    if (env.workload == Workload::kServeChurn) {
      const double u = zipf.Uniform(0.0, 1.0);
      pool_index = static_cast<std::size_t>(
          std::lower_bound(env.zipf_cdf.begin(), env.zipf_cdf.end(), u) -
          env.zipf_cdf.begin());
      pool_index = std::min(pool_index, kChurnPool - 1);
      req.wkt = env.pool_wkt[pool_index];
      pool_poly = &env.pool[pool_index];
    } else {
      seed = StreamSeed(env.seed, stream, i);
      req.wkt = vaq::ToWkt(MakePolygon(env.workload, seed));
    }
    vaq::QueryPlan plan;
    if (traced) {
      plan = ReplayFrontLayers(env, req, pool_poly, log, root_id, request,
                               prep);
    }
    const std::int64_t send = NowNs();
    try {
      vaq::QueryClient::QueryOutcome out = Traced(
          traced ? &log.tracer : nullptr, "client.query", root_id, request,
          [&] { return conn->Query(req); });
      const std::int64_t done = NowNs();
      if (ctl.stop.load()) {  // Completed after the window closed.
        if (traced) log.tracer.End(root);
        break;
      }
      log.Record(send, done, out.stats.elapsed_ms, out.stats.plan_method,
                 out.stats.plan_reason, out.stats.result_cache_hits);
      ctl.completed.fetch_add(1);
      if (traced) {
        QueryStats measured;
        measured.candidates = out.stats.candidates;
        measured.result_cache_hits = out.stats.result_cache_hits;
        AccountPrediction(log, plan, measured);
        ReplayDecode(out.ids, log, root_id, request);
      }
      if (env.workload == Workload::kServeChurn) {
        if (i % kChurnCheckEvery == 0 &&
            log.churn_checks.size() < kChurnChecksPerClient) {
          log.churn_checks.push_back(
              {pool_index, send, done, std::move(out.ids)});
        }
      } else {
        log.checks.push_back({seed, DigestOf(out.ids)});
      }
    } catch (const vaq::ServerError& e) {
      log.CountError(e);
    } catch (const std::exception& e) {
      log.CountError(e);
      conn.reset();  // Transport failure: this connection is done.
    }
    if (traced) log.tracer.End(root);
  }
}

/// paper_io: one of `kPaperInFlight` generator threads, each keeping one
/// engine submission outstanding and blocking on its future, so a
/// completion is seen when the engine publishes it rather than when a
/// poll comes round. Latency is Submit -> result ready; the traced
/// replays run outside that interval.
void PaperGeneratorLoop(Env& env, int window, int generator, bool traced,
                        WindowControl& ctl, QueryLog& log) {
  vaq::PreparedArea prep;
  const std::uint64_t stream = kStreamWindow + 8 * window + generator;
  ctl.ready.fetch_add(1);
  while (!ctl.go.load()) std::this_thread::yield();
  for (std::uint64_t i = 0; !ctl.stop.load(); ++i) {
    const std::uint64_t request = (stream << 40) | i;
    const std::uint64_t seed = StreamSeed(env.seed, stream, i);
    const Polygon area = MakePolygon(env.workload, seed);
    std::size_t root = 0;
    if (traced) root = log.tracer.Begin("request", 0, request);
    const std::uint64_t root_id = traced ? log.tracer.IdOf(root) : 0;
    vaq::QueryPlan plan;
    if (traced) {
      vaq::WireQueryRequest req = RequestFor(env.workload);
      req.wkt = vaq::ToWkt(area);
      plan = ReplayFrontLayers(env, req, &area, log, root_id, request, prep);
    }
    const std::int64_t submit = NowNs();
    try {
      std::future<vaq::QueryResult> fut =
          Traced(traced ? &log.tracer : nullptr, "engine.submit", root_id,
                 request, [&] { return env.engine->Submit(area, env.method); });
      const std::int64_t submitted = NowNs();
      fut.wait();
      const std::int64_t done = NowNs();
      vaq::QueryResult r = fut.get();
      if (ctl.stop.load()) {  // Completed after the window closed.
        if (traced) log.tracer.End(root);
        break;
      }
      log.Record(submit, done, r.stats.elapsed_ms, r.stats.plan_method,
                 r.stats.plan_reason, r.stats.result_cache_hits);
      ctl.completed.fetch_add(1);
      if (traced) {
        log.tracer.Add("engine.wait", root_id, request, submitted, done);
        AccountPrediction(log, plan, r.stats);
        ReplayDecode(r.ids, log, root_id, request);
      }
      log.checks.push_back({seed, DigestOf(r.ids)});
    } catch (const std::exception& e) {
      log.CountError(e);
    }
    if (traced) log.tracer.End(root);
  }
}

struct WindowResult {
  std::vector<std::unique_ptr<QueryLog>> logs;
  MutationLog mutations;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  vaq::EngineStats engine;
  vaq::QueryServer::Counters before, after;
  std::uint64_t version_before = 0, version_after = 0;
  std::uint64_t compactions_before = 0, compactions_after = 0;
  std::uint64_t evictions = 0;
  // Samples of the window (mutations due after its end are dropped).
  std::vector<std::int64_t> done_ns;
  std::vector<double> latency_us, exec_us, overhead_us;
  std::vector<double> mutation_us, lag_us;
};

/// Page-cache evictions of every base a window ran on: compaction swaps
/// in a fresh `PageStore`, so the retired store's count is taken when it
/// is replaced.
class EvictionTracker {
 public:
  void Poll(const DynamicPointDatabase& db) {
    auto snap = db.snapshot();
    vaq::PageStore* store = snap->base().page_store();
    if (store == nullptr) return;
    if (current_ != nullptr && store != current_store_) {
      retired_ += current_store_->counters().evictions;
      current_.reset();
    }
    if (current_ == nullptr) {
      if (current_store_ == nullptr) start_ = store->counters().evictions;
      current_ = std::move(snap);
      current_store_ = store;
    }
  }
  std::uint64_t Evictions() const {
    const std::uint64_t live =
        current_store_ != nullptr ? current_store_->counters().evictions : 0;
    return retired_ + live - start_;
  }

 private:
  std::shared_ptr<const DynamicPointDatabase::Snapshot> current_;
  vaq::PageStore* current_store_ = nullptr;
  std::uint64_t retired_ = 0;
  std::uint64_t start_ = 0;
};

WindowResult RunWindow(Env& env, int window, bool traced, double seconds) {
  WindowResult res;
  WindowControl ctl;
  const int threads = env.served() ? kServeClients : kPaperInFlight;
  for (int c = 0; c < threads; ++c) {
    res.logs.push_back(std::make_unique<QueryLog>(window * 8 + c));
  }
  std::vector<std::thread> workers;
  for (int c = 0; c < threads; ++c) {
    workers.emplace_back([&, c] {
      if (env.served()) {
        ServeClientLoop(env, window, c, traced, ctl, *res.logs[c]);
      } else {
        PaperGeneratorLoop(env, window, c, traced, ctl, *res.logs[c]);
      }
    });
  }
  while (ctl.ready.load() < threads) std::this_thread::yield();

  const bool churn = env.workload == Workload::kServeChurn;
  std::optional<vaq::QueryClient> writer_conn;
  if (churn) writer_conn.emplace(env.server->port());
  EvictionTracker evictions;
  if (env.served()) {
    res.before = env.server->counters();
    env.server->ResetEngineStats();
  } else {
    env.engine->ResetStats();
  }
  res.version_before = env.db->snapshot()->version();
  res.compactions_before = env.db->Compactions();
  if (traced) evictions.Poll(*env.db);

  res.start_ns = NowNs();
  ctl.go.store(true);
  std::thread writer;
  if (churn) {
    writer = std::thread([&] {
      RunWriter(*writer_conn, kChurnWriteRate,
                StreamSeed(env.seed, kStreamWriter, window), &env.live,
                res.start_ns, ctl.stop, traced ? env.db.get() : nullptr,
                &res.mutations);
    });
  }
  // The window lasts `seconds`, extended (up to 3x) until it holds
  // enough samples for a p99 with ten beyond it.
  const std::int64_t min_end =
      res.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t max_end =
      res.start_ns + static_cast<std::int64_t>(3 * seconds * 1e9);
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (traced) evictions.Poll(*env.db);
    const std::int64_t now = NowNs();
    const bool enough =
        ctl.completed.load() >= kMinSamples &&
        (!churn || (now - res.start_ns) * 1e-9 * kChurnWriteRate >=
                       kMinSamples);
    if ((now >= min_end && enough) || now >= max_end) break;
  }
  res.end_ns = NowNs();
  ctl.stop.store(true);
  for (std::thread& t : workers) t.join();
  if (writer.joinable()) writer.join();
  if (traced) evictions.Poll(*env.db);
  res.evictions = evictions.Evictions();

  res.engine = env.served() ? env.server->engine_stats() : env.engine->Stats();
  if (env.served()) res.after = env.server->counters();
  res.version_after = env.db->snapshot()->version();
  res.compactions_after = env.db->Compactions();

  for (const auto& log : res.logs) {
    for (std::size_t k = 0; k < log->latency_us.size(); ++k) {
      res.done_ns.push_back(log->done_ns[k]);
      res.latency_us.push_back(log->latency_us[k]);
      res.exec_us.push_back(log->exec_us[k]);
      res.overhead_us.push_back(log->latency_us[k] - log->exec_us[k]);
    }
  }
  for (std::size_t k = 0; k < res.mutations.due_ns.size(); ++k) {
    if (res.mutations.due_ns[k] > res.end_ns) continue;
    res.mutation_us.push_back(res.mutations.latency_us[k]);
    res.lag_us.push_back(res.mutations.lag_us[k]);
  }
  return res;
}

// --- Checks -------------------------------------------------------------

/// The oracle's live set: the initial points plus every acknowledged
/// mutation of `logs`, in order.
std::vector<std::pair<PointId, Point>> LivePoints(
    const Env& env, const std::vector<const MutationLog*>& logs) {
  std::unordered_map<PointId, Point> live;
  live.reserve(env.initial.size() * 2);
  for (std::size_t i = 0; i < env.initial.size(); ++i) {
    live.emplace(PointId(i), env.initial[i]);
  }
  for (const MutationLog* log : logs) {
    for (const MutationEvent& ev : log->events) {
      if (!ev.ok) continue;
      if (ev.insert) {
        live.emplace(ev.id, ev.p);
      } else {
        live.erase(ev.id);
      }
    }
  }
  return {live.begin(), live.end()};
}

/// serve_churn answers race the writer: an answer is right when it holds
/// every point inside that was certainly live for the whole request
/// (insert acked before send, erase not sent before receipt) and only
/// points inside that were possibly live at some instant of it.
std::uint64_t CheckChurnAnswers(const Env& env,
                                const std::vector<const MutationLog*>& logs,
                                const std::vector<ChurnCheck>& checks) {
  constexpr std::int64_t kNever = INT64_MAX;
  struct Life {
    std::int64_t insert_send = INT64_MIN, insert_ack = INT64_MIN;
    std::int64_t erase_send = kNever, erase_ack = kNever;
  };
  std::unordered_map<PointId, Life> life;
  std::vector<std::pair<PointId, Point>> ever;
  for (std::size_t i = 0; i < env.initial.size(); ++i) {
    ever.emplace_back(PointId(i), env.initial[i]);
  }
  for (const MutationLog* log : logs) {
    for (const MutationEvent& ev : log->events) {
      if (!ev.ok) continue;
      if (ev.insert) {
        life[ev.id] = Life{ev.send_ns, ev.ack_ns, kNever, kNever};
        ever.emplace_back(ev.id, ev.p);
      } else {
        Life& l = life[ev.id];
        l.erase_send = ev.send_ns;
        l.erase_ack = ev.ack_ns;
      }
    }
  }
  const PointGrid grid(ever);
  std::uint64_t mismatches = 0;
  std::unordered_map<PointId, bool> returned;
  for (const ChurnCheck& c : checks) {
    returned.clear();
    for (const PointId id : c.ids) returned[id] = false;
    bool ok = returned.size() == c.ids.size();  // No duplicates.
    grid.ForEachInside(env.pool[c.pool_index], [&](PointId id) {
      const auto it = life.find(id);
      const Life l = it == life.end() ? Life{} : it->second;
      const bool certain = l.insert_ack < c.send_ns && l.erase_send > c.recv_ns;
      const bool possible = l.insert_send < c.recv_ns && l.erase_ack > c.send_ns;
      const auto r = returned.find(id);
      if (r != returned.end()) {
        r->second = true;
        if (!possible) ok = false;
      } else if (certain) {
        ok = false;
      }
    });
    for (const auto& [id, inside] : returned) ok = ok && inside;
    if (!ok) ++mismatches;
  }
  return mismatches;
}

struct CheckResult {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t errors = 0;
};

/// Checks every timed answer of `w` against the oracle; `history` holds
/// the writer logs of every window up to and including `w`.
CheckResult CheckWindow(const Env& env, const WindowResult& w,
                        const std::vector<const MutationLog*>& history) {
  CheckResult r;
  if (env.workload == Workload::kServeChurn) {
    std::vector<ChurnCheck> all;
    for (const auto& log : w.logs) {
      for (const ChurnCheck& c : log->churn_checks) all.push_back(c);
    }
    r.checked = all.size();
    r.mismatches = CheckChurnAnswers(env, history, all);
    return r;
  }
  const PointGrid grid(LivePoints(env, history));
  for (const auto& log : w.logs) {
    for (const StaticCheck& c : log->checks) {
      ++r.checked;
      if (grid.DigestInside(MakePolygon(env.workload, c.seed)) != c.digest) {
        ++r.mismatches;
      }
    }
  }
  return r;
}

/// At a quiescent point: a seeded sample of polygons, uncached, against
/// the oracle over the initial points plus every acknowledged mutation.
CheckResult CheckQuiescent(Env& env,
                           const std::vector<const MutationLog*>& logs) {
  CheckResult r;
  const PointGrid grid(LivePoints(env, logs));
  std::optional<vaq::QueryClient> client;
  if (env.served()) client.emplace(env.server->port());
  for (std::size_t i = 0; i < kQuiescentChecks; ++i) {
    const std::uint64_t seed = StreamSeed(env.seed, kStreamQuiescent, i);
    const Polygon area =
        env.workload == Workload::kServeChurn
            ? env.pool[seed % kChurnPool]
            : MakePolygon(env.workload, seed);
    try {
      std::vector<PointId> ids;
      if (client) {
        vaq::WireQueryRequest req;
        req.wkt = vaq::ToWkt(area);
        req.use_cache = false;
        ids = client->Query(req).ids;
      } else {
        vaq::SubmitOptions opts;
        opts.hints.use_cache = false;
        ids = env.engine->Submit(area, env.method, opts).get().ids;
      }
      ++r.checked;
      if (DigestOf(ids) != grid.DigestInside(area)) ++r.mismatches;
    } catch (const std::exception&) {
      ++r.errors;
    }
  }
  return r;
}

// --- Output -------------------------------------------------------------

std::string HostJson(const std::string& commit) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"hardware_concurrency\": %u, \"simd_arm\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"commit\": \"%s\"}",
                std::thread::hardware_concurrency(),
                vaq::simd::ArmName(vaq::simd::DispatchArm()),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, commit.c_str());
  return buf;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / v.size();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Adds a nearest-rank percentile; a refused one (thin tail) fails the
/// run instead of printing a number.
bool AddPercentile(MetricSet& m, const char* name,
                   const std::vector<double>& samples, int pct) {
  const std::optional<double> v = Percentile(samples, pct);
  if (!v) {
    std::fprintf(stderr, "perfbench: %s refused (%zu samples)\n", name,
                 samples.size());
    return false;
  }
  return m.Add(name, *v, "us");
}

/// Aggregated spans of a traced window: mean duration and self time per
/// span name, plus the CSV dump.
struct SpanSummary {
  std::unordered_map<std::string, std::pair<double, std::uint64_t>> dur_ns;
  std::unordered_map<std::string, double> self_ns;
  double MeanUs(const std::string& name) const {
    const auto it = dur_ns.find(name);
    if (it == dur_ns.end() || it->second.second == 0) return 0.0;
    return it->second.first / it->second.second * 1e-3;
  }
  double MeanSelfUs(const std::string& name) const {
    const auto it = dur_ns.find(name);
    const auto s = self_ns.find(name);
    if (it == dur_ns.end() || s == self_ns.end() || it->second.second == 0) {
      return 0.0;
    }
    return s->second / it->second.second * 1e-3;
  }
};

/// Spans written to the trace file per run (all of them are summarized).
constexpr std::size_t kMaxSpansWritten = 200000;

SpanSummary SummarizeSpans(const std::vector<const Tracer*>& tracers,
                           const std::string& path,
                           const std::string& host_json) {
  SpanSummary sum;
  std::ofstream out(path);
  if (out) {
    out << "# host " << host_json << "\n"
        << "# first " << kMaxSpansWritten << " spans of the traced window\n"
        << "id,parent,request,name,start_ns,end_ns,self_ns\n";
  }
  std::size_t written = 0;
  for (const Tracer* t : tracers) {
    const std::vector<Span>& spans = t->spans();
    const std::vector<std::int64_t> self = SelfTimes(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      auto& d = sum.dur_ns[s.name];
      d.first += static_cast<double>(s.end_ns - s.start_ns);
      ++d.second;
      sum.self_ns[s.name] += static_cast<double>(self[i]);
      if (out && written++ < kMaxSpansWritten) {
        out << s.id << ',' << s.parent << ',' << s.request << ',' << s.name
            << ',' << s.start_ns << ',' << s.end_ns << ',' << self[i] << '\n';
      }
    }
  }
  return sum;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spill_dir = ".";
  std::string trace_dir = ".";
  std::string commit = "unknown";
};

int Run(const Args& args) {
  Workload w;
  if (args.workload == "serve_small") {
    w = Workload::kServeSmall;
  } else if (args.workload == "serve_churn") {
    w = Workload::kServeChurn;
  } else if (args.workload == "paper_io") {
    w = Workload::kPaperIo;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const bool churn = w == Workload::kServeChurn;
  const std::string host = HostJson(args.commit);
  std::printf("{\"host\": %s}\n", host.c_str());
  std::fflush(stdout);

  // Set up several times; the median is `setup_s`, the last one runs.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Env> env;
  for (int r = 0; r < kSetupReps; ++r) {
    env.reset();
    env = SetUp(w, args.seed, args.spill_dir);
    setups.push_back(env->times);
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    std::sort(v.begin(), v.end());
    return NearestRank(v, 50, 0).value_or(0.0);
  };
  // The peak so far is the library's: the benchmark holds only the
  // generated points and the pool. Logs kept during a window grow with
  // the query rate, so a later reading would charge a faster library
  // with more memory.
  const double peak_rss_mb = PeakRssMb();

  // Window 0 is always untraced; a traced run shortens it to the
  // baseline of the tracing overhead and adds the traced window 1.
  WindowResult w0 =
      RunWindow(*env, 0, false, args.trace ? args.seconds / 2 : args.seconds);
  std::optional<WindowResult> w1;
  if (args.trace) w1.emplace(RunWindow(*env, 1, true, args.seconds));

  // Correctness: every timed answer, then a quiescent uncached sample
  // (whose queries count as attempted operations of their own).
  std::vector<const MutationLog*> applied = {&w0.mutations};
  std::vector<CheckResult> timed = {CheckWindow(*env, w0, applied)};
  if (w1) {
    applied.push_back(&w1->mutations);
    timed.push_back(CheckWindow(*env, *w1, applied));
  }
  const CheckResult quiescent = CheckQuiescent(*env, applied);

  // Attempts and failures over everything the run did.
  std::uint64_t attempted = 0, failed = 0, mismatches = 0;
  for (const WindowResult* win : {&w0, w1 ? &*w1 : nullptr}) {
    if (win == nullptr) continue;
    for (const auto& log : win->logs) {
      attempted += log->latency_us.size() + log->shed + log->aborted +
                   log->errors + log->transport;
      failed += log->shed + log->aborted + log->errors + log->transport;
    }
    attempted += win->mutations.events.size() + win->mutations.errors;
    failed += win->mutations.errors;
  }
  for (const CheckResult& c : timed) {
    mismatches += c.mismatches;
    failed += c.mismatches;
  }
  attempted += quiescent.checked + quiescent.errors;
  mismatches += quiescent.mismatches;
  failed += quiescent.mismatches + quiescent.errors;

  MetricSet m;
  bool ok = true;
  if (!args.trace) {
    // Per-slice nearest-rank percentile or completion rate, medianed.
    auto add_sliced = [&](const char* name, const char* unit, int pct) {
      const std::optional<double> v = SliceMedian(
          w0.done_ns, w0.latency_us, w0.start_ns, w0.end_ns, kSlices,
          [&](std::vector<double> s, double seconds) -> std::optional<double> {
            if (pct == 0) return s.size() / seconds;
            return Percentile(std::move(s), pct);
          });
      if (!v) {
        std::fprintf(stderr, "perfbench: %s refused (%zu samples)\n", name,
                     w0.latency_us.size());
        return false;
      }
      return m.Add(name, *v, unit);
    };
    ok &= add_sliced("query_p50_us", "us", 50);
    ok &= add_sliced("query_p90_us", "us", 90);
    ok &= add_sliced("query_qps", "1/s", 0);
    ok &= m.Add("setup_s", median_of(&SetupTimes::total_s), "s");
    ok &= m.Add("peak_rss_mb", peak_rss_mb, "MiB");
  } else {
    const WindowResult& t = *w1;
    std::vector<const Tracer*> tracers;
    for (const auto& log : t.logs) tracers.push_back(&log->tracer);
    const std::string trace_path =
        args.trace_dir + "/" + args.workload + ".spans.csv";
    SpanSummary spans = SummarizeSpans(tracers, trace_path, host);

    // Core replays: the window's polygons forced through each base method.
    std::vector<double> vor_us, trad_us;
    {
      const auto snap = env->db->snapshot();
      vaq::QueryContext ctx;
      for (std::size_t i = 0; i < kCoreReplays; ++i) {
        const Polygon area =
            churn ? env->pool[i % kChurnPool]
                  : MakePolygon(w, StreamSeed(args.seed, kStreamWindow + 8, i));
        for (const DynamicMethod method :
             {DynamicMethod::kVoronoi, DynamicMethod::kTraditional}) {
          const std::int64_t t0 = NowNs();
          snap->BaseQuery(method).Run(area, ctx);
          (method == DynamicMethod::kVoronoi ? vor_us : trad_us)
              .push_back(Micros(NowNs() - t0));
        }
      }
    }

    // Window 1 query totals.
    std::uint64_t methods[vaq::kNumDynamicMethods] = {};
    std::uint64_t learned = 0, cache_hits = 0, shed = 0, aborted = 0;
    std::uint64_t rejected = 0;
    double pred_err = 0.0, boundary = 0.0;
    std::uint64_t pred_n = 0, boundary_n = 0, completed = 0;
    for (const auto& log : t.logs) {
      for (int k = 0; k < vaq::kNumDynamicMethods; ++k) {
        methods[k] += log->method_counts[k];
      }
      learned += log->learned;
      cache_hits += log->cache_hits;
      pred_err += log->pred_err_sum;
      pred_n += log->pred_err_n;
      boundary += log->boundary_share_sum;
      boundary_n += log->boundary_n;
      completed += log->latency_us.size();
      shed += log->shed;
      aborted += log->aborted;
    }
    if (env->served()) {
      shed = t.after.queries_shed - t.before.queries_shed;
      rejected = t.after.queries_rejected - t.before.queries_rejected;
      aborted = t.after.queries_aborted - t.before.queries_aborted;
    }
    const vaq::MethodEngineStats& es = t.engine.methods.at(0);
    const QueryStats& tot = es.totals;
    const double q = static_cast<double>(std::max<std::uint64_t>(es.queries, 1));
    const double c = static_cast<double>(completed);
    const std::optional<double> exec_p99 = Percentile(t.exec_us, 99);
    // The writer runs on serve_churn only; its latency tails read 0 on
    // the read-only workloads.
    auto add_writer_tail = [&](const char* name,
                               const std::vector<double>& samples, int pct) {
      return churn ? AddPercentile(m, name, samples, pct)
                   : m.Add(name, 0.0, "us");
    };

    ok &= AddPercentile(m, "client.query_p99_us", w0.latency_us, 99);
    ok &= AddPercentile(m, "server.overhead_p50_us", t.overhead_us, 50);
    ok &= AddPercentile(m, "server.overhead_p99_us", t.overhead_us, 99);
    ok &= m.Add("server.shed", shed, "count");
    ok &= m.Add("server.rejected", rejected, "count");
    ok &= m.Add("server.aborted", aborted, "count");
    ok &= m.Add("protocol.encode_us", spans.MeanUs("protocol.encode"), "us");
    ok &= m.Add("protocol.decode_ids_us", spans.MeanUs("protocol.decode_ids"),
                "us");
    ok &= m.Add("geometry.wkt_parse_us", spans.MeanUs("geometry.wkt_parse"),
                "us");
    ok &= m.Add("geometry.prepare_us", spans.MeanUs("geometry.prepare"), "us");
    ok &= m.Add("geometry.boundary_cell_share", Ratio(boundary, boundary_n),
                "ratio");
    ok &= m.Add("engine.latency_p50_us", t.engine.latency_p50_ms * 1e3, "us");
    ok &= m.Add("engine.latency_p99_us", t.engine.latency_p99_ms * 1e3, "us");
    ok &= AddPercentile(m, "engine.exec_p50_us", t.exec_us, 50);
    ok &= AddPercentile(m, "engine.exec_p99_us", t.exec_us, 99);
    if (env->served()) {
      // Submit -> completion minus execution is not visible per query
      // over the wire; the difference of the two p99s, clamped at 0, is
      // only a rough bound on it.
      ok &= m.Add("engine.wait_p99_us",
                  std::max(0.0, t.engine.latency_p99_ms * 1e3 -
                                    exec_p99.value_or(0.0)),
                  "us");
    } else {
      ok &= AddPercentile(m, "engine.wait_p99_us", t.overhead_us, 99);
    }
    ok &= m.Add("planner.plan_us", spans.MeanUs("planner.plan"), "us");
    ok &= m.Add("planner.share.voronoi", Ratio(methods[0], c), "ratio");
    ok &= m.Add("planner.share.traditional", Ratio(methods[1], c), "ratio");
    ok &= m.Add("planner.share.grid_sweep", Ratio(methods[2], c), "ratio");
    ok &= m.Add("planner.share.brute", Ratio(methods[3], c), "ratio");
    ok &= m.Add("planner.learned_share", Ratio(learned, c), "ratio");
    ok &= m.Add("planner.cand_pred_err", Ratio(pred_err, pred_n), "ratio");
    ok &= m.Add("planner.cache_hit_ratio", Ratio(cache_hits, c), "ratio");
    ok &= m.Add("core.candidates", tot.candidates / q, "count");
    ok &= m.Add("core.results", tot.results / q, "count");
    ok &= m.Add("core.geometry_loads", tot.geometry_loads / q, "count");
    ok &= m.Add("core.neighbor_expansions", tot.neighbor_expansions / q,
                "count");
    ok &= m.Add("core.segment_tests", tot.segment_tests / q, "count");
    ok &= m.Add("core.redundant_per_result",
                Ratio(tot.RedundantValidations(), tot.results), "ratio");
    ok &= m.Add("core.bulk_accepted_share",
                Ratio(tot.bulk_accepted, tot.results), "ratio");
    ok &= m.Add("core.voronoi_us", Mean(vor_us), "us");
    ok &= m.Add("core.traditional_us", Mean(trad_us), "us");
    ok &= m.Add("index.node_accesses_per_query", tot.index_node_accesses / q,
                "count");
    const MutationLog& ml = t.mutations;
    ok &= add_writer_tail("dynamic.mutation_p50_us", t.mutation_us, 50);
    ok &= add_writer_tail("dynamic.mutation_p99_us", t.mutation_us, 99);
    ok &= m.Add("dynamic.delta_size_mean",
                Ratio(ml.delta_size_sum, ml.delta_samples), "count");
    ok &= m.Add("dynamic.delta_candidates_share",
                Ratio(tot.delta_candidates, tot.candidates), "ratio");
    ok &= m.Add("dynamic.versions_published",
                t.version_after - t.version_before, "count");
    ok &= m.Add("dynamic.compactions",
                t.compactions_after - t.compactions_before, "count");
    ok &= m.Add("dynamic.compact_ms",
                Ratio(ml.compact_ms_sum, ml.compactions), "ms");
    ok &= m.Add("storage.page_hit_ratio",
                Ratio(tot.page_cache_hits, tot.pages_touched), "ratio");
    ok &= m.Add("storage.misses_per_query", tot.page_cache_misses / q,
                "count");
    ok &= m.Add("storage.evictions", t.evictions, "count");
    ok &= m.Add("setup.db_build_s", median_of(&SetupTimes::db_build_s), "s");
    ok &= m.Add("setup.server_start_s",
                median_of(&SetupTimes::service_start_s), "s");
    ok &= m.Add("setup.warmup_s", median_of(&SetupTimes::warmup_s), "s");
    const std::optional<double> p50_plain = Percentile(w0.latency_us, 50);
    const std::optional<double> p50_traced = Percentile(t.latency_us, 50);
    ok &= p50_plain && p50_traced &&
          m.Add("bench.trace_overhead_p50_us", *p50_traced - *p50_plain, "us");
    ok &= add_writer_tail("bench.writer_lag_p99_us", t.lag_us, 99);
    ok &= m.Add("bench.request_self_us", spans.MeanSelfUs("request"), "us");
    ok &= m.Add("bench.query_samples", t.latency_us.size(), "count");
    ok &= m.Add("bench.mutation_samples", t.mutation_us.size(), "count");
    ok &= m.Add("bench.fail_ratio", Ratio(failed, attempted), "ratio");
  }
  if (!ok) ++failed;

  const bool correct = ok && mismatches == 0 && failed == 0;
  if (mismatches != 0) {
    std::fprintf(stderr, "perfbench: %llu oracle mismatch(es)\n",
                 static_cast<unsigned long long>(mismatches));
  }
  env.reset();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), m.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--spill-dir") {
      args.spill_dir = value;
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spill-dir d] [--trace-dir d] "
                 "[--commit id]\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
