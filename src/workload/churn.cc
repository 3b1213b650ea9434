#include "workload/churn.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>
#include <ostream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/brute_force_area_query.h"
#include "core/dynamic_area_query.h"
#include "core/dynamic_point_database.h"
#include "workload/point_generator.h"
#include "workload/polygon_generator.h"
#include "workload/rng.h"

namespace vaq {
namespace {

constexpr Box kDomain{{0.0, 0.0}, {1.0, 1.0}};

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// Mirror of the live point set, maintained alongside the dynamic
/// database: O(1) uniform sampling of a live id (for deletes) and the
/// material for the from-scratch rebuilds at verification points.
class LiveSet {
 public:
  void Add(PointId id, const Point& p) {
    pos_[id] = ids_.size();
    ids_.push_back(id);
    points_.push_back(p);
  }

  PointId Sample(Rng* rng) const {
    return ids_[static_cast<std::size_t>(
        rng->UniformInt(0, static_cast<std::int64_t>(ids_.size()) - 1))];
  }

  void Remove(PointId id) {
    const std::size_t at = pos_.at(id);
    const std::size_t last = ids_.size() - 1;
    if (at != last) {
      ids_[at] = ids_[last];
      points_[at] = points_[last];
      pos_[ids_[at]] = at;
    }
    ids_.pop_back();
    points_.pop_back();
    pos_.erase(id);
  }

  bool empty() const { return ids_.empty(); }
  std::size_t size() const { return ids_.size(); }
  const std::vector<PointId>& ids() const { return ids_; }
  const std::vector<Point>& points() const { return points_; }

 private:
  std::vector<PointId> ids_;
  std::vector<Point> points_;  // Parallel to ids_.
  std::unordered_map<PointId, std::size_t> pos_;
};

}  // namespace

ChurnReport RunChurnExperiment(const ChurnConfig& config) {
  ChurnReport report;
  Rng rng(config.seed);

  DynamicPointDatabase::Options options;
  options.compact_threshold = config.compact_threshold;
  options.auto_compact = config.auto_compact;
  DynamicPointDatabase db(
      GenerateUniformPoints(config.initial_size, kDomain, &rng), options);

  LiveSet live;
  {
    const auto snap = db.snapshot();
    snap->ForEachLive(
        [&](PointId id, const Point& p) { live.Add(id, p); });
  }

  constexpr DynamicMethod kMethods[] = {
      DynamicMethod::kVoronoi, DynamicMethod::kTraditional,
      DynamicMethod::kBruteForce};

  PolygonSpec spec;
  spec.vertices = config.polygon_vertices;
  spec.query_size_fraction = config.query_size_fraction;

  QueryContext ctx;
  for (std::size_t op = 0; op < config.operations; ++op) {
    const double r = rng.Uniform(0.0, 1.0);
    if (r < config.insert_fraction) {
      const Point p = Point{rng.Uniform(kDomain.min.x, kDomain.max.x),
                            rng.Uniform(kDomain.min.y, kDomain.max.y)};
      const auto t0 = Clock::now();
      const std::optional<PointId> id = db.Insert(p);
      report.mutate_ms += MsSince(t0);
      if (id.has_value()) {
        ++report.inserts;
        live.Add(*id, p);
      } else {
        ++report.rejected_duplicates;
      }
    } else if (r < config.insert_fraction + config.erase_fraction &&
               !live.empty()) {
      const PointId victim = live.Sample(&rng);
      const auto t0 = Clock::now();
      const bool erased = db.Erase(victim);
      report.mutate_ms += MsSince(t0);
      if (erased) {
        ++report.erases;
        live.Remove(victim);
      }
    } else {
      const Polygon area = GenerateQueryPolygon(spec, kDomain, &rng);
      const auto t0 = Clock::now();
      const auto snap = db.snapshot();
      const std::vector<PointId> truth =
          RunDynamicSnapshotQuery(*snap, kMethods[0], area, ctx);
      for (std::size_t m = 1; m < std::size(kMethods); ++m) {
        if (RunDynamicSnapshotQuery(*snap, kMethods[m], area, ctx) != truth) {
          ++report.mismatches;
        }
      }
      report.query_ms += MsSince(t0);
      ++report.queries;
    }

    if (config.verify_every > 0 && (op + 1) % config.verify_every == 0 &&
        live.size() >= 3) {
      // From-scratch ground truth: rebuild an immutable database over the
      // merged live set and compare every dynamic method's result set —
      // mapped through the rebuild's id permutation — against brute force
      // on the rebuild.
      const auto t0 = Clock::now();
      const PointDatabase rebuilt(live.points());
      const BruteForceAreaQuery brute(&rebuilt);
      const Polygon area = GenerateQueryPolygon(spec, kDomain, &rng);
      std::vector<PointId> truth;  // Stable ids, sorted.
      for (const PointId internal : brute.Run(area, nullptr)) {
        truth.push_back(live.ids()[rebuilt.OriginalId(internal)]);
      }
      std::sort(truth.begin(), truth.end());
      const auto snap = db.snapshot();
      for (const DynamicMethod method : kMethods) {
        if (RunDynamicSnapshotQuery(*snap, method, area, ctx) != truth) {
          ++report.mismatches;
        }
      }
      report.verify_ms += MsSince(t0);
      ++report.verifications;
    }
  }

  report.compactions = db.Compactions();
  report.final_size = db.Size();
  return report;
}

void PrintChurnReport(const ChurnConfig& config, const ChurnReport& report,
                      std::ostream& os) {
  os << "churn: initial=" << config.initial_size
     << " ops=" << config.operations << " -> inserts=" << report.inserts
     << " erases=" << report.erases << " queries=" << report.queries
     << " dup-rejects=" << report.rejected_duplicates
     << " compactions=" << report.compactions
     << " final_size=" << report.final_size << "\n";
  const double mutations =
      static_cast<double>(report.inserts + report.erases);
  if (report.mutate_ms > 0.0 && mutations > 0.0) {
    os << "  mutations: " << report.mutate_ms << " ms total, "
       << mutations / (report.mutate_ms / 1000.0) << " ops/s\n";
  }
  if (report.query_ms > 0.0 && report.queries > 0) {
    os << "  queries (x3 methods): " << report.query_ms << " ms total, "
       << static_cast<double>(report.queries) / (report.query_ms / 1000.0)
       << " q/s\n";
  }
  if (report.verifications > 0) {
    os << "  verifications: " << report.verifications << " ("
       << report.verify_ms << " ms)\n";
  }
  os << "  mismatches: " << report.mismatches << "\n";
}

}  // namespace vaq
