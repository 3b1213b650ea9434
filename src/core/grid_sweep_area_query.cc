#include "core/grid_sweep_area_query.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/batch_refine.h"
#include "geometry/prepared_area.h"

namespace vaq {

GridSweepAreaQuery::GridSweepAreaQuery(const PointDatabase* db,
                                       int target_bucket_size)
    : db_(db) {
  world_ = db->bounds();
  if (world_.Empty()) world_ = Box{{0, 0}, {1, 1}};
  const double n = static_cast<double>(std::max<std::size_t>(db->size(), 1));
  side_ = std::max(1, static_cast<int>(std::sqrt(n / target_bucket_size)));
  cell_w_ = std::max(world_.Width(), 1e-12) / side_;
  cell_h_ = std::max(world_.Height(), 1e-12) / side_;
  cells_.assign(static_cast<std::size_t>(side_) * side_, {});
  const std::span<const Point> points = db->points();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const int cx = std::clamp(
        static_cast<int>((points[i].x - world_.min.x) / cell_w_), 0,
        side_ - 1);
    const int cy = std::clamp(
        static_cast<int>((points[i].y - world_.min.y) / cell_h_), 0,
        side_ - 1);
    cells_[static_cast<std::size_t>(cy) * side_ + cx].push_back(
        static_cast<PointId>(i));
  }
}

Box GridSweepAreaQuery::CellBox(int cx, int cy) const {
  return Box{{world_.min.x + cx * cell_w_, world_.min.y + cy * cell_h_},
             {world_.min.x + (cx + 1) * cell_w_,
              world_.min.y + (cy + 1) * cell_h_}};
}

std::vector<PointId> GridSweepAreaQuery::Run(const Polygon& area,
                                             QueryContext& ctx) const {
  QueryStats* stats = &ctx.stats;
  stats->Reset();
  const auto t0 = std::chrono::steady_clock::now();
  // Boundary-cell buckets validate roughly the MBR's share of the points;
  // that estimate sizes the prepared grid. The kernel refines the
  // straddling buckets; `prep` still answers the O(1) box classification.
  const PolygonKernel& kernel = ctx.PreparedKernel(
      area,
      PreparedArea::EstimateMbrShare(db_->size(), world_, area.Bounds()));
  const PreparedArea& prep = kernel.prep();
  std::vector<PointId> result;

  const Box window = Box::Intersection(area.Bounds(), world_);
  if (!window.Empty()) {
    const int x0 = std::clamp(
        static_cast<int>((window.min.x - world_.min.x) / cell_w_), 0,
        side_ - 1);
    const int x1 = std::clamp(
        static_cast<int>((window.max.x - world_.min.x) / cell_w_), 0,
        side_ - 1);
    const int y0 = std::clamp(
        static_cast<int>((window.min.y - world_.min.y) / cell_h_), 0,
        side_ - 1);
    const int y1 = std::clamp(
        static_cast<int>((window.max.y - world_.min.y) / cell_h_), 0,
        side_ - 1);
    for (int cy = y0; cy <= y1; ++cy) {
      for (int cx = x0; cx <= x1; ++cx) {
        const std::vector<PointId>& bucket =
            cells_[static_cast<std::size_t>(cy) * side_ + cx];
        if (bucket.empty()) continue;
        ++stats->index_node_accesses;
        const Box cell = CellBox(cx, cy);
        switch (prep.ClassifyBox(cell)) {
          case PreparedArea::Region::kOutside:
            break;
          case PreparedArea::Region::kInside:
            // Interior cell: accept wholesale. The records are still
            // fetched (they must be returned, one coherent batch IO) but
            // no validation happens.
            db_->ChargeFetches(bucket.size(), stats);
            result.insert(result.end(), bucket.begin(), bucket.end());
            stats->bulk_accepted += bucket.size();
            break;
          case PreparedArea::Region::kStraddling:
            // The O(1) classification is conservative near the boundary
            // band; the exact box tests recover the wholesale accept (and
            // the outright reject) for cells the band merely grazes.
            if (area.ContainsBox(cell)) {
              db_->ChargeFetches(bucket.size(), stats);
              result.insert(result.end(), bucket.begin(), bucket.end());
              stats->bulk_accepted += bucket.size();
              break;
            }
            if (!area.IntersectsBox(cell)) break;
            // Boundary cell: validate with the shared batched SoA kernel
            // (O(1) per point away from the boundary band, locally exact
            // inside it).
            stats->candidates += bucket.size();
            ForEachRefinedBlock(
                *db_, kernel, bucket.data(), bucket.size(), stats,
                ctx.cancel(),
                [&](const PointId* ids, std::size_t m, const double*,
                    const double*, const bool* inside) {
                  for (std::size_t j = 0; j < m; ++j) {
                    if (inside[j]) {
                      result.push_back(ids[j]);
                      ++stats->candidate_hits;
                    }
                  }
                });
            break;
        }
      }
    }
  }
  ctx.SortIds(result, db_->size());

  stats->results = result.size();
  stats->visited_rejected = stats->candidates - stats->candidate_hits;
  stats->elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return result;
}

}  // namespace vaq
