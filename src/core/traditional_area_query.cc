#include "core/traditional_area_query.h"

#include <algorithm>
#include <chrono>

#include "core/batch_refine.h"
#include "geometry/prepared_area.h"

namespace vaq {

TraditionalAreaQuery::TraditionalAreaQuery(const PointDatabase* db,
                                           const SpatialIndex* index,
                                           Options options)
    : db_(db),
      index_(index != nullptr ? index : &db->rtree()),
      options_(options) {}

std::vector<PointId> TraditionalAreaQuery::Run(const Polygon& area,
                                               QueryContext& ctx) const {
  QueryStats* stats = &ctx.stats;
  stats->Reset();
  const auto t0 = std::chrono::steady_clock::now();
  IndexStats& filter_io = ctx.ScratchIndexStats();

  std::vector<PointId> result;
  if (options_.filter == Filter::kPolygonIndex) {
    // Polygon-aware filter: the index traversal already validated (or
    // bulk-accepted) every reported point, so the candidate set equals the
    // result set. Candidates are still fetched through the database — each
    // returned object is one object IO in the paper's cost model. The grid
    // resolution is sized from the expected MBR population.
    const PreparedArea& prep = ctx.Prepared(
        area, PreparedArea::EstimateMbrShare(db_->size(), db_->bounds(),
                                             area.Bounds()));
    std::vector<PointId>& candidates = ctx.ScratchCandidates();
    index_->PolygonQuery(prep, &candidates, &filter_io);
    // Each returned object is one object IO, charged as one coherent
    // batch; the coordinates themselves are never inspected again.
    db_->ChargeFetches(candidates.size(), stats);
    result.insert(result.end(), candidates.begin(), candidates.end());
    stats->candidates = candidates.size();
  } else {
    // Filter: all points inside the MBR of the query area.
    std::vector<PointId>& candidates = ctx.ScratchCandidates();
    index_->WindowQuery(area.Bounds(), &candidates, &filter_io);

    stats->candidates = candidates.size();
    // An empty window has nothing to refine: skip the grid build, no test
    // would read it.
    if (!candidates.empty()) {
      // The filter ran first, so the exact candidate count sizes the
      // prepared grid: the build cost amortises over this many point tests.
      // `PreparedKernel` also selects the specialised batch classifier
      // (convex half-plane / small-m / grid-residual) for the polygon.
      const PolygonKernel& kernel = ctx.PreparedKernel(area, candidates.size());

      // Refine: the shared batched SoA kernel (see batch_refine.h) streams
      // candidate blocks through the IO boundary and the prepared grid;
      // every survivor is a result. The full candidate list is known up
      // front, so hint the out-of-core page cache once for the whole
      // refine pass (no-op on the in-memory backend).
      // Survivors are compacted branch-free: every candidate is written at
      // the cursor, which advances only past hits.
      db_->PrefetchPoints(candidates.data(), candidates.size());
      result.resize(candidates.size());
      std::size_t found = 0;
      ForEachRefinedBlock(
          *db_, kernel, candidates.data(), candidates.size(), stats,
          ctx.cancel(),
          [&](const PointId* ids, std::size_t m, const double*, const double*,
              const bool* inside) {
            for (std::size_t j = 0; j < m; ++j) {
              result[found] = ids[j];
              found += inside[j] ? 1 : 0;
            }
          });
      result.resize(found);
    }
  }
  ctx.SortIds(result, db_->size());

  stats->results = result.size();
  stats->candidate_hits = stats->results;
  stats->visited_rejected = stats->candidates - stats->candidate_hits;
  stats->index_node_accesses = filter_io.node_accesses;
  stats->bulk_accepted = filter_io.bulk_accepted;
  stats->elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return result;
}

}  // namespace vaq
