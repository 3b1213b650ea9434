#include "core/voronoi_area_query.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>

#include "core/batch_refine.h"
#include "delaunay/voronoi.h"
#include "geometry/prepared_area.h"
#include "geometry/segment.h"

namespace vaq {

VoronoiAreaQuery::VoronoiAreaQuery(const PointDatabase* db, Options options,
                                   const SpatialIndex* seed_index)
    : db_(db),
      options_(options),
      seed_index_(seed_index != nullptr ? seed_index : &db->rtree()) {}

bool VoronoiAreaQuery::CellIntersectsArea(PointId v, const PreparedArea& area,
                                          bool area_leaves_data_box,
                                          std::vector<Point>& ring) const {
  // The fan's cell is bounded by the super triangle; only a hull-side
  // cell's true extent reaches the parts of A beyond the data box.
  if (FanCellRing(db_->delaunay(), v, ring) && area_leaves_data_box) {
    return true;
  }
  // O(1) screen: classify the cell's bounding box against the prepared
  // grid. An outside box is disjoint from A (the cell cannot intersect);
  // an inside box is wholly contained in A (the cell certainly does).
  // Only boxes near the boundary fall through to the exact edge loop. A
  // non-finite circumcentre leaves the cell unknown, so it is followed.
  Box cell_bounds;
  for (const Point& p : ring) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) return true;
    cell_bounds.ExpandToInclude(p);
  }
  switch (area.ClassifyBox(cell_bounds)) {
    case PreparedArea::Region::kOutside:
      return false;
    case PreparedArea::Region::kInside:
      return true;
    case PreparedArea::Region::kStraddling:
      break;
  }
  // The cell intersects the polygon iff a cell vertex is inside the
  // polygon, a polygon vertex is inside the cell, or boundaries cross. The
  // edge test below covers all three but full mutual containment, which the
  // two point-in checks handle.
  if (ConvexRingContains(ring, area.polygon().vertex(0))) return true;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const Segment cell_edge{ring[i], ring[(i + 1) % ring.size()]};
    if (area.Intersects(cell_edge)) return true;
  }
  return false;
}

std::vector<PointId> VoronoiAreaQuery::Run(const Polygon& area,
                                           QueryContext& ctx) const {
  QueryStats* stats = &ctx.stats;
  stats->Reset();
  const auto t0 = std::chrono::steady_clock::now();
  IndexStats& seed_io = ctx.ScratchIndexStats();

  std::vector<PointId> result;
  // Every exit — including the empty-database and invalid-seed early
  // returns — funnels through this epilogue so the stats slot is never
  // left half-filled after the Reset() above. Every result is a validated
  // candidate (candidate_hits == results); the candidates that were
  // visited but failed validation — the flood's boundary shell — are
  // reported distinctly (candidates == candidate_hits + visited_rejected).
  const auto finish = [&]() -> std::vector<PointId> {
    ctx.SortIds(result, db_->size());
    stats->results = result.size();
    stats->candidate_hits = stats->results;
    stats->visited_rejected = stats->candidates - stats->candidate_hits;
    stats->index_node_accesses = seed_io.node_accesses;
    stats->elapsed_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    return std::move(result);
  };

  const DelaunayTriangulation& dt = db_->delaunay();
  const std::size_t n = db_->size();
  if (n == 0) return finish();

  ctx.BeginVisitEpoch(n);
  // The flood validates roughly the MBR's share of the database (results
  // plus a boundary shell); that estimate sizes the prepared grid and
  // pre-sizes the result so the hot loop never reallocates.
  const std::size_t expected =
      PreparedArea::EstimateMbrShare(n, db_->bounds(), area.Bounds());
  // The kernel handles the frontier blocks' batch containment; `prep` is
  // still consulted directly for the per-neighbour screens (cell classes,
  // segment tests) on the boundary shell.
  const PolygonKernel& kernel = ctx.PreparedKernel(area, expected);
  const PreparedArea& prep = kernel.prep();
  result.reserve(expected);

  // Line 3-4: seed = NN(P, arbitrary position in A).
  const Point seed_pos = area.InteriorPoint();
  const PointId seed = seed_index_->NearestNeighbor(seed_pos, &seed_io);
  if (seed == kInvalidPointId) return finish();

  // P_candidate of Algorithm 1, processed one frontier generation at a
  // time instead of one point at a time: the whole frontier's geometry is
  // gathered through the batched fetch boundary into SoA blocks and
  // bulk-classified against the prepared grid, so the common case — an
  // internal point in an inside cell — costs one coordinate stream read
  // and one cell lookup, no exact geometry at all. Visit order does not
  // affect the candidate set (every visited point is validated exactly
  // once), so generation order is as valid as the paper's FIFO.
  // The two generation buffers are std::vectors used as raw storage:
  // `size()` is only a high-water mark (grown, never shrunk, so the
  // zero-fill a vector resize performs is paid once per growth instead
  // of once per block) and the live lengths are tracked separately.
  // Elements beyond the live length are stale scratch, never read.
  std::vector<PointId>& frontier = ctx.ScratchQueue();
  std::vector<PointId>& next = ctx.ScratchCandidates();
  QueryContext::VisitMarker visit = ctx.Marker();
  frontier.resize(64);
  frontier[0] = seed;
  std::size_t frontier_len = 1;
  visit.MarkIfUnvisited(seed);

  const double* xs = db_->xs();
  const double* ys = db_->ys();
  const bool paper_rule =
      options_.expansion == ExpansionRule::kPaperSegment;
  // Cell-overlap completeness rests on cells tiling the plane. The fan
  // cells of the real points tile everything but the three super
  // vertices' cells, which lie far beyond the data box inflated by 5%.
  // When A leaves that box, a part of A may lie in a super cell only; the
  // hull-side cells that border the super cells then count as meeting A.
  // They form one connected ring, so every lobe of A is still reachable.
  Box data_box = db_->bounds();
  const double dx = std::max(data_box.Width(), 1e-9) * 0.05;
  const double dy = std::max(data_box.Height(), 1e-9) * 0.05;
  data_box.min.x -= dx;
  data_box.min.y -= dy;
  data_box.max.x += dx;
  data_box.max.y += dy;
  const bool area_leaves_data_box = !data_box.Contains(area.Bounds());
  std::vector<Point>& ring = ctx.ScratchRing();

  const PointId* rows[kRefineBlock];
  std::uint32_t lens[kRefineBlock];

  while (frontier_len > 0) {
    std::size_t next_len = 0;
    stats->candidates += frontier_len;
    // The whole generation's page set is known before the refine kernel
    // streams it, so hint the page cache now: on the out-of-core backends
    // this overlaps the generation's IO with the previous block's graph
    // work instead of taking every miss synchronously inside the gather.
    // No-op (and no accounting) on the in-memory backend.
    db_->PrefetchPoints(frontier.data(), frontier_len);
    // Each generation streams through the shared batched refine kernel
    // (object IO + grid classification + exact boundary resolution per
    // 256-block); the per-block callback owns the graph side.
    ForEachRefinedBlock(*db_, kernel, frontier.data(), frontier_len, stats,
                        ctx.cancel(), [&](
        const PointId* block, std::size_t m, const double* bx,
        const double* by, const bool* inside) {
      // Resolve the block's CSR adjacency rows up front: one pass pulls
      // every row's extent from the offsets array, prefetches the row
      // data, and sizes the next-frontier append for the whole block —
      // the expansion loop below then runs on registers and L1.
      std::size_t degree_sum = 0;
      for (std::size_t j = 0; j < m; ++j) {
        const std::span<const PointId> nbrs = dt.NeighborsOf(block[j]);
        rows[j] = nbrs.data();
        lens[j] = static_cast<std::uint32_t>(nbrs.size());
        degree_sum += nbrs.size();
#if defined(__GNUC__)
        __builtin_prefetch(nbrs.data());
#endif
      }
      if (next.size() < next_len + degree_sum) {
        next.resize(std::max(next_len + degree_sum, next.size() * 2));
      }
      PointId* out = next.data() + next_len;
      std::size_t enqueued = 0;
      for (std::size_t j = 0; j < m; ++j) {
        const PointId p = block[j];
        const PointId* row = rows[j];
        const std::uint32_t len = lens[j];
        if (inside[j]) {
          // Internal point: all Voronoi neighbours become candidates.
          // Expansion is branchless — mark unconditionally, compact the
          // fresh ids into the next frontier — because the ~50/50
          // already-visited outcome would otherwise mispredict on nearly
          // every edge of the interior.
          result.push_back(p);
          for (std::uint32_t k = 0; k < len; ++k) {
            const PointId pn = row[k];
            out[enqueued] = pn;
            enqueued += visit.MarkIfUnvisited(pn) ? 1 : 0;
          }
        } else {
          // Boundary point: only expand along edges that reach back into
          // A. The O(1) cell class of the neighbour settles the common
          // cases — an inside-cell endpoint is in A (follow, paper line
          // 21's `pn ∈ A` branch), and for an outside-cell endpoint only
          // the boundary-crossing test remains, which rejects in O(1)
          // when the edge's cell range holds no boundary cell. Exact
          // segment geometry runs only for edges that genuinely graze
          // the boundary band.
          for (std::uint32_t k = 0; k < len; ++k) {
            const PointId pn = row[k];
            if (visit.Visited(pn)) continue;
            bool follow;
            if (paper_rule) {
              const double xn = xs[pn];
              const double yn = ys[pn];
              const unsigned char ncls = prep.ClassifyPoint(xn, yn);
              if (ncls == PreparedArea::kPointInside) {
                follow = true;
              } else {
                follow = ncls == PreparedArea::kPointBoundary &&
                         prep.Contains({xn, yn});
                if (!follow) {
                  ++stats->segment_tests;
                  follow = prep.BoundaryIntersects(
                      Segment{{bx[j], by[j]}, {xn, yn}});
                }
              }
            } else {
              follow =
                  CellIntersectsArea(pn, prep, area_leaves_data_box, ring);
            }
            if (follow) {
              visit.MarkIfUnvisited(pn);
              out[enqueued++] = pn;
            }
          }
        }
      }
      next_len += enqueued;
      stats->neighbor_expansions += enqueued;
    });
    std::swap(frontier, next);
    frontier_len = next_len;
  }
  return finish();
}

}  // namespace vaq
