#include "core/voronoi_area_query.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>

#include "core/batch_refine.h"
#include "geometry/predicates.h"
#include "geometry/prepared_area.h"
#include "geometry/segment.h"

namespace vaq {

VoronoiAreaQuery::VoronoiAreaQuery(const PointDatabase* db, Options options,
                                   const SpatialIndex* seed_index)
    : db_(db),
      options_(options),
      seed_index_(seed_index != nullptr ? seed_index : &db->rtree()) {}

namespace {

// The dual-edge rule out of outside candidate `p`: calls `follow(q)` for
// every unvisited real neighbour `q` whose Voronoi edge — the segment
// between the circumcentres of the two fan triangles that share `pq` —
// meets A. One CCW walk of `p`'s fan meets each edge once, between a
// triangle and the next. The cheap screens run first, and a circumcentre
// is computed at most once, only when an edge reaches the geometry.
template <typename Follow>
void ForEachDualEdgeHit(const DelaunayTriangulation& dt, PointId p,
                        const PreparedArea& prep, bool area_leaves_data_box,
                        QueryContext::VisitMarker visit, QueryStats* stats,
                        Follow&& follow) {
  const std::size_t n = dt.num_points();
  struct FanTriangle {  // `q` ends the edge shared with the next triangle.
    std::uint32_t t, q;
    bool touches_super, has_centre;
    Point centre;
  };
  const auto centre_of = [&](FanTriangle& f) -> const Point& {
    if (!f.has_centre) {
      const auto v = dt.TriangleVertices(f.t);
      f.centre = Circumcenter(dt.point(v[0]), dt.point(v[1]), dt.point(v[2]));
      f.has_centre = true;
    }
    return f.centre;
  };
  // Whether to follow the edge `a` shares with the next fan triangle `b`.
  const auto admits = [&](FanTriangle& a, FanTriangle& b) {
    // A neighbour in an inside grid cell is in A, so its cell meets A.
    const Point& q = dt.point(a.q);
    if (prep.ClassifyPoint(q.x, q.y) == PreparedArea::kPointInside) {
      return true;
    }
    // The super-vertex escape keeps the hull ring connected (DESIGN §1).
    if (area_leaves_data_box && (a.touches_super || b.touches_super)) {
      return true;
    }
    const Segment dual{centre_of(a), centre_of(b)};
    if (!std::isfinite(dual.a.x) || !std::isfinite(dual.a.y) ||
        !std::isfinite(dual.b.x) || !std::isfinite(dual.b.y)) {
      return true;  // The edge is unknown; follow it.
    }
    const PreparedArea::Region region = prep.ClassifyBox(dual.Bounds());
    if (region != PreparedArea::Region::kStraddling) {
      return region == PreparedArea::Region::kInside;
    }
    ++stats->segment_tests;
    return prep.Intersects(dual);
  };
  FanTriangle first{};
  FanTriangle last{};
  FanTriangle* prev = nullptr;
  const auto test = [&](FanTriangle& a, FanTriangle& b) {
    if (a.q < n && !visit.Visited(a.q) && admits(a, b)) follow(a.q);
  };
  dt.CirculateCell(p, [&](std::uint32_t t) {
    const auto v = dt.TriangleVertices(t);
    const int i = v[0] == p ? 0 : (v[1] == p ? 1 : 2);
    FanTriangle cur{t, v[(i + 2) % 3], v[0] >= n || v[1] >= n || v[2] >= n,
                    false, {}};
    if (prev != nullptr) {
      test(*prev, cur);
      last = cur;
      prev = &last;
    } else {
      first = cur;
      prev = &first;
    }
  });
  if (prev != nullptr) test(*prev, first);
}

}  // namespace

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
  // box and segment tests) on the boundary shell.
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

  const bool paper_rule =
      options_.expansion == ExpansionRule::kPaperSegment;
  // The dual-edge rule's completeness rests on cells tiling the plane.
  // The fan cells of the real points tile everything but the three super
  // vertices' cells, which lie far beyond the data box inflated by 5%.
  // When A leaves that box, a part of A may lie in a super cell only; the
  // flood then also follows every edge with a super-vertex triangle on
  // either side, which walks the hull ring around the super cells.
  const Box& data = db_->bounds();
  const double dx = std::max(data.Width(), 1e-9) * 0.05;
  const double dy = std::max(data.Height(), 1e-9) * 0.05;
  const bool area_leaves_data_box =
      !Box::FromExtents(data.min.x - dx, data.min.y - dy, data.max.x + dx,
                        data.max.y + dy)
           .Contains(area.Bounds());

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
      const auto enqueue = [&](PointId pn) {
        visit.MarkIfUnvisited(pn);
        out[enqueued++] = pn;
      };
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
        } else if (paper_rule) {
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
            const Point& q = dt.point(pn);
            const unsigned char ncls = prep.ClassifyPoint(q.x, q.y);
            bool follow = ncls == PreparedArea::kPointInside ||
                          (ncls == PreparedArea::kPointBoundary &&
                           prep.Contains(q));
            if (!follow) {
              ++stats->segment_tests;
              follow = prep.BoundaryIntersects(Segment{{bx[j], by[j]}, q});
            }
            if (follow) enqueue(pn);
          }
        } else {
          // Boundary point under the dual-edge rule: the same screens,
          // but the segment tested is the Voronoi edge dual to (p, pn).
          ForEachDualEdgeHit(dt, p, prep, area_leaves_data_box, visit, stats,
                             enqueue);
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
