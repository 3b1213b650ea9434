#include "core/dynamic_area_query.h"

#include <chrono>
#include <cstdint>

#include "core/batch_refine.h"
#include "geometry/prepared_area.h"

namespace vaq {

void FinishDynamicSnapshotLeg(const DynamicPointDatabase::Snapshot& snap,
                              DynamicMethod method, const Polygon& area,
                              std::vector<PointId>& result,
                              QueryContext& ctx) {
  // Remap base-internal ids to stable ids, dropping tombstoned hits in
  // place. A tombstoned hit stays a validated candidate (it was fetched
  // and passed the geometry test) — it just is not a result.
  std::size_t live = 0;
  for (const PointId id : result) {
    if (!snap.IsTombstoned(id)) result[live++] = snap.StableId(id);
  }
  result.resize(live);

  // Delta-refine pass: stream the snapshot's SoA delta buffer through the
  // blocked classification kernel. No object IO — the buffer is the
  // memtable — but the scans are candidates like any other.
  const std::size_t dn = snap.delta_size();
  if (dn > 0) {
    std::vector<PointId>& delta_hits = ctx.ScratchDelta();
    if (method == DynamicMethod::kBruteForce) {
      // The brute-force wrapper stays PreparedArea-independent on the
      // delta too (see BruteForceAreaQuery): it is the ground truth the
      // cross-method checks compare against, so a shared PreparedArea
      // bug must not fail all four dynamic methods identically. The
      // exact scan is fine — the delta is threshold-bounded.
      snap.ForEachDeltaRun([&](std::size_t run_offset, const double* xs,
                                const double* ys, std::size_t n) {
        for (std::size_t j = 0; j < n; ++j) {
          if (area.Contains({xs[j], ys[j]})) {
            delta_hits.push_back(snap.DeltaStableId(run_offset + j));
          }
        }
      });
    } else {
      // `PreparedKernel` is memoized on the polygon, so when the base pass
      // already built the (larger, base-sized) grid for this area this
      // returns its kernel unchanged; only paths where the base never
      // prepared — e.g. the voronoi flood's empty-base early return — pay
      // a fresh delta-sized build.
      const PolygonKernel& kernel = ctx.PreparedKernel(area, dn);
      ctx.stats.kernel_kind |= kernel.stats_mask();
      snap.ForEachDeltaRun([&](std::size_t run_offset, const double* xs,
                                const double* ys, std::size_t n) {
        ForEachClassifiedBlock(
            kernel, xs, ys, n,
            [&](std::size_t offset, std::size_t m, const bool* inside) {
              for (std::size_t j = 0; j < m; ++j) {
                if (inside[j]) {
                  delta_hits.push_back(
                      snap.DeltaStableId(run_offset + offset + j));
                }
              }
            });
      });
    }
    ctx.stats.delta_candidates = dn;
    ctx.stats.candidates += dn;
    ctx.stats.candidate_hits += delta_hits.size();
    ctx.stats.visited_rejected += dn - delta_hits.size();
    result.insert(result.end(), delta_hits.begin(), delta_hits.end());
  }
}

std::vector<PointId> RunDynamicSnapshotQuery(
    const DynamicPointDatabase::Snapshot& snap, DynamicMethod method,
    const Polygon& area, QueryContext& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  // Base pass: the wrapped implementation resets and fills ctx.stats.
  std::vector<PointId> result = snap.BaseQuery(method).Run(area, ctx);
  FinishDynamicSnapshotLeg(snap, method, area, result, ctx);
  // The base and delta contributions are individually sorted but
  // interleave in the stable id space; one sort over the merged set
  // restores the contract.
  ctx.SortIds(result, snap.stable_limit());
  ctx.stats.results = result.size();
  ctx.stats.elapsed_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  return result;
}

}  // namespace vaq
