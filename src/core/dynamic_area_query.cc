#include "core/dynamic_area_query.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "core/batch_refine.h"
#include "geometry/prepared_area.h"

namespace vaq {

namespace {

/// Whether one grid build sized to `survivors` point tests, plus the
/// kernel run over them, costs less than testing them by
/// `Polygon::Contains`, which walks all `m` edges per point. In edge-step
/// units a build of side s costs about 2·s² (one row-major cell pass for
/// the classes, the summed-area tables and the CSR offsets, plus the
/// kernel run) plus 3·m·s (every edge rasterised once over ~s cells, the
/// row lists and the kernel's edge copy): a calibration on a 2.1 GHz Xeon
/// put the crossover at ~37 survivors for a decagon (side 8, ~1.0 µs
/// build), ~30 for a 20-gon and ~35 for a 40-gon (side 10).
bool GridBuildPays(std::size_t survivors, std::size_t m) {
  const auto side = static_cast<std::size_t>(
      PreparedArea::SuggestGridSide(m, survivors));
  return survivors * m > 2 * side * side + 3 * m * side;
}

}  // namespace

void OrderBasePassByStableId(const DynamicPointDatabase::Snapshot& snap,
                             std::vector<PointId>& ids, QueryContext& ctx) {
  ctx.SortIdsByKey(ids, snap.stable_limit(),
                   [&snap](PointId id) { return snap.StableId(id); });
}

void FinishDynamicSnapshotLeg(const DynamicPointDatabase::Snapshot& snap,
                              DynamicMethod method, const Polygon& area,
                              std::vector<PointId>& result,
                              QueryContext& ctx) {
  // Remap base-internal ids to stable ids, dropping tombstoned hits in
  // place. A tombstoned hit stays a validated candidate (it was fetched
  // and passed the geometry test) — it just is not a result. The ids
  // arrive in ascending stable order, so the output is ascending too.
  std::size_t live = 0;
  for (const PointId id : result) {
    if (!snap.IsTombstoned(id)) result[live++] = snap.StableId(id);
  }
  result.resize(live);

  // Delta-refine pass. No object IO — the buffer is the memtable — but
  // every delta point is a scanned candidate. Only those inside MBR(A)
  // can be hits, so one box test per point screens first and only the
  // survivors (typically a few) are classified. `delta_hits` holds the
  // survivors' buffer slots, then is compacted in place to the stable
  // ids of the hits.
  const std::size_t dn = snap.delta_size();
  if (dn == 0) return;
  const Box mbr = area.Bounds();
  std::vector<PointId>& delta_hits = ctx.ScratchDelta();
  snap.ForEachDeltaRun([&](std::size_t run_offset, const double* xs,
                           const double* ys, std::size_t n) {
    for (std::size_t j = 0; j < n; ++j) {
      if (mbr.Contains({xs[j], ys[j]})) {
        delta_hits.push_back(static_cast<PointId>(run_offset + j));
      }
    }
  });
  const std::size_t survivors = delta_hits.size();
  std::size_t found = 0;
  // The brute-force wrapper stays PreparedArea-independent on the delta
  // too (see BruteForceAreaQuery): it is the ground truth the
  // cross-method checks compare against, so a shared PreparedArea bug
  // must not fail all four dynamic methods identically. Otherwise the
  // kernel classifies when the context already holds this polygon (a
  // miss's base pass prepared it) or when a grid sized to the survivors
  // costs less than testing them by `Polygon::Contains`, which has the
  // kernel's exact semantics.
  const bool held = ctx.HoldsPrepared(area);
  if (method != DynamicMethod::kBruteForce && survivors > 0 &&
      (held || GridBuildPays(survivors, area.size()))) {
    const PolygonKernel& kernel =
        ctx.PreparedKernel(area, held ? 0 : survivors);
    ctx.stats.kernel_kind |= kernel.stats_mask();
    double xs[kRefineBlock];
    double ys[kRefineBlock];
    bool inside[kRefineBlock];
    for (std::size_t base = 0; base < survivors; base += kRefineBlock) {
      const std::size_t m = std::min(kRefineBlock, survivors - base);
      for (std::size_t j = 0; j < m; ++j) {
        const Point p = snap.DeltaPoint(delta_hits[base + j]);
        xs[j] = p.x;
        ys[j] = p.y;
      }
      kernel.ContainsBatch(xs, ys, m, inside);
      for (std::size_t j = 0; j < m; ++j) {
        if (inside[j]) {
          delta_hits[found++] = snap.DeltaStableId(delta_hits[base + j]);
        }
      }
    }
  } else {
    for (std::size_t i = 0; i < survivors; ++i) {
      if (area.Contains(snap.DeltaPoint(delta_hits[i]))) {
        delta_hits[found++] = snap.DeltaStableId(delta_hits[i]);
      }
    }
  }
  delta_hits.resize(found);
  // Every delta stable id exceeds every base stable id (ids only grow,
  // and a compaction folds the whole delta into the base), so the sorted
  // delta hits append after the base hits. Swap-removes reorder the
  // buffer, so its order says nothing.
  std::sort(delta_hits.begin(), delta_hits.end());
  ctx.stats.delta_candidates = dn;
  ctx.stats.candidates += dn;
  ctx.stats.candidate_hits += found;
  ctx.stats.visited_rejected += dn - found;
  result.insert(result.end(), delta_hits.begin(), delta_hits.end());
}

std::vector<PointId> RunDynamicSnapshotQuery(
    const DynamicPointDatabase::Snapshot& snap, DynamicMethod method,
    const Polygon& area, QueryContext& ctx) {
  const auto t0 = std::chrono::steady_clock::now();
  // Base pass: the wrapped implementation resets and fills ctx.stats.
  std::vector<PointId> result = snap.BaseQuery(method).Run(area, ctx);
  OrderBasePassByStableId(snap, result, ctx);
  FinishDynamicSnapshotLeg(snap, method, area, result, ctx);
  ctx.stats.results = result.size();
  ctx.stats.elapsed_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  return result;
}

}  // namespace vaq
