#ifndef VAQ_CORE_BATCH_REFINE_H_
#define VAQ_CORE_BATCH_REFINE_H_

#include <algorithm>
#include <cstddef>

#include "core/cancel.h"
#include "core/point_database.h"
#include "core/query_stats.h"
#include "geometry/simd/polygon_kernel.h"

namespace vaq {

/// Block size of the batched refine kernels: big enough to amortise loop
/// overhead and fill the vector lanes of the classification kernel, small
/// enough that the block's SoA arrays stay in L1. Matches the
/// `PolygonKernel` internal block, so each refine block is one kernel
/// invocation.
inline constexpr std::size_t kRefineBlock = 256;

/// The batched refine kernel every query method shares: streams the
/// candidate ids through the database's batched object-IO boundary in
/// `kRefineBlock`-sized blocks — gather coordinates (`FetchPoints`,
/// prefetched), then batch-classify through the query-specialised
/// `PolygonKernel` (grid classes + masked boundary-band resolve, or the
/// convex/small-m ring kernels; see `src/geometry/simd/`) — and hands each
/// block to
///
///   per_block(const PointId* ids, std::size_t m,
///             const double* xs, const double* ys, const bool* inside)
///
/// where `inside[j]` is exactly `polygon.Contains({xs[j], ys[j]})` for the
/// kernel's polygon. Callers only consume the verdicts (filter-refine
/// pushes hits, the flood also expands hits' neighbours); the
/// classification logic and its tuning live in the kernel once.
///
/// The `n % kRefineBlock` tail is not a special case: partial blocks run
/// through the same masked kernel entry as full ones (`ContainsBatch`
/// handles any block length), so both arms execute one code path.
///
/// Records which kernel ran in `stats->kernel_kind` (a bitmask, OR-merged
/// across blocks, legs and repetitions).
///
/// `cancel` is the query's cooperative cancellation token (null = none,
/// one pointer test per block): it is polled once per `kRefineBlock`, so
/// a cancelled or deadline-expired query aborts with `QueryAbortedError`
/// after at most one block's worth of IO + classification — the O(block)
/// abort bound of DESIGN.md §12. The block boundary is the *only* poll
/// site on purpose: it is where the kernels already break their streams,
/// so the happy path pays nothing inside the lanes.
template <typename Fn>
void ForEachRefinedBlock(const PointDatabase& db, const PolygonKernel& kernel,
                         const PointId* ids, std::size_t n, QueryStats* stats,
                         const CancelToken* cancel, Fn&& per_block) {
  if (n == 0) return;
  if (stats != nullptr) stats->kernel_kind |= kernel.stats_mask();
  double xs[kRefineBlock];
  double ys[kRefineBlock];
  bool inside[kRefineBlock];
  for (std::size_t base = 0; base < n; base += kRefineBlock) {
    if (cancel != nullptr) cancel->Check();
    const std::size_t m = std::min(kRefineBlock, n - base);
    db.FetchPoints(ids + base, m, xs, ys, stats);
    kernel.ContainsBatch(xs, ys, m, inside);
    per_block(ids + base, m, xs, ys, inside);
  }
}

}  // namespace vaq

#endif  // VAQ_CORE_BATCH_REFINE_H_
