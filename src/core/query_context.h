#ifndef VAQ_CORE_QUERY_CONTEXT_H_
#define VAQ_CORE_QUERY_CONTEXT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/cancel.h"
#include "core/query_stats.h"
#include "geometry/prepared_area.h"
#include "geometry/simd/polygon_kernel.h"
#include "index/spatial_index.h"

namespace vaq {

struct PlanHints;

/// Per-thread scratch arena for area-query execution.
///
/// Query objects (`AreaQuery` implementations) are stateless and therefore
/// safe to share across threads; everything a single execution mutates —
/// the epoch-marked visited set, candidate queues, index IO counters and
/// the `QueryStats` slot — lives here instead. The engine keeps one
/// `QueryContext` per worker thread so scratch memory is allocated once
/// and reused across millions of queries; single-threaded callers can use
/// the convenience `AreaQuery::Run(area, stats)` overload, which maintains
/// one context per calling thread.
///
/// A context must never be used by two threads at the same time.
class QueryContext {
 public:
  /// Stats of the most recent query run with this context. Implementations
  /// reset it at the start of `Run` and fill it as they go.
  QueryStats stats;

  // -- Cancellation --------------------------------------------------------

  /// The cancellation/deadline token of the query currently executing on
  /// this context, or null (the default — no cancellation configured,
  /// zero cost). Set by the engine worker around each task (and by the
  /// sharded gather around its inline legs), consulted at block
  /// boundaries via `CheckCancelled`. Not owned.
  void set_cancel(const CancelToken* token) { cancel_ = token; }
  const CancelToken* cancel() const { return cancel_; }

  /// Throws `QueryAbortedError` when the current query's token expired;
  /// a single null check when no token is installed.
  void CheckCancelled() const {
    if (cancel_ != nullptr) cancel_->Check();
  }

  // -- Planner hints --------------------------------------------------------

  /// Hints of the query currently executing on this context, or null (the
  /// default — fully automatic planning). Set by the engine worker around
  /// each task, exactly like the cancel token: this is how per-submission
  /// `SubmitOptions::hints` reach `PlannedAreaQuery::Run` through the
  /// hint-less `AreaQuery` interface the engine dispatches on. Not owned.
  void set_plan_hints(const PlanHints* hints) { plan_hints_ = hints; }
  const PlanHints* plan_hints() const { return plan_hints_; }

  // -- Epoch-marked visited set -------------------------------------------
  //
  // `visited[id] == epoch` means "id was visited by the current query".
  // Bumping the epoch invalidates all marks in O(1) instead of an O(n)
  // clear per query on million-point databases.

  /// Starts a fresh visited epoch over ids `[0, n)`. Handles the epoch
  /// counter wrap: when the uint32 overflows, stale marks from 2^32 queries
  /// ago would alias fresh ones, so the array is cleared and the epoch
  /// restarts at 1 (0 is reserved as "never marked").
  void BeginVisitEpoch(std::size_t n) {
    // Resize clears to 0, which can never equal a live epoch (0 is
    // reserved), so the epoch counter deliberately keeps running here.
    if (visited_.size() != n) visited_.assign(n, 0);
    if (++epoch_ == 0) {
      std::fill(visited_.begin(), visited_.end(), 0u);
      epoch_ = 1;
    }
  }
  bool Visited(PointId id) const { return visited_[id] == epoch_; }
  void MarkVisited(PointId id) { visited_[id] = epoch_; }

  /// Register-resident view of the visited set for tight kernels: the
  /// array pointer and the epoch live in the returned value, so the
  /// compiler keeps them in registers instead of re-loading the context
  /// members on every edge (stores into a same-typed output array may
  /// alias them otherwise). Invalidated by `BeginVisitEpoch`.
  ///
  /// `MarkIfUnvisited` marks unconditionally and reports whether the id
  /// was fresh, so a caller's expansion loop carries no data-dependent
  /// branch — the flood kernel pairs it with a compaction store
  /// (`out[n] = id; n += fresh;`) to expand neighbours without branch
  /// mispredictions.
  struct VisitMarker {
    std::uint32_t* visited;
    std::uint32_t epoch;
    bool Visited(PointId id) const { return visited[id] == epoch; }
    bool MarkIfUnvisited(PointId id) {
      const bool fresh = visited[id] != epoch;
      visited[id] = epoch;
      return fresh;
    }
  };
  VisitMarker Marker() { return VisitMarker{visited_.data(), epoch_}; }

  /// Test hook for the wrap path: force the epoch counter near its maximum
  /// without running 2^32 queries.
  void SetEpochForTest(std::uint32_t epoch) { epoch_ = epoch; }

  // -- Scratch buffers -----------------------------------------------------

  /// BFS frontier / candidate queue, cleared and ready to fill.
  std::vector<PointId>& ScratchQueue() {
    queue_.clear();
    return queue_;
  }

  /// Candidate id buffer (window-query output), cleared and ready to fill.
  std::vector<PointId>& ScratchCandidates() {
    candidates_.clear();
    return candidates_;
  }

  /// Delta-scan scratch of the dynamic-database query (see
  /// `RunDynamicSnapshotQuery`): collects the stable ids of delta-buffer
  /// hits before they are merged into the base result. A third buffer —
  /// distinct from `ScratchQueue`/`ScratchCandidates` — because the
  /// wrapped base query may still own those when the delta pass runs.
  std::vector<PointId>& ScratchDelta() {
    delta_hits_.clear();
    return delta_hits_;
  }

  /// Per-query index IO counters, reset and ready to pass to index calls.
  IndexStats& ScratchIndexStats() {
    index_stats_.Reset();
    return index_stats_;
  }

  /// The context's prepared-geometry accelerator, rebuilt over `area`
  /// (see `PreparedArea`). Query implementations call this once per `Run`;
  /// the grid/CSR buffers are reused across queries, so steady-state
  /// execution allocates nothing. `area` must outlive the returned
  /// reference's use (it does: it outlives the `Run` call).
  ///
  /// `expected_tests` — the caller's estimate of how many point/segment
  /// tests the query will run against the polygon — sizes the grid so the
  /// one-time build cost amortises (see `PreparedArea::SuggestGridSide`);
  /// 0 falls back to the polygon-complexity default.
  ///
  /// Memoized: if the context's accelerator already holds this exact
  /// polygon (compared by value against an owned vertex copy — a previous
  /// query's polygon freed and reallocated at the same address cannot
  /// false-hit) on a grid at least as fine as requested, the build is
  /// skipped. A wrapper whose inner query prepared the same polygon (the
  /// dynamic delta pass) therefore just calls `Prepared` again and gets
  /// the inner build back; repeated identical queries skip the rebuild
  /// too. The O(m) vertex compare is noise next to the grid build.
  const PreparedArea& Prepared(const Polygon& area,
                               std::size_t expected_tests = 0) {
    const int side =
        PreparedArea::SuggestGridSide(area.size(), expected_tests);
    if (prepared_side_ >= side &&
        prepared_vertices_ == area.vertices()) {
      // The structure may have been built over a different (equal-valued)
      // polygon object that no longer exists — e.g. the previous engine
      // task's copy; repoint it at the caller's live polygon before the
      // residual exact tests dereference it. (A degenerate prepared
      // structure holds no polygon and never dereferences one.)
      if (prepared_.prepared()) prepared_.RebindPolygon(area);
      return prepared_;
    }
    prepared_.Prepare(area, side);
    ++prepared_builds_;
    prepared_side_ = side;
    prepared_vertices_ = area.vertices();
    kernel_ready_ = false;  // The kernel snapshots prepared_'s arrays.
    return prepared_;
  }

  /// Whether the accelerator already holds `area` (the memo `Prepared`
  /// hits at any grid size): a caller with only a few tests to run can
  /// then reuse the built kernel through `PreparedKernel(area)` for free.
  bool HoldsPrepared(const Polygon& area) const {
    return prepared_side_ >= 0 && prepared_vertices_ == area.vertices();
  }

  /// Grid builds `Prepared` has run on this context (memo hits excluded):
  /// the count that shows whether one query prepared its polygon once.
  std::uint64_t prepared_builds() const { return prepared_builds_; }

  /// The context's batch containment kernel over `Prepared(area, ...)` —
  /// the query-specialised classifier selected at prepare time (see
  /// `PolygonKernel`). Memoized alongside the prepared structure: a memo
  /// hit on the polygon reuses the kernel's SoA snapshots too, a rebuild
  /// re-selects and re-snapshots. Re-prepared if the process-wide dispatch
  /// arm changed (only tests toggle that mid-process).
  const PolygonKernel& PreparedKernel(const Polygon& area,
                                      std::size_t expected_tests = 0) {
    const PreparedArea& prep = Prepared(area, expected_tests);
    const simd::Arm arm = simd::DispatchArm();
    if (!kernel_ready_ || kernel_.arm() != arm) {
      kernel_.Prepare(prep, arm);
      kernel_ready_ = true;
    }
    return kernel_;
  }

  /// Sorts `ids` ascending, where every id is < `universe` and ids are
  /// distinct. Input that already ascends — what the R-tree's window and
  /// polygon queries emit — returns after one O(k) scan. Otherwise, unless
  /// the universe is sparse in ids, a reusable bitmap
  /// (O(universe/64 + k) word operations) replaces comparison sorting
  /// (O(k log k)). Stable ids remapped from a Hilbert-relabelled base
  /// arrive in random order, where `std::sort` pays ~40 ns per id on
  /// 1% queries — more than the base query itself.
  void SortIds(std::vector<PointId>& ids, std::size_t universe) {
    if (std::is_sorted(ids.begin(), ids.end())) return;
    const std::size_t words = (universe + 63) / 64;
    if (words > ids.size() * std::bit_width(ids.size())) {
      std::sort(ids.begin(), ids.end());
      return;
    }
    if (sort_bitmap_.size() < words) sort_bitmap_.resize(words);
    std::fill(sort_bitmap_.begin(), sort_bitmap_.begin() + words, 0u);
    for (const PointId id : ids) {
      sort_bitmap_[id >> 6] |= std::uint64_t{1} << (id & 63);
    }
    std::size_t at = 0;
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = sort_bitmap_[w];
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        ids[at++] = static_cast<PointId>((w << 6) + bit);
      }
    }
  }

  /// Reorders `ids` by ascending `key(id)`, where the keys are distinct
  /// and < `key_limit`. LSD radix sort of packed (key << 32 | id) words on
  /// the key half, in as few passes as digits of at most 11 bits allow
  /// (two below 2^22), the key's bits split evenly among them, with every
  /// pass's histogram counted in the packing sweep. O(k) with no
  /// universe-sized scan, unlike `SortIds`; the two packed buffers are
  /// reused, so steady-state sorting allocates nothing.
  template <typename KeyFn>
  void SortIdsByKey(std::vector<PointId>& ids, std::size_t key_limit,
                    KeyFn key) {
    const std::size_t n = ids.size();
    if (n < 2) return;
    sort_keys_.resize(n);
    sort_tmp_.resize(n);
    std::uint64_t* keys = sort_keys_.data();
    std::uint64_t* tmp = sort_tmp_.data();
    constexpr int kMaxDigitBits = 11;
    const int bits =
        std::max(1, static_cast<int>(std::bit_width(key_limit - 1)));
    const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
    const int digit_bits = (bits + passes - 1) / passes;
    const std::size_t buckets = std::size_t{1} << digit_bits;
    const std::uint64_t mask = buckets - 1;
    std::uint32_t histograms[3 << kMaxDigitBits];
    std::fill(histograms, histograms + passes * buckets, 0u);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = std::uint64_t{key(ids[i])} << 32 | ids[i];
      keys[i] = k;
      for (int p = 0; p < passes; ++p) {
        ++histograms[p * buckets + ((k >> (32 + digit_bits * p)) & mask)];
      }
    }
    for (int p = 0; p < passes; ++p) {
      std::uint32_t* offsets = histograms + p * buckets;
      std::uint32_t sum = 0;
      for (std::size_t b = 0; b < buckets; ++b) {
        const std::uint32_t count = offsets[b];
        offsets[b] = sum;
        sum += count;
      }
      const int shift = 32 + digit_bits * p;
      for (std::size_t i = 0; i < n; ++i) {
        tmp[offsets[(keys[i] >> shift) & mask]++] = keys[i];
      }
      std::swap(keys, tmp);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<PointId>(keys[i]);
    }
  }

 private:
  const CancelToken* cancel_ = nullptr;
  const PlanHints* plan_hints_ = nullptr;
  std::vector<std::uint32_t> visited_;
  std::uint32_t epoch_ = 0;
  std::vector<PointId> queue_;
  std::vector<PointId> candidates_;
  std::vector<PointId> delta_hits_;
  IndexStats index_stats_;
  PreparedArea prepared_;
  /// Memo key of `prepared_`: the prepared polygon's vertices (owned
  /// copy) and grid side; side -1 = nothing prepared yet.
  std::vector<Point> prepared_vertices_;
  int prepared_side_ = -1;
  std::uint64_t prepared_builds_ = 0;
  /// Batch kernel bound to `prepared_`; valid only while `kernel_ready_`
  /// (invalidated whenever `prepared_` is rebuilt).
  PolygonKernel kernel_;
  bool kernel_ready_ = false;
  std::vector<std::uint64_t> sort_bitmap_;
  /// `SortIdsByKey`'s packed (key << 32 | id) words and its radix
  /// scatter target.
  std::vector<std::uint64_t> sort_keys_;
  std::vector<std::uint64_t> sort_tmp_;
};

}  // namespace vaq

#endif  // VAQ_CORE_QUERY_CONTEXT_H_
