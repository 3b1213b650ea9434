#ifndef VAQ_STORAGE_PAGE_STORE_H_
#define VAQ_STORAGE_PAGE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/query_stats.h"
#include "fault/fault.h"
#include "geometry/point.h"
#include "storage/page_format.h"

namespace vaq {

/// Thrown when one *page* of an already-opened store cannot be read —
/// the runtime counterpart of the open-time `PageFileError` taxonomy.
/// Open-time errors are permanent (a malformed file never becomes valid;
/// they are never retried); a `PageReadError` is raised only after the
/// store's retry policy is exhausted (`kReadFailed`) or the page was
/// quarantined for repeated checksum failures (`kQuarantined`). Carries
/// the page id and its byte offset in the file so an operator can map
/// the failure to a disk region, plus the number of read attempts spent.
class PageReadError : public std::runtime_error {
 public:
  enum class Kind {
    kReadFailed,   // transient read faults exhausted the retry budget
    kQuarantined,  // page failed its checksum twice; no further reads
  };

  PageReadError(Kind kind, std::uint32_t page, std::uint64_t offset,
                int attempts, const std::string& what)
      : std::runtime_error(what),
        kind_(kind),
        page_(page),
        offset_(offset),
        attempts_(attempts) {}

  Kind kind() const { return kind_; }
  std::uint32_t page() const { return page_; }
  std::uint64_t offset() const { return offset_; }
  int attempts() const { return attempts_; }

 private:
  Kind kind_;
  std::uint32_t page_;
  std::uint64_t offset_;
  int attempts_;
};

/// How a page-cache miss brings the page in.
enum class PageMissMode {
  /// `pread` the page from the file into the cache frame. One syscall per
  /// miss — deliberately the expensive path, so cache-miss accounting
  /// corresponds to a real kernel round-trip per page even when the file
  /// is resident in the OS page cache (the cost a disk-backed engine pays
  /// at minimum per page it faults).
  kPread,
  /// `memcpy` the page out of the read-only mapping. Cheaper (no syscall;
  /// the copy may itself fault the mapping in) — the mode for measuring
  /// pure cache-management overhead.
  kMmapCopy,
};

/// Selects what backs `PointDatabase`'s object-fetch boundary.
enum class StorageBackend {
  /// Coordinates served from the resident point array (the default; zero
  /// page accounting, exactly the pre-paging behavior).
  kInMemory,
  /// Coordinates served from an mmap-backed page file through the LRU
  /// `PageStore`; prefetch hints via `madvise(MADV_WILLNEED)`.
  kMmap,
};

const char* StorageBackendName(StorageBackend backend);

/// Storage configuration carried by `PointDatabase::Options` (and through
/// it by the dynamic and sharded layers, whose rebuilt bases inherit it).
struct StorageOptions {
  StorageBackend backend = StorageBackend::kInMemory;
  /// Page size of the spill file; power of two in [256, 1 MiB].
  std::uint32_t page_size_bytes = 4096;
  /// LRU capacity in pages. The working set a query streams through stays
  /// hit-resident when it fits; capacity misses beyond it are the
  /// "larger than RAM" regime the out-of-core benches measure.
  std::size_t cache_pages = 4096;
  /// Verify the payload checksum when opening (one streaming read of the
  /// file). Kept on by default — the spill path writes and immediately
  /// re-verifies, which is cheap insurance against a lying disk.
  bool verify_checksum = true;
  PageMissMode miss_mode = PageMissMode::kPread;
  /// Directory for database-written spill files; empty means
  /// `std::filesystem::temp_directory_path()`. Spill files are unlinked
  /// as soon as they are mapped, so they vanish on close or crash.
  std::string spill_dir;
  /// Deterministic fault injection applied to the page store (and the
  /// database's simulated fetch latency). Disabled by default; when left
  /// disabled, `PointDatabase` falls back to `FaultSpec::FromEnv()`
  /// (`VAQ_FAULT_SPEC`) so the existing harnesses can soak the error
  /// paths without code changes. See `src/fault/fault.h`.
  FaultSpec fault;
};

/// Lifetime IO totals of one `PageStore` (all accesses, all queries) —
/// the bench-level counters; per-query accounting goes to `QueryStats`.
struct PageIoCounters {
  std::uint64_t pages_touched = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t evictions = 0;
  /// Read attempts beyond the first (transient faults absorbed by the
  /// retry policy) and pages written off after repeated checksum
  /// failures. Both 0 unless fault injection is active or the device
  /// genuinely misbehaves.
  std::uint64_t io_retries = 0;
  std::uint64_t pages_quarantined = 0;
};

/// An mmap-backed page file behind an explicit LRU page cache.
///
/// Every coordinate read goes through a cache *frame*: a page access
/// first resolves the page to a frame (hit: LRU touch; miss: evict the
/// least-recently-used frame and load the page via the
/// configured miss mode), then reads coordinates out of the frame. The
/// explicit cache — rather than trusting the OS page cache alone — is
/// what makes "cache smaller than dataset" an experiment knob and
/// hit/miss counts exact, deterministic quantities.
///
/// Accounting: a `Gather` charges one `pages_touched` per page *run* in
/// its id sequence (consecutive ids on the same page are one touch — the
/// page-granular view of a batched gather), and each touch is exactly one
/// hit or one miss, so `page_cache_hits + page_cache_misses ==
/// pages_touched` holds per query by construction.
///
/// Thread safety: all methods are safe to call concurrently (one internal
/// mutex serializes cache state); the per-call `QueryStats*` is written
/// without synchronization and must not be shared across threads (the
/// same contract as the rest of the query layer).
class PageStore {
 public:
  struct Options {
    std::size_t cache_pages = 4096;
    bool verify_checksum = true;
    PageMissMode miss_mode = PageMissMode::kPread;
    /// Reject the file unless its page size equals this
    /// (`PageFileError::Kind::kPageSizeMismatch`); 0 accepts any valid
    /// size. For callers whose cache geometry is fixed before the file
    /// is seen.
    std::uint32_t required_page_size_bytes = 0;
    /// Fault injection for this store (disabled by default). When
    /// enabled, read attempts consult the injector (simulated transient
    /// errors, frame corruption, slow pages) and the
    /// retry/backoff/quarantine policy of the spec governs recovery.
    /// When `corrupt` faults are possible, per-page checksums are
    /// computed once at open so a corrupted frame is detected before any
    /// coordinate leaves the store. Every hook is gated on the injector
    /// pointer, so a disabled spec adds one null test per miss — nothing
    /// on hits.
    FaultSpec fault;
  };

  /// Opens, validates (header always; payload checksum unless disabled)
  /// and maps `path`. Throws `PageFileError` on any malformed input.
  static std::unique_ptr<PageStore> Open(const std::string& path,
                                         const Options& options);
  ~PageStore();

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  std::size_t point_count() const { return header_.point_count; }
  std::size_t num_pages() const { return header_.NumPages(); }
  std::uint32_t page_size_bytes() const { return header_.page_size_bytes; }
  std::size_t points_per_page() const { return std::size_t{1} << ppp_shift_; }
  /// Frames in the LRU arena: `Options::cache_pages` capped at
  /// `num_pages()`, and at least 1.
  std::size_t cache_pages() const { return frames_count_; }
  /// Heap bytes of the frame arena, from its capacity.
  std::size_t frame_bytes() const { return frames_.capacity(); }
  std::uint32_t PageOfId(PointId id) const {
    return static_cast<std::uint32_t>(id >> ppp_shift_);
  }

  /// Gathers the coordinates of `ids[0..n)` into the SoA outputs, pulling
  /// every touched page through the cache and charging the page counters
  /// of `stats` (if non-null).
  void Gather(const PointId* ids, std::size_t n, double* xs_out,
              double* ys_out, QueryStats* stats);

  /// Single-point read through the cache (one page touch).
  Point GetPoint(PointId id, QueryStats* stats);

  /// Page-granular prefetch hint for an upcoming gather of `ids[0..n)`:
  /// `madvise(MADV_WILLNEED)` on the distinct uncached page ranges,
  /// letting the kernel read ahead. Never loads a frame and never changes
  /// cache state or accounting — frames are filled only by a gather's
  /// miss, under the fault policy of `LoadPageCheckedLocked`.
  void Prefetch(const PointId* ids, std::size_t n);

  /// Whether `page` currently occupies a cache frame (tests, benches).
  bool Cached(std::uint32_t page) const;

  /// Whether `page` has been quarantined (always false without fault
  /// injection; tests).
  bool Quarantined(std::uint32_t page) const;

  PageIoCounters counters() const;
  void ResetCounters();

 private:
  PageStore(const std::string& path, const Options& options,
            const PageFileHeader& header, int fd);

  /// Resolves `page` to its frame, counting one touch (hit or miss) into
  /// `stats` and the lifetime counters. Caller holds `mu_`.
  const double* FrameForPageLocked(std::uint32_t page, QueryStats* stats);
  std::size_t AcquireSlotLocked();
  void LoadPageLocked(std::uint32_t page, std::size_t slot);
  /// The miss path's load with the failure-domain policy wrapped around
  /// it: consults the fault injector, verifies the per-page checksum when
  /// armed, retries transient faults with capped exponential backoff
  /// (charging `io_retries`), quarantines a page after two consecutive
  /// checksum failures, and throws the typed `PageReadError` when the
  /// budget is exhausted. Caller holds `mu_`.
  void LoadPageCheckedLocked(std::uint32_t page, std::size_t slot,
                             QueryStats* stats);
  void TouchLocked(std::size_t slot);
  void UnlinkLocked(std::size_t slot);
  void PushFrontLocked(std::size_t slot);

  PageFileHeader header_;
  Options options_;
  int fd_ = -1;
  /// Mapping of the whole file; payload_ = base + header bytes.
  void* map_base_ = nullptr;
  std::size_t map_len_ = 0;
  const char* payload_ = nullptr;
  unsigned ppp_shift_ = 0;

  mutable std::mutex mu_;
  /// Frame arena: frames_count_ frames of page_size bytes each.
  std::vector<char> frames_;
  std::size_t frames_count_ = 0;
  std::vector<std::int64_t> slot_of_page_;   // -1 = not cached.
  std::vector<std::uint32_t> page_of_slot_;
  // Intrusive LRU list over slots; head = most recent, tail = eviction
  // candidate. kNilSlot terminates.
  static constexpr std::size_t kNilSlot = static_cast<std::size_t>(-1);
  std::vector<std::size_t> lru_prev_, lru_next_;
  std::size_t lru_head_ = kNilSlot, lru_tail_ = kNilSlot;
  std::vector<std::size_t> free_slots_;
  PageIoCounters counters_;

  /// Scratch for Prefetch's distinct-page set (guarded by mu_).
  std::vector<std::uint32_t> prefetch_pages_;

  /// Fault layer (null when Options::fault is disabled — the happy-path
  /// gate every hook tests). All state below it is allocated only when
  /// the injector exists and is guarded by mu_.
  std::unique_ptr<FaultInjector> injector_;
  /// Per-page FNV-1a checksums snapshot at open (only when corruption
  /// faults are possible) — the reference a loaded frame is verified
  /// against.
  std::vector<std::uint64_t> page_checksums_;
  /// Consecutive checksum failures per page (reset on a clean verify);
  /// reaching 2 quarantines the page.
  std::vector<std::uint8_t> checksum_strikes_;
  /// 1 = page quarantined: every future access throws `PageReadError`
  /// immediately instead of handing out bytes that failed verification.
  std::vector<std::uint8_t> quarantined_;
};

}  // namespace vaq

#endif  // VAQ_STORAGE_PAGE_STORE_H_
