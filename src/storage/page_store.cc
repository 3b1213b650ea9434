#include "storage/page_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace vaq {

const char* StorageBackendName(StorageBackend backend) {
  switch (backend) {
    case StorageBackend::kInMemory:
      return "memory";
    case StorageBackend::kMmap:
      return "mmap";
  }
  return "unknown";
}

namespace {

unsigned ShiftOf(std::size_t pow2) {
  unsigned s = 0;
  while ((std::size_t{1} << s) < pow2) ++s;
  return s;
}

}  // namespace

std::unique_ptr<PageStore> PageStore::Open(const std::string& path,
                                           const Options& options) {
  const PageFileHeader header = ReadPageFileHeader(path);
  if (options.required_page_size_bytes != 0 &&
      header.page_size_bytes != options.required_page_size_bytes) {
    std::ostringstream os;
    os << "page size mismatch: file has " << header.page_size_bytes
       << ", caller requires " << options.required_page_size_bytes;
    throw PageFileError(PageFileError::Kind::kPageSizeMismatch, path,
                        os.str());
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw PageFileError(PageFileError::Kind::kIo, path,
                        std::string("open: ") + std::strerror(errno));
  }
  std::unique_ptr<PageStore> store(new PageStore(path, options, header, fd));
  return store;
}

PageStore::PageStore(const std::string& path, const Options& options,
                     const PageFileHeader& header, int fd)
    : header_(header), options_(options), fd_(fd) {
  map_len_ = kPageFileHeaderBytes + header_.PayloadBytes();
  void* base = mmap(nullptr, map_len_, PROT_READ, MAP_PRIVATE, fd_, 0);
  if (base == MAP_FAILED) {
    const int err = errno;
    ::close(fd_);
    throw PageFileError(PageFileError::Kind::kIo, path,
                        std::string("mmap: ") + std::strerror(err));
  }
  map_base_ = base;
  payload_ = static_cast<const char*>(base) + kPageFileHeaderBytes;
  ppp_shift_ = ShiftOf(header_.PointsPerPage());

  if (options_.verify_checksum) {
    const std::uint64_t sum = Fnv1a64(payload_, header_.PayloadBytes());
    if (sum != header_.payload_checksum) {
      std::ostringstream os;
      os << "payload checksum mismatch: computed " << sum << ", header has "
         << header_.payload_checksum;
      munmap(map_base_, map_len_);
      ::close(fd_);
      map_base_ = nullptr;
      fd_ = -1;
      throw PageFileError(PageFileError::Kind::kChecksumMismatch, path,
                          os.str());
    }
  }

  if (options_.fault.enabled) {
    injector_ = std::make_unique<FaultInjector>(options_.fault);
    quarantined_.assign(header_.NumPages(), 0);
    checksum_strikes_.assign(header_.NumPages(), 0);
    if (options_.fault.corrupt_rate > 0.0) {
      // Snapshot per-page reference checksums now (the mapping was just
      // validated), so a frame corrupted between file and cache is
      // caught before any coordinate leaves the store. Only when
      // corruption faults are possible: the pass is one payload read.
      page_checksums_.resize(header_.NumPages());
      const std::size_t len = header_.page_size_bytes;
      for (std::size_t p = 0; p < header_.NumPages(); ++p) {
        page_checksums_[p] = Fnv1a64(payload_ + p * len, len);
      }
    }
  }

  // More frames than pages could never fill; size the arena to the file.
  frames_count_ = std::max<std::size_t>(
      1, std::min<std::size_t>(options_.cache_pages, header_.NumPages()));
  frames_.resize(frames_count_ * header_.page_size_bytes);
  slot_of_page_.assign(header_.NumPages(), -1);
  page_of_slot_.assign(frames_count_, 0);
  lru_prev_.assign(frames_count_, kNilSlot);
  lru_next_.assign(frames_count_, kNilSlot);
  free_slots_.reserve(frames_count_);
  for (std::size_t s = frames_count_; s-- > 0;) free_slots_.push_back(s);
}

PageStore::~PageStore() {
  if (map_base_ != nullptr) munmap(map_base_, map_len_);
  if (fd_ >= 0) ::close(fd_);
}

void PageStore::UnlinkLocked(std::size_t slot) {
  const std::size_t prev = lru_prev_[slot];
  const std::size_t next = lru_next_[slot];
  if (prev != kNilSlot) lru_next_[prev] = next; else lru_head_ = next;
  if (next != kNilSlot) lru_prev_[next] = prev; else lru_tail_ = prev;
  lru_prev_[slot] = lru_next_[slot] = kNilSlot;
}

void PageStore::PushFrontLocked(std::size_t slot) {
  lru_prev_[slot] = kNilSlot;
  lru_next_[slot] = lru_head_;
  if (lru_head_ != kNilSlot) lru_prev_[lru_head_] = slot;
  lru_head_ = slot;
  if (lru_tail_ == kNilSlot) lru_tail_ = slot;
}

void PageStore::TouchLocked(std::size_t slot) {
  if (lru_head_ == slot) return;
  UnlinkLocked(slot);
  PushFrontLocked(slot);
}

std::size_t PageStore::AcquireSlotLocked() {
  if (!free_slots_.empty()) {
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  // Every occupied frame is on the LRU chain, so with no free slot the
  // tail exists unless a failed load leaked its frame.
  const std::size_t slot = lru_tail_;
  if (slot == kNilSlot) {
    throw std::logic_error("PageStore: no free or evictable cache frame");
  }
  slot_of_page_[page_of_slot_[slot]] = -1;
  ++counters_.evictions;
  UnlinkLocked(slot);
  return slot;
}

void PageStore::LoadPageLocked(std::uint32_t page, std::size_t slot) {
  char* frame = frames_.data() +
                slot * static_cast<std::size_t>(header_.page_size_bytes);
  const std::size_t len = header_.page_size_bytes;
  const std::uint64_t off =
      kPageFileHeaderBytes + static_cast<std::uint64_t>(page) * len;
  if (options_.miss_mode == PageMissMode::kMmapCopy) {
    std::memcpy(frame, payload_ + static_cast<std::size_t>(page) * len, len);
    return;
  }
  std::size_t done = 0;
  while (done < len) {
    const ssize_t got = pread(fd_, frame + done, len - done,
                              static_cast<off_t>(off + done));
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      // The file was validated to hold every page at open; a short read
      // here means it shrank underneath us (or the device failed).
      throw std::runtime_error("PageStore: pread failed mid-page");
    }
    done += static_cast<std::size_t>(got);
  }
}

void PageStore::LoadPageCheckedLocked(std::uint32_t page, std::size_t slot,
                                      QueryStats* stats) {
  if (injector_ == nullptr) {
    LoadPageLocked(page, slot);
    return;
  }
  char* frame = frames_.data() +
                slot * static_cast<std::size_t>(header_.page_size_bytes);
  const std::size_t len = header_.page_size_bytes;
  const std::uint64_t off =
      kPageFileHeaderBytes + static_cast<std::uint64_t>(page) * len;
  const int max_attempts = 1 + std::max(0, options_.fault.max_read_retries);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      ++counters_.io_retries;
      if (stats != nullptr) ++stats->io_retries;
      const double backoff_ms = injector_->BackoffMs(attempt);
      if (backoff_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
      }
    }
    if (injector_->ReadFails(page, attempt)) continue;  // Transient fault.
    try {
      LoadPageLocked(page, slot);
    } catch (const std::runtime_error&) {
      // A real short read / device error is transient by policy too:
      // under injection the file is intact, and on a genuinely flaky
      // device a retry is exactly the right response.
      continue;
    }
    if (injector_->CorruptsFrame(page, attempt)) frame[0] ^= 0xFF;
    if (!page_checksums_.empty()) {
      if (Fnv1a64(frame, len) != page_checksums_[page]) {
        if (++checksum_strikes_[page] >= 2) {
          quarantined_[page] = 1;
          ++counters_.pages_quarantined;
          if (stats != nullptr) ++stats->pages_quarantined;
          std::ostringstream os;
          os << "PageStore: page " << page << " quarantined after repeated "
             << "checksum failures (offset " << off << ")";
          throw PageReadError(PageReadError::Kind::kQuarantined, page, off,
                              attempt + 1, os.str());
        }
        continue;  // First strike: corrupt delivery retried like a fault.
      }
      checksum_strikes_[page] = 0;  // Strikes count *consecutive* failures.
    }
    if (injector_->SlowPage(page)) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options_.fault.spike_ms));
    }
    return;
  }
  std::ostringstream os;
  os << "PageStore: page " << page << " read failed after " << max_attempts
     << " attempts (offset " << off << ")";
  throw PageReadError(PageReadError::Kind::kReadFailed, page, off,
                      max_attempts, os.str());
}

const double* PageStore::FrameForPageLocked(std::uint32_t page,
                                            QueryStats* stats) {
  if (injector_ != nullptr && quarantined_[page] != 0) {
    // Quarantined pages fail fast without touching the cache or its
    // counters — the bytes already failed verification twice and a fresh
    // read would deliver the same lie.
    std::ostringstream os;
    os << "PageStore: page " << page << " is quarantined";
    throw PageReadError(
        PageReadError::Kind::kQuarantined, page,
        kPageFileHeaderBytes +
            static_cast<std::uint64_t>(page) * header_.page_size_bytes,
        0, os.str());
  }
  ++counters_.pages_touched;
  if (stats != nullptr) ++stats->pages_touched;
  const std::int64_t cached = slot_of_page_[page];
  std::size_t slot;
  if (cached >= 0) {
    ++counters_.cache_hits;
    if (stats != nullptr) ++stats->page_cache_hits;
    slot = static_cast<std::size_t>(cached);
    TouchLocked(slot);
  } else {
    ++counters_.cache_misses;
    if (stats != nullptr) ++stats->page_cache_misses;
    slot = AcquireSlotLocked();
    try {
      LoadPageCheckedLocked(page, slot, stats);
    } catch (...) {
      // Return the slot before unwinding: it is in neither the free list
      // nor the LRU chain here, so losing it would shrink the cache by
      // one frame per failed load for the life of the store.
      free_slots_.push_back(slot);
      throw;
    }
    slot_of_page_[page] = static_cast<std::int64_t>(slot);
    page_of_slot_[slot] = page;
    PushFrontLocked(slot);
  }
  return reinterpret_cast<const double*>(
      frames_.data() + slot * static_cast<std::size_t>(header_.page_size_bytes));
}

void PageStore::Gather(const PointId* ids, std::size_t n, double* xs_out,
                       double* ys_out, QueryStats* stats) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t ppp = points_per_page();
  const std::size_t in_page_mask = ppp - 1;
  std::int64_t current_page = -1;
  const double* frame = nullptr;
  for (std::size_t j = 0; j < n; ++j) {
    const PointId id = ids[j];
    const std::uint32_t page = static_cast<std::uint32_t>(id >> ppp_shift_);
    if (static_cast<std::int64_t>(page) != current_page) {
      frame = FrameForPageLocked(page, stats);
      current_page = page;
    }
    const std::size_t at = id & in_page_mask;
    xs_out[j] = frame[at];
    ys_out[j] = frame[ppp + at];
  }
}

Point PageStore::GetPoint(PointId id, QueryStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  const double* frame =
      FrameForPageLocked(static_cast<std::uint32_t>(id >> ppp_shift_), stats);
  const std::size_t ppp = points_per_page();
  const std::size_t at = id & (ppp - 1);
  return Point{frame[at], frame[ppp + at]};
}

void PageStore::Prefetch(const PointId* ids, std::size_t n) {
  if (n == 0 || header_.NumPages() == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Distinct uncached pages of the id sequence (consecutive-run dedup is
  // enough: Hilbert clustering makes same-page ids adjacent).
  prefetch_pages_.clear();
  std::int64_t last = -1;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t page =
        static_cast<std::uint32_t>(ids[j] >> ppp_shift_);
    if (static_cast<std::int64_t>(page) == last) continue;
    last = page;
    if (slot_of_page_[page] < 0) prefetch_pages_.push_back(page);
  }
  if (prefetch_pages_.empty()) return;

  const std::size_t len = header_.page_size_bytes;
  // madvise(MADV_WILLNEED) over the distinct pages, coalescing adjacent
  // pages into one range. Addresses are aligned down to the system page
  // (the 64-byte header offsets every payload page).
  const long sys_page = sysconf(_SC_PAGESIZE);
  const std::uintptr_t align_mask = static_cast<std::uintptr_t>(sys_page - 1);
  std::size_t i = 0;
  while (i < prefetch_pages_.size()) {
    std::size_t j = i + 1;
    while (j < prefetch_pages_.size() &&
           prefetch_pages_[j] == prefetch_pages_[j - 1] + 1) {
      ++j;
    }
    const char* start =
        payload_ + static_cast<std::size_t>(prefetch_pages_[i]) * len;
    const char* end =
        payload_ + static_cast<std::size_t>(prefetch_pages_[j - 1]) * len +
        len;
    char* aligned = reinterpret_cast<char*>(
        reinterpret_cast<std::uintptr_t>(start) & ~align_mask);
    madvise(aligned, static_cast<std::size_t>(end - aligned), MADV_WILLNEED);
    i = j;
  }
}

bool PageStore::Cached(std::uint32_t page) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slot_of_page_[page] >= 0;
}

bool PageStore::Quarantined(std::uint32_t page) const {
  std::lock_guard<std::mutex> lock(mu_);
  return !quarantined_.empty() && quarantined_[page] != 0;
}

PageIoCounters PageStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void PageStore::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_ = PageIoCounters{};
}

}  // namespace vaq
