#ifndef VAQ_STORAGE_PAGE_FORMAT_H_
#define VAQ_STORAGE_PAGE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "geometry/point.h"

namespace vaq {

/// The versioned on-disk page file (".vpag") that backs out-of-core
/// storage: point coordinates packed in Hilbert-curve order into
/// fixed-size pages, so page locality == id locality == spatial locality
/// (the clustering `PointDatabase` already applies makes the three
/// coincide for free).
///
/// Layout (all fields little-endian):
///
///   offset  size  field
///   ------  ----  -----------------------------------------------
///        0     4  magic "VPAG"
///        4     4  format_version (currently 1)
///        8     4  page_size_bytes (power of two in [256, 1 MiB])
///       12     4  reserved (written 0, ignored on read)
///       16     8  point_count
///       24     8  payload_checksum (FNV-1a 64 over the whole payload,
///                 padding included)
///       32    32  reserved (written 0, ignored on read)
///       64   ...  payload: ceil(count / ppp) pages of page_size bytes
///
/// where ppp = page_size_bytes / 16 is the points per page. Page p holds
/// the points with internal ids [p*ppp, (p+1)*ppp) as SoA within the
/// page: ppp doubles of x, then ppp doubles of y — one page read serves
/// a whole id run in the layout the batch refine kernels stream. The
/// last page is zero-padded to full size, so every page read is exactly
/// page_size bytes (no short-read special case in the IO path).
struct PageFileHeader {
  std::uint32_t page_size_bytes = 0;
  std::uint64_t point_count = 0;
  std::uint64_t payload_checksum = 0;

  std::size_t PointsPerPage() const { return page_size_bytes / 16; }
  std::size_t NumPages() const {
    const std::size_t ppp = PointsPerPage();
    return ppp == 0 ? 0 : (point_count + ppp - 1) / ppp;
  }
  std::size_t PayloadBytes() const {
    return NumPages() * static_cast<std::size_t>(page_size_bytes);
  }
};

inline constexpr char kPageFileMagic[4] = {'V', 'P', 'A', 'G'};
inline constexpr std::uint32_t kPageFileVersion = 1;
inline constexpr std::size_t kPageFileHeaderBytes = 64;
inline constexpr std::uint32_t kMinPageSizeBytes = 256;
inline constexpr std::uint32_t kMaxPageSizeBytes = 1u << 20;

/// Whether `page_size` is a value the format accepts: a power of two in
/// [kMinPageSizeBytes, kMaxPageSizeBytes] (so ppp is a whole power of two
/// and offset arithmetic reduces to shifts).
bool IsValidPageSize(std::uint32_t page_size);

/// Thrown by the page-file reader on any malformed input. The on-disk
/// file is untrusted (it may come from another machine, another version,
/// or a bad disk), so every failure mode is diagnosed with a typed kind —
/// callers that want to distinguish "wrong file" from "corrupt file" can
/// switch on `kind()` instead of parsing the message.
class PageFileError : public std::runtime_error {
 public:
  enum class Kind {
    kIo,                // open/read/map syscall failure
    kTruncated,         // file shorter than header, or payload shorter
                        // than the header's count demands
    kBadMagic,          // not a VPAG file
    kBadVersion,        // a future (or corrupt) format_version
    kBadPageSize,       // page size not a power of two in range
    kPageSizeMismatch,  // file valid, but its page size differs from the
                        // one the caller's cache geometry requires
    kChecksumMismatch,  // payload bytes do not hash to the header's sum
  };

  PageFileError(Kind kind, const std::string& path, const std::string& what);

  Kind kind() const { return kind_; }
  const std::string& path() const { return path_; }

 private:
  Kind kind_;
  std::string path_;
};

/// FNV-1a 64-bit over `bytes[0..n)`; the payload checksum of the format.
/// Seeded with the standard offset basis; streamable (feed chunks by
/// passing the previous return as `seed`).
std::uint64_t Fnv1a64(const void* bytes, std::size_t n,
                      std::uint64_t seed = 14695981039346656037ull);

/// Writes a page file at `path` from points already in the desired
/// (Hilbert) order, de-interleaving each page into its x and y halves.
/// Throws `PageFileError{kIo}` on filesystem failure and
/// `std::invalid_argument` on a bad `page_size_bytes`.
void WritePageFile(const std::string& path, std::span<const Point> points,
                   std::uint32_t page_size_bytes);

/// Opens and fully validates `path`'s header: magic, version, page size
/// (range + power of two), and that the file actually holds the payload
/// bytes the header demands. Does NOT verify the payload checksum (that
/// is a full file read — `PageStore::Open` does it unless told to skip).
/// Throws `PageFileError` with the matching kind on any violation.
PageFileHeader ReadPageFileHeader(const std::string& path);

}  // namespace vaq

#endif  // VAQ_STORAGE_PAGE_FORMAT_H_
