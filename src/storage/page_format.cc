#include "storage/page_format.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace vaq {

namespace {

std::string Describe(const std::string& path, const std::string& what) {
  return "page file '" + path + "': " + what;
}

void PutU32(char* dst, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) dst[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void PutU64(char* dst, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) dst[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t GetU32(const char* src) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(src[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t GetU64(const char* src) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(src[i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

bool IsValidPageSize(std::uint32_t page_size) {
  return page_size >= kMinPageSizeBytes && page_size <= kMaxPageSizeBytes &&
         (page_size & (page_size - 1)) == 0;
}

PageFileError::PageFileError(Kind kind, const std::string& path,
                             const std::string& what)
    : std::runtime_error(Describe(path, what)), kind_(kind), path_(path) {}

std::uint64_t Fnv1a64(const void* bytes, std::size_t n, std::uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(bytes);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

void WritePageFile(const std::string& path, std::span<const Point> points,
                   std::uint32_t page_size_bytes) {
  if (!IsValidPageSize(page_size_bytes)) {
    std::ostringstream os;
    os << "WritePageFile: page size " << page_size_bytes
       << " must be a power of two in [" << kMinPageSizeBytes << ", "
       << kMaxPageSizeBytes << "]";
    throw std::invalid_argument(os.str());
  }
  PageFileHeader header;
  header.page_size_bytes = page_size_bytes;
  header.point_count = points.size();

  const std::size_t ppp = header.PointsPerPage();
  const std::size_t num_pages = header.NumPages();

  // Assemble pages through one reusable buffer: checksum and write per
  // page, so the writer streams at any count without a payload-sized
  // allocation.
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw PageFileError(PageFileError::Kind::kIo, path,
                        "cannot open for writing");
  }
  out.seekp(kPageFileHeaderBytes);  // Header written last (checksum).

  std::vector<char> page(page_size_bytes);
  std::uint64_t checksum = Fnv1a64(nullptr, 0);  // Offset basis.
  for (std::size_t p = 0; p < num_pages; ++p) {
    std::memset(page.data(), 0, page.size());
    const std::span<const Point> run =
        points.subspan(p * ppp, std::min(ppp, points.size() - p * ppp));
    char* const xs = page.data();
    char* const ys = page.data() + ppp * sizeof(double);
    for (std::size_t i = 0; i < run.size(); ++i) {
      std::memcpy(xs + i * sizeof(double), &run[i].x, sizeof(double));
      std::memcpy(ys + i * sizeof(double), &run[i].y, sizeof(double));
    }
    checksum = Fnv1a64(page.data(), page.size(), checksum);
    out.write(page.data(), static_cast<std::streamsize>(page.size()));
  }
  header.payload_checksum = checksum;

  char raw[kPageFileHeaderBytes] = {};
  std::memcpy(raw, kPageFileMagic, sizeof(kPageFileMagic));
  PutU32(raw + 4, kPageFileVersion);
  PutU32(raw + 8, header.page_size_bytes);
  PutU64(raw + 16, header.point_count);
  PutU64(raw + 24, header.payload_checksum);
  out.seekp(0);
  out.write(raw, sizeof(raw));
  out.flush();
  if (!out) {
    throw PageFileError(PageFileError::Kind::kIo, path, "write failed");
  }
}

PageFileHeader ReadPageFileHeader(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw PageFileError(PageFileError::Kind::kIo, path,
                        "cannot open for reading");
  }
  char raw[kPageFileHeaderBytes];
  in.read(raw, sizeof(raw));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(raw))) {
    std::ostringstream os;
    os << "truncated header: " << in.gcount() << " bytes, need "
       << sizeof(raw);
    throw PageFileError(PageFileError::Kind::kTruncated, path, os.str());
  }
  if (std::memcmp(raw, kPageFileMagic, sizeof(kPageFileMagic)) != 0) {
    throw PageFileError(PageFileError::Kind::kBadMagic, path,
                        "bad magic (not a VPAG page file)");
  }
  const std::uint32_t version = GetU32(raw + 4);
  if (version != kPageFileVersion) {
    std::ostringstream os;
    os << "unsupported format version " << version << " (reader supports "
       << kPageFileVersion << ")";
    throw PageFileError(PageFileError::Kind::kBadVersion, path, os.str());
  }
  PageFileHeader header;
  header.page_size_bytes = GetU32(raw + 8);
  header.point_count = GetU64(raw + 16);
  header.payload_checksum = GetU64(raw + 24);
  if (!IsValidPageSize(header.page_size_bytes)) {
    std::ostringstream os;
    os << "invalid page size " << header.page_size_bytes
       << " (power of two in [" << kMinPageSizeBytes << ", "
       << kMaxPageSizeBytes << "] required)";
    throw PageFileError(PageFileError::Kind::kBadPageSize, path, os.str());
  }
  // The header's count is untrusted: bound the payload it implies by the
  // bytes actually present before anyone sizes buffers off it (the same
  // discipline the binary point loader applies; see dataset_io.cc).
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  if (end == std::istream::pos_type(-1)) {
    throw PageFileError(PageFileError::Kind::kIo, path, "cannot stat size");
  }
  const std::uint64_t actual_payload =
      static_cast<std::uint64_t>(end) - kPageFileHeaderBytes;
  // NumPages() arithmetic can overflow for adversarial counts; compare in
  // the count domain instead: the payload holds floor(bytes / 16) points.
  const std::uint64_t max_points = actual_payload / 16;
  if (header.point_count > max_points) {
    std::ostringstream os;
    os << "truncated payload: header claims " << header.point_count
       << " points but the file holds at most " << max_points;
    throw PageFileError(PageFileError::Kind::kTruncated, path, os.str());
  }
  if (actual_payload < header.PayloadBytes()) {
    std::ostringstream os;
    os << "truncated payload: " << actual_payload << " bytes, need "
       << header.PayloadBytes() << " (" << header.NumPages() << " pages of "
       << header.page_size_bytes << ")";
    throw PageFileError(PageFileError::Kind::kTruncated, path, os.str());
  }
  return header;
}

}  // namespace vaq
