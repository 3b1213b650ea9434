// vaq_pack — build, inspect, and verify the on-disk page files (".vpag")
// that back out-of-core storage (see src/storage/page_format.h).
//
//   vaq_pack pack <points.vaqp|points.csv> <out.vpag> [--page-size=4096]
//       Load a point dataset (binary VAQP or CSV), permute it into
//       Hilbert-curve order — the clustering PointDatabase applies, so
//       page locality equals spatial locality — and write a page file.
//   vaq_pack inspect <file.vpag>
//       Validate and print the header (no payload read).
//   vaq_pack verify <file.vpag>
//       Full validation including the payload checksum.
//
// Exit status (distinct per failure domain, so scripts can branch):
//   0  success
//   1  usage error
//   2  malformed page file (typed PageFileError: bad magic, truncation,
//      checksum mismatch, ... — the kind is named in the message)
//   3  page read failure (typed PageReadError: a page of a structurally
//      valid file could not be served — IO fault or quarantined page)
//   4  any other error (filesystem, bad dataset, ...)

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "delaunay/hilbert.h"
#include "storage/page_format.h"
#include "storage/page_store.h"
#include "workload/dataset_io.h"

namespace {

int Usage() {
  std::cerr << "usage: vaq_pack pack <points.vaqp|points.csv> <out.vpag>"
               " [--page-size=4096]\n"
               "       vaq_pack inspect <file.vpag>\n"
               "       vaq_pack verify <file.vpag>\n";
  return 1;
}

const char* KindName(vaq::PageFileError::Kind kind) {
  switch (kind) {
    case vaq::PageFileError::Kind::kIo: return "io";
    case vaq::PageFileError::Kind::kTruncated: return "truncated";
    case vaq::PageFileError::Kind::kBadMagic: return "bad-magic";
    case vaq::PageFileError::Kind::kBadVersion: return "bad-version";
    case vaq::PageFileError::Kind::kBadPageSize: return "bad-page-size";
    case vaq::PageFileError::Kind::kPageSizeMismatch:
      return "page-size-mismatch";
    case vaq::PageFileError::Kind::kChecksumMismatch:
      return "checksum-mismatch";
  }
  return "unknown";
}

bool LoadPoints(const std::string& path, std::vector<vaq::Point>* points) {
  // Try the exact binary format first, fall back to CSV; both loaders
  // reject malformed input and leave *points empty.
  return vaq::LoadPointsBinary(path, points) ||
         vaq::LoadPointsCsv(path, points);
}

int Pack(const std::string& in, const std::string& out,
         std::uint32_t page_size) {
  std::vector<vaq::Point> points;
  if (!LoadPoints(in, &points)) {
    std::cerr << "vaq_pack: cannot load points from " << in
              << " (not a VAQP binary or x,y CSV file)\n";
    return 4;
  }
  std::vector<vaq::Point> clustered;
  clustered.reserve(points.size());
  for (const vaq::PointId original : vaq::HilbertOrder(points)) {
    clustered.push_back(points[original]);
  }
  vaq::WritePageFile(out, clustered, page_size);
  const vaq::PageFileHeader header = vaq::ReadPageFileHeader(out);
  std::cout << "packed " << header.point_count << " points into "
            << header.NumPages() << " pages of " << header.page_size_bytes
            << " bytes (" << header.PointsPerPage() << " points/page) -> "
            << out << "\n";
  return 0;
}

int Inspect(const std::string& path) {
  const vaq::PageFileHeader header = vaq::ReadPageFileHeader(path);
  std::cout << "file:            " << path << "\n"
            << "format:          VPAG v" << vaq::kPageFileVersion << "\n"
            << "page_size_bytes: " << header.page_size_bytes << "\n"
            << "points_per_page: " << header.PointsPerPage() << "\n"
            << "point_count:     " << header.point_count << "\n"
            << "num_pages:       " << header.NumPages() << "\n"
            << "payload_bytes:   " << header.PayloadBytes() << "\n"
            << "checksum:        0x" << std::hex << header.payload_checksum
            << std::dec << "\n";
  return 0;
}

int Verify(const std::string& path) {
  vaq::PageStore::Options options;
  options.cache_pages = 1;  // Verification needs no cache to speak of.
  options.verify_checksum = true;
  std::unique_ptr<vaq::PageStore> store = vaq::PageStore::Open(path, options);
  std::cout << "ok: " << store->point_count() << " points, "
            << store->num_pages() << " pages, checksum verified\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "pack") {
      if (argc < 4) return Usage();
      std::uint32_t page_size = 4096;
      for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::string prefix = "--page-size=";
        if (arg.rfind(prefix, 0) == 0) {
          page_size =
              static_cast<std::uint32_t>(std::stoul(arg.substr(prefix.size())));
        } else {
          return Usage();
        }
      }
      return Pack(argv[2], argv[3], page_size);
    }
    if (cmd == "inspect") return Inspect(argv[2]);
    if (cmd == "verify") return Verify(argv[2]);
  } catch (const vaq::PageFileError& e) {
    std::cerr << "vaq_pack: " << KindName(e.kind()) << ": " << e.what()
              << "\n";
    return 2;
  } catch (const vaq::PageReadError& e) {
    std::cerr << "vaq_pack: page " << e.page() << " unreadable: " << e.what()
              << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "vaq_pack: " << e.what() << "\n";
    return 4;
  }
  return Usage();
}
