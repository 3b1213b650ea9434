// The on-disk page format (storage/page_format.h): write/read roundtrip
// exactness, and the hardened reader's malformed-file corpus — the file
// is untrusted input (another machine, another version, a bad disk), so
// every corruption class must be rejected with its typed PageFileError
// kind instead of being read into garbage coordinates or a crash.

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/page_format.h"
#include "storage/page_store.h"

namespace vaq {
namespace {

class PageFormatTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("vaq_page_format_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    paths_.push_back((dir / name).string());
    return paths_.back();
  }

  void TearDown() override {
    for (const std::string& p : paths_) std::filesystem::remove(p);
  }

  /// Writes a well-formed file of `count` distinct coordinates.
  std::string WriteValid(std::size_t count, std::uint32_t page_size = 512) {
    std::vector<Point> points(count);
    for (std::size_t i = 0; i < count; ++i) {
      points[i] = {0.25 * static_cast<double>(i) + 0.125,
                   -1.5 * static_cast<double>(i)};
    }
    const std::string path = TempPath("valid.vpag");
    WritePageFile(path, points, page_size);
    return path;
  }

  /// Loads the whole file, applies `mutate`, writes it back.
  void Corrupt(const std::string& path,
               const std::function<void(std::vector<char>&)>& mutate) {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    mutate(bytes);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  PageFileError::Kind OpenKind(const std::string& path,
                               std::uint32_t required_page_size = 0) {
    PageStore::Options options;
    options.required_page_size_bytes = required_page_size;
    try {
      PageStore::Open(path, options);
    } catch (const PageFileError& e) {
      return e.kind();
    }
    ADD_FAILURE() << "expected PageFileError for " << path;
    return PageFileError::Kind::kIo;
  }

 private:
  std::vector<std::string> paths_;
};

TEST_F(PageFormatTest, RoundtripIsExact) {
  const std::size_t count = 1000;  // 512 B pages -> 32 pts/page, 32 pages.
  const std::string path = WriteValid(count);

  const PageFileHeader header = ReadPageFileHeader(path);
  EXPECT_EQ(header.point_count, count);
  EXPECT_EQ(header.page_size_bytes, 512u);
  EXPECT_EQ(header.PointsPerPage(), 32u);
  EXPECT_EQ(header.NumPages(), 32u);  // ceil(1000/32) = 32, last padded.
  EXPECT_EQ(std::filesystem::file_size(path),
            kPageFileHeaderBytes + header.PayloadBytes());

  PageStore::Options options;
  options.cache_pages = 4;
  const auto store = PageStore::Open(path, options);
  // Every coordinate, gathered through the cache (including the padded
  // last page), must be the exact double that was written.
  std::vector<PointId> ids(count);
  std::vector<double> xs(count), ys(count);
  for (std::size_t i = 0; i < count; ++i) ids[i] = static_cast<PointId>(i);
  store->Gather(ids.data(), count, xs.data(), ys.data(), nullptr);
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(xs[i], 0.25 * static_cast<double>(i) + 0.125) << "i=" << i;
    ASSERT_EQ(ys[i], -1.5 * static_cast<double>(i)) << "i=" << i;
  }
}

TEST_F(PageFormatTest, ZeroPointFileRoundtrips) {
  const std::string path = WriteValid(0);
  const PageFileHeader header = ReadPageFileHeader(path);
  EXPECT_EQ(header.point_count, 0u);
  EXPECT_EQ(header.NumPages(), 0u);
  PageStore::Options options;
  EXPECT_EQ(PageStore::Open(path, options)->point_count(), 0u);
}

TEST_F(PageFormatTest, WriterRejectsBadPageSizes) {
  const std::vector<Point> one{{1.0, 1.0}};
  for (const std::uint32_t bad : {0u, 100u, 255u, 768u, (1u << 20) + 1}) {
    EXPECT_THROW(WritePageFile(TempPath("bad_size.vpag"), one, bad),
                 std::invalid_argument)
        << "page_size=" << bad;
  }
}

TEST_F(PageFormatTest, MissingFileIsIoError) {
  EXPECT_EQ(OpenKind(TempPath("does_not_exist.vpag")),
            PageFileError::Kind::kIo);
}

TEST_F(PageFormatTest, TruncatedHeaderRejected) {
  const std::string path = WriteValid(100);
  Corrupt(path, [](std::vector<char>& b) { b.resize(17); });
  EXPECT_EQ(OpenKind(path), PageFileError::Kind::kTruncated);
}

TEST_F(PageFormatTest, TruncatedPayloadRejected) {
  const std::string path = WriteValid(100);
  // Drop the last page's tail: the header's count now demands more
  // payload than the file holds.
  Corrupt(path, [](std::vector<char>& b) { b.resize(b.size() - 100); });
  EXPECT_EQ(OpenKind(path), PageFileError::Kind::kTruncated);
}

TEST_F(PageFormatTest, OverstatedCountRejectedWithoutOverflow) {
  const std::string path = WriteValid(100);
  // An adversarial count near 2^64: NumPages()-style arithmetic on it
  // would overflow, so the reader must bound the count against the
  // actual payload *in the count domain* and reject.
  Corrupt(path, [](std::vector<char>& b) {
    const std::uint64_t huge = ~std::uint64_t{0} - 7;
    std::memcpy(b.data() + 16, &huge, 8);
  });
  EXPECT_EQ(OpenKind(path), PageFileError::Kind::kTruncated);
}

TEST_F(PageFormatTest, BadMagicRejected) {
  const std::string path = WriteValid(100);
  Corrupt(path, [](std::vector<char>& b) { b[0] = 'X'; });
  EXPECT_EQ(OpenKind(path), PageFileError::Kind::kBadMagic);
}

TEST_F(PageFormatTest, FutureVersionRejected) {
  const std::string path = WriteValid(100);
  Corrupt(path, [](std::vector<char>& b) { b[4] = 99; });
  EXPECT_EQ(OpenKind(path), PageFileError::Kind::kBadVersion);
}

TEST_F(PageFormatTest, InvalidStoredPageSizeRejected) {
  const std::string path = WriteValid(100);
  for (const std::uint32_t bad : {0u, 3u, 513u, 2u << 20}) {
    Corrupt(path, [bad](std::vector<char>& b) {
      std::memcpy(b.data() + 8, &bad, 4);
    });
    EXPECT_EQ(OpenKind(path), PageFileError::Kind::kBadPageSize)
        << "stored page_size=" << bad;
  }
}

TEST_F(PageFormatTest, PageSizeMismatchRejected) {
  // The file is perfectly valid — it just doesn't match the page size the
  // caller's cache geometry was built for.
  const std::string path = WriteValid(100, /*page_size=*/512);
  EXPECT_EQ(OpenKind(path, /*required_page_size=*/4096),
            PageFileError::Kind::kPageSizeMismatch);
}

TEST_F(PageFormatTest, FlippedPayloadByteFailsChecksum) {
  const std::string path = WriteValid(100);
  Corrupt(path, [](std::vector<char>& b) {
    b[kPageFileHeaderBytes + 1000] ^= 0x01;  // One bit, mid-payload.
  });
  EXPECT_EQ(OpenKind(path), PageFileError::Kind::kChecksumMismatch);
  // Opting out of verification accepts the file (the caller's choice —
  // e.g. the spill path that wrote it microseconds earlier).
  PageStore::Options no_verify;
  no_verify.verify_checksum = false;
  EXPECT_NO_THROW(PageStore::Open(path, no_verify));
}

TEST_F(PageFormatTest, ErrorCarriesPathAndKind) {
  const std::string path = WriteValid(10);
  Corrupt(path, [](std::vector<char>& b) { b[0] = '?'; });
  try {
    ReadPageFileHeader(path);
    FAIL() << "expected PageFileError";
  } catch (const PageFileError& e) {
    EXPECT_EQ(e.kind(), PageFileError::Kind::kBadMagic);
    EXPECT_EQ(e.path(), path);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST_F(PageFormatTest, ChecksumIsStreamable) {
  // The writer accumulates the checksum page by page; feeding the same
  // bytes in arbitrary chunk sizes must give the same digest.
  std::vector<char> bytes(10000);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 37 + 11);
  }
  const std::uint64_t whole = Fnv1a64(bytes.data(), bytes.size());
  std::uint64_t chunked = Fnv1a64(bytes.data(), 0);
  for (std::size_t at = 0; at < bytes.size();) {
    const std::size_t n = std::min<std::size_t>(997, bytes.size() - at);
    chunked = Fnv1a64(bytes.data() + at, n, chunked);
    at += n;
  }
  EXPECT_EQ(whole, chunked);
}

}  // namespace
}  // namespace vaq
