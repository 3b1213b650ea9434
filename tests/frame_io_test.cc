// Unit tests of the buffered framing layer (`server/frame_io.h`) over a
// Unix socket pair: pipelined frames, byte-at-a-time delivery, EOF at and
// inside a frame, header validation before buffer growth, and the buffer
// shrink policy. The loopback versions against a live server are the
// `ServerFramingTest` cases in `server_loopback_test.cc`.

#include "server/frame_io.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace vaq {
namespace {

/// A connected stream socket pair; the reader end is `fds[0]`.
class SocketPair {
 public:
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0); }
  ~SocketPair() {
    CloseWriter();
    ::close(fds_[0]);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;

  int reader() const { return fds_[0]; }
  int writer() const { return fds_[1]; }
  void CloseWriter() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }

 private:
  int fds_[2] = {-1, -1};
};

std::vector<std::uint8_t> MakeFrame(Opcode opcode,
                                    std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  AppendFrame(frame, opcode, payload);
  return frame;
}

std::vector<std::uint8_t> Pattern(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return bytes;
}

std::vector<std::uint8_t> Concat(std::vector<std::uint8_t> a,
                                 std::span<const std::uint8_t> b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// The frame's payload as a vector (gtest prints vectors, not spans).
std::vector<std::uint8_t> PayloadOf(const FrameReader::Frame& frame) {
  return {frame.payload.begin(), frame.payload.end()};
}

/// `Next()` must fail as a transport error (EOF inside a frame), not as
/// a typed protocol error.
void ExpectMidFrameEof(FrameReader& reader) {
  try {
    reader.Next();
    ADD_FAILURE() << "EOF inside a frame must throw";
  } catch (const ProtocolError& e) {
    ADD_FAILURE() << "EOF inside a frame is not a protocol error: "
                  << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("mid-frame"), std::string::npos)
        << e.what();
  }
}

ProtocolError::Kind ProtocolErrorKindOf(FrameReader& reader) {
  try {
    reader.Next();
  } catch (const ProtocolError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a ProtocolError";
  return ProtocolError::Kind::kMalformedPayload;
}

TEST(FrameReaderTest, PipelinedFramesDecodeInOrderFromOneWrite) {
  SocketPair sp;
  WireQueryRequest query;
  query.wkt = "POLYGON ((0 0, 1 0, 0 1, 0 0))";
  const std::vector<std::uint8_t> nonce = {1, 2, 3, 4};
  SendAll(sp.writer(),
          Concat(MakeFrame(Opcode::kPing, nonce),
                 MakeFrame(Opcode::kQuery, EncodeQueryRequest(query))));
  sp.CloseWriter();

  FrameReader reader(sp.reader(), FrameReader::Accept::kRequests);
  std::optional<FrameReader::Frame> first = reader.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->opcode, Opcode::kPing);
  EXPECT_EQ(PayloadOf(*first), nonce);
  EXPECT_EQ(first->bytes.size(), kFrameHeaderBytes + nonce.size());

  std::optional<FrameReader::Frame> second = reader.Next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->opcode, Opcode::kQuery);
  EXPECT_EQ(DecodeQueryRequestView(second->payload).wkt, query.wkt);

  EXPECT_FALSE(reader.Next().has_value()) << "EOF at a frame boundary";
}

TEST(FrameReaderTest, OneBytePerWriteReassemblesTheFrame) {
  SocketPair sp;
  const std::vector<std::uint8_t> payload = Pattern(300);
  const std::vector<std::uint8_t> frame = MakeFrame(Opcode::kPing, payload);
  std::thread writer([&] {
    for (const std::uint8_t byte : frame) SendAll(sp.writer(), {&byte, 1});
  });
  FrameReader reader(sp.reader(), FrameReader::Accept::kRequests);
  const std::optional<FrameReader::Frame> got = reader.Next();
  writer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->opcode, Opcode::kPing);
  EXPECT_EQ(PayloadOf(*got), payload);
}

TEST(FrameReaderTest, EofBeforeAnyByteIsACleanClose) {
  SocketPair sp;
  sp.CloseWriter();
  FrameReader reader(sp.reader(), FrameReader::Accept::kResponses);
  EXPECT_FALSE(reader.Next().has_value());
}

TEST(FrameReaderTest, EofMidHeaderThrows) {
  SocketPair sp;
  const std::vector<std::uint8_t> frame = MakeFrame(Opcode::kPing, {});
  SendAll(sp.writer(), {frame.data(), 5});
  sp.CloseWriter();
  FrameReader reader(sp.reader(), FrameReader::Accept::kRequests);
  ExpectMidFrameEof(reader);
}

TEST(FrameReaderTest, EofMidPayloadThrows) {
  SocketPair sp;
  const std::vector<std::uint8_t> frame =
      MakeFrame(Opcode::kPing, Pattern(100));
  SendAll(sp.writer(), {frame.data(), kFrameHeaderBytes + 10});
  sp.CloseWriter();
  FrameReader reader(sp.reader(), FrameReader::Accept::kRequests);
  ExpectMidFrameEof(reader);
}

TEST(FrameReaderTest, BadMagicAfterAGoodFrameInOneWrite) {
  SocketPair sp;
  const std::uint8_t junk[16] = {'G', 'E', 'T', ' ', '/', ' ', 'H', 'T',
                                 'T', 'P', '/', '1', '.', '1', '\r', '\n'};
  SendAll(sp.writer(), Concat(MakeFrame(Opcode::kPing, {}), junk));
  FrameReader reader(sp.reader(), FrameReader::Accept::kRequests);
  const std::optional<FrameReader::Frame> good = reader.Next();
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->opcode, Opcode::kPing);
  EXPECT_EQ(ProtocolErrorKindOf(reader), ProtocolError::Kind::kBadMagic);
}

TEST(FrameReaderTest, OversizedLengthIsRefusedBeforeTheBufferGrows) {
  SocketPair sp;
  const std::uint8_t header[kFrameHeaderBytes] = {
      'V', 'Q', 'R', 'Y', kProtocolVersion,
      static_cast<std::uint8_t>(Opcode::kQuery), 0, 0, 0xFF, 0xFF, 0xFF,
      0xFF};
  SendAll(sp.writer(), header);
  FrameReader reader(sp.reader(), FrameReader::Accept::kRequests);
  EXPECT_EQ(ProtocolErrorKindOf(reader),
            ProtocolError::Kind::kOversizedFrame);
  EXPECT_EQ(reader.capacity(), kFrameBufferBytes);
}

TEST(FrameReaderTest, OpcodeOfTheWrongDirectionIsRefusedFromTheHeader) {
  // Each header declares a payload that never arrives: the reader must
  // refuse the opcode off the 12 header bytes instead of waiting for it.
  SocketPair to_server;
  const std::vector<std::uint8_t> error_frame =
      MakeFrame(Opcode::kError, Pattern(64));
  SendAll(to_server.writer(), {error_frame.data(), kFrameHeaderBytes});
  FrameReader server_side(to_server.reader(), FrameReader::Accept::kRequests);
  EXPECT_EQ(ProtocolErrorKindOf(server_side), ProtocolError::Kind::kBadOpcode);

  SocketPair to_client;
  const std::vector<std::uint8_t> query_frame =
      MakeFrame(Opcode::kQuery, Pattern(64));
  SendAll(to_client.writer(), {query_frame.data(), kFrameHeaderBytes});
  FrameReader client_side(to_client.reader(),
                          FrameReader::Accept::kResponses);
  EXPECT_EQ(ProtocolErrorKindOf(client_side), ProtocolError::Kind::kBadOpcode);
}

TEST(FrameReaderTest, BufferShrinksToTheDefaultAfterALargeFrame) {
  SocketPair sp;
  const std::vector<std::uint8_t> big = Pattern(1u << 20);
  const std::vector<std::uint8_t> small = {9, 8, 7};
  // The 1 MiB frame outgrows the socket buffer: write from a thread.
  std::thread writer([&] {
    SendAll(sp.writer(), Concat(MakeFrame(Opcode::kResultIds, big),
                                MakeFrame(Opcode::kPong, small)));
  });
  FrameReader reader(sp.reader(), FrameReader::Accept::kResponses);
  EXPECT_EQ(reader.capacity(), kFrameBufferBytes);
  const std::optional<FrameReader::Frame> first = reader.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(PayloadOf(*first), big);
  EXPECT_GE(reader.capacity(), kFrameHeaderBytes + big.size());

  const std::optional<FrameReader::Frame> second = reader.Next();
  writer.join();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->opcode, Opcode::kPong);
  EXPECT_EQ(PayloadOf(*second), small);
  EXPECT_EQ(reader.capacity(), kFrameBufferBytes)
      << "a buffer grown past the shrink bound must be given back";
}

TEST(FrameReaderTest, FramesLargerThanTheDefaultBufferSpanManyReads) {
  // Three frames, each bigger than the default buffer but under the
  // shrink bound: the buffer grows to one frame and keeps that size.
  SocketPair sp;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::uint8_t> stream;
  for (std::size_t n : {kFrameBufferBytes + 1, 2 * kFrameBufferBytes,
                        kFrameBufferBytes + 5}) {
    payloads.push_back(Pattern(n));
    stream = Concat(std::move(stream), MakeFrame(Opcode::kPong,
                                                 payloads.back()));
  }
  std::thread writer([&] { SendAll(sp.writer(), stream); });
  FrameReader reader(sp.reader(), FrameReader::Accept::kResponses);
  for (const std::vector<std::uint8_t>& payload : payloads) {
    const std::optional<FrameReader::Frame> got = reader.Next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(PayloadOf(*got), payload);
    EXPECT_LE(reader.capacity(), kFrameBufferShrinkBytes);
  }
  writer.join();
  sp.CloseWriter();
  EXPECT_FALSE(reader.Next().has_value());
}

TEST(FrameReaderTest, ResetSendBufferGivesBackOnlyALargeCapacity) {
  std::vector<std::uint8_t> out(100, 1);
  const std::size_t small_capacity = out.capacity();
  ResetSendBuffer(out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.capacity(), small_capacity) << "small buffers are reused";

  out.resize(kFrameBufferShrinkBytes + 1);
  ResetSendBuffer(out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.capacity(), 0u);
}

}  // namespace
}  // namespace vaq
