#include "server/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

namespace vaq {

namespace {

int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(), "connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

QueryClient::QueryClient(std::uint16_t port)
    : fd_(ConnectLoopback(port)),
      reader_(fd_, FrameReader::Accept::kResponses) {}

QueryClient::~QueryClient() {
  if (fd_ >= 0) ::close(fd_);
}

void QueryClient::SendFrame(Opcode opcode,
                            std::span<const std::uint8_t> payload) {
  ResetSendBuffer(out_);
  AppendFrame(out_, opcode, payload);
  SendAll(fd_, out_);
}

QueryClient::Frame QueryClient::ReadFrame() {
  // The client holds the server to the same framing discipline the
  // server holds clients to (throws ProtocolError on violations).
  const std::optional<Frame> frame = reader_.Next();
  if (!frame) throw std::runtime_error("server closed the connection");
  return *frame;
}

QueryClient::Frame QueryClient::Expect(Opcode expected) {
  const Frame frame = ReadFrame();
  if (frame.opcode == Opcode::kError) {
    const WireError e = DecodeErrorPayload(frame.payload);
    throw ServerError(e.code, e.detail);
  }
  if (frame.opcode != expected &&
      !(expected == Opcode::kQueryDone &&
        frame.opcode == Opcode::kResultIds)) {
    throw std::runtime_error("unexpected response opcode");
  }
  return frame;
}

QueryClient::QueryOutcome QueryClient::Query(const WireQueryRequest& req) {
  SendFrame(Opcode::kQuery, EncodeQueryRequest(req));
  QueryOutcome outcome;
  for (;;) {
    const Frame frame = Expect(Opcode::kQueryDone);
    if (frame.opcode == Opcode::kResultIds) {
      DecodeResultIdsInto(frame.payload, outcome.ids);
      continue;
    }
    outcome.stats = DecodeQueryStatsPayload(frame.payload);
    break;
  }
  if (outcome.stats.results != outcome.ids.size()) {
    throw std::runtime_error(
        "result count mismatch between id frames and the summary");
  }
  return outcome;
}

QueryClient::QueryOutcome QueryClient::Query(std::string_view wkt) {
  WireQueryRequest req;
  req.wkt = std::string(wkt);
  return Query(req);
}

WireMutationResult QueryClient::Insert(double x, double y) {
  SendFrame(Opcode::kInsert, EncodeInsertRequest(x, y));
  return DecodeMutationPayload(Expect(Opcode::kMutated).payload);
}

WireMutationResult QueryClient::Erase(PointId id) {
  SendFrame(Opcode::kErase, EncodeEraseRequest(id));
  return DecodeMutationPayload(Expect(Opcode::kMutated).payload);
}

WireMutationResult QueryClient::Compact() {
  SendFrame(Opcode::kCompact, {});
  return DecodeMutationPayload(Expect(Opcode::kMutated).payload);
}

WireServerStats QueryClient::Stats() {
  SendFrame(Opcode::kStats, {});
  return DecodeServerStatsPayload(Expect(Opcode::kStatsReply).payload);
}

bool QueryClient::Ping() {
  const std::uint8_t nonce[4] = {0xde, 0xad, 0xbe, 0xef};
  SendFrame(Opcode::kPing, nonce);
  const Frame frame = Expect(Opcode::kPong);
  return frame.payload.size() == sizeof(nonce) &&
         std::memcmp(frame.payload.data(), nonce, sizeof(nonce)) == 0;
}

std::vector<std::uint8_t> QueryClient::RoundTripRaw(
    std::span<const std::uint8_t> bytes) {
  SendAll(fd_, bytes);
  const Frame frame = ReadFrame();
  return {frame.bytes.begin(), frame.bytes.end()};
}

}  // namespace vaq
