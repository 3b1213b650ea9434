#include "server/frame_io.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace vaq {

FrameReader::FrameReader(int fd, Accept accept)
    : fd_(fd),
      accept_(accept),
      buf_(std::make_unique_for_overwrite<std::uint8_t[]>(kFrameBufferBytes)),
      capacity_(kFrameBufferBytes) {}

std::optional<FrameReader::Frame> FrameReader::Next() {
  begin_ += returned_;
  returned_ = 0;
  if (begin_ == end_) begin_ = end_ = 0;
  if (capacity_ > kFrameBufferShrinkBytes && end_ - begin_ <= kFrameBufferBytes)
    Reallocate(kFrameBufferBytes);

  Reserve(kFrameHeaderBytes);
  while (end_ - begin_ < kFrameHeaderBytes) {
    if (!Fill()) {
      if (begin_ == end_) return std::nullopt;  // Clean close between frames.
      throw std::runtime_error("connection closed mid-frame");
    }
  }
  const FrameHeader fh =
      DecodeFrameHeader({buf_.get() + begin_, kFrameHeaderBytes});
  const bool request = IsRequestOpcode(static_cast<std::uint8_t>(fh.opcode));
  if (request != (accept_ == Accept::kRequests)) {
    throw ProtocolError(ProtocolError::Kind::kBadOpcode,
                        request ? "request opcode in a response frame"
                                : "response opcode in a request frame");
  }

  // Header validated (length bounded): growing for the payload is safe.
  const std::size_t frame_bytes = kFrameHeaderBytes + fh.payload_len;
  Reserve(frame_bytes);
  while (end_ - begin_ < frame_bytes) {
    if (!Fill()) throw std::runtime_error("connection closed mid-frame");
  }
  returned_ = frame_bytes;
  const std::span<const std::uint8_t> bytes(buf_.get() + begin_, frame_bytes);
  return Frame{fh.opcode, bytes, bytes.subspan(kFrameHeaderBytes)};
}

void FrameReader::Reserve(std::size_t frame_bytes) {
  if (capacity_ - begin_ >= frame_bytes) return;
  if (capacity_ < frame_bytes) {
    Reallocate(frame_bytes);
    return;
  }
  std::memmove(buf_.get(), buf_.get() + begin_, end_ - begin_);
  end_ -= begin_;
  begin_ = 0;
}

void FrameReader::Reallocate(std::size_t capacity) {
  auto fresh = std::make_unique_for_overwrite<std::uint8_t[]>(capacity);
  std::memcpy(fresh.get(), buf_.get() + begin_, end_ - begin_);
  end_ -= begin_;
  begin_ = 0;
  buf_ = std::move(fresh);
  capacity_ = capacity;
}

bool FrameReader::Fill() {
  for (;;) {
    const ssize_t r = ::read(fd_, buf_.get() + end_, capacity_ - end_);
    if (r > 0) {
      end_ += static_cast<std::size_t>(r);
      return true;
    }
    if (r == 0) return false;
    if (errno == EINTR) continue;
    throw std::runtime_error(std::string("read failed: ") +
                             std::strerror(errno));
  }
}

void SendAll(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t w =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    throw std::runtime_error(std::string("write failed: ") +
                             std::strerror(errno));
  }
}

void ResetSendBuffer(std::vector<std::uint8_t>& out) {
  if (out.capacity() > kFrameBufferShrinkBytes) {
    out = std::vector<std::uint8_t>();  // Move-assigning frees the storage.
  } else {
    out.clear();
  }
}

}  // namespace vaq
