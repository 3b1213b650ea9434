#ifndef VAQ_SERVER_FRAME_IO_H_
#define VAQ_SERVER_FRAME_IO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "server/protocol.h"

namespace vaq {

// Buffered framing for both ends of a `VQRY` connection (DESIGN.md §14).
// A request or response that arrives in one segment costs one `read`, and
// frames pipelined into one segment cost one `read` between them; the
// server answers each request with one `send`.

/// Default capacity of a `FrameReader`'s buffer: a 1% query's whole
/// response (a few hundred ids) fits, so the client reads it with one
/// `read`. The buffer grows only to hold one frame larger than this.
inline constexpr std::size_t kFrameBufferBytes = 16u << 10;
/// A receive or send buffer grown past this for one large message is
/// given back once that message is done, so a single 4 MiB request does
/// not pin 4 MiB for the life of the connection.
inline constexpr std::size_t kFrameBufferShrinkBytes = 64u << 10;

/// Reads frames from one socket through a per-connection buffer. Each
/// `read` takes whatever the socket holds, up to the buffer's free space,
/// and frames are decoded in place. The header is validated — magic,
/// version, flags, length bound and the opcode's direction — before the
/// buffer grows for the payload, so a hostile length field never drives an
/// allocation.
class FrameReader {
 public:
  /// Which direction's opcodes the reader accepts: a server reads
  /// requests, a client reads responses.
  enum class Accept { kRequests, kResponses };

  /// One frame, viewed in the reader's buffer: the views stay valid until
  /// the next `Next()` call.
  struct Frame {
    Opcode opcode = Opcode::kPing;
    std::span<const std::uint8_t> bytes;    // Header and payload.
    std::span<const std::uint8_t> payload;  // `bytes` past the header.
  };

  /// `fd` is not owned.
  FrameReader(int fd, Accept accept);

  /// The next frame. Calls `read` only while the buffer does not yet hold
  /// a whole one. Returns nullopt on EOF at a frame boundary; throws
  /// `ProtocolError` on a bad header and `std::runtime_error` on EOF
  /// inside a frame or a failed `read` (EINTR retries).
  std::optional<Frame> Next();

  /// The buffer's current capacity in bytes.
  std::size_t capacity() const { return capacity_; }

 private:
  /// Makes room for `frame_bytes` from `begin_` on: compacts the buffered
  /// bytes to the front, or grows the buffer to exactly the frame.
  void Reserve(std::size_t frame_bytes);
  /// Moves the buffered bytes into a fresh buffer of `capacity` bytes.
  void Reallocate(std::size_t capacity);
  /// One `read` into the free tail; false on EOF.
  bool Fill();

  int fd_;
  Accept accept_;
  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t capacity_ = 0;
  std::size_t begin_ = 0;     // First byte not yet returned as a frame.
  std::size_t end_ = 0;       // One past the last buffered byte.
  std::size_t returned_ = 0;  // Size of the frame `Next()` last returned.
};

/// Sends all of `bytes`, retrying short writes and EINTR. `MSG_NOSIGNAL`:
/// a peer that vanished surfaces as a `std::runtime_error` (EPIPE) on
/// this connection, never as a process-wide SIGPIPE.
void SendAll(int fd, std::span<const std::uint8_t> bytes);

/// Empties a reused send buffer for the next message, giving back a
/// capacity that grew past `kFrameBufferShrinkBytes`.
void ResetSendBuffer(std::vector<std::uint8_t>& out);

}  // namespace vaq

#endif  // VAQ_SERVER_FRAME_IO_H_
