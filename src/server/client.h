#ifndef VAQ_SERVER_CLIENT_H_
#define VAQ_SERVER_CLIENT_H_

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "geometry/point.h"
#include "server/protocol.h"

namespace vaq {

/// A typed `kError` response. The `code` is the contract — callers switch
/// on it (retry on `kRetryLater`, fix the polygon on `kBadWkt`, give up on
/// `kShuttingDown`); `detail` is diagnostic text only.
class ServerError : public std::runtime_error {
 public:
  ServerError(WireErrorCode code, const std::string& detail)
      : std::runtime_error(std::string(WireErrorCodeName(code)) + ": " +
                           detail),
        code_(code) {}

  WireErrorCode code() const { return code_; }

 private:
  WireErrorCode code_;
};

/// Blocking client for the `VQRY` protocol: one TCP connection, strict
/// request/response. Every method sends one request frame and reads
/// response frames until the terminal one; a `kError` response surfaces
/// as a typed `ServerError`, transport failures as `std::runtime_error`.
///
/// Not thread-safe — one connection is one conversation. Concurrency is
/// the *server's* job (open one client per thread, as the soak test and
/// `bench_server_qps` do).
class QueryClient {
 public:
  /// Result of one streamed query: the reassembled ids plus the terminal
  /// summary frame. The constructor of this value already cross-checked
  /// `stats.results` against the streamed frames.
  struct QueryOutcome {
    std::vector<PointId> ids;
    WireQueryStats stats;
  };

  /// Connects to the server on 127.0.0.1. Throws `std::system_error`.
  explicit QueryClient(std::uint16_t port);
  ~QueryClient();

  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  /// Runs one area query. `req.wkt` must be set; hints/deadline optional.
  QueryOutcome Query(const WireQueryRequest& req);
  /// Convenience: defaults (planner choice, cache on, no deadline).
  QueryOutcome Query(std::string_view wkt);

  /// Mutations. `Insert` returns the assigned stable id in `value` when
  /// `ok`; `ok == false` means the point was rejected (duplicate).
  WireMutationResult Insert(double x, double y);
  WireMutationResult Erase(PointId id);
  /// Drain + compact; returns after the rebuild is published.
  WireMutationResult Compact();

  WireServerStats Stats();

  /// Liveness probe; returns true iff the echoed payload matches.
  bool Ping();

  /// Sends raw bytes as-is and reads one response frame — the hostile-
  /// input path for protocol tests (malformed headers, bad payloads).
  /// Returns the full response frame (header + payload).
  std::vector<std::uint8_t> RoundTripRaw(std::span<const std::uint8_t> bytes);

 private:
  /// Reads one well-formed response frame; validates its header.
  struct Frame {
    Opcode opcode;
    std::vector<std::uint8_t> payload;
  };
  Frame ReadFrame();
  void SendFrame(Opcode opcode, std::span<const std::uint8_t> payload);
  /// Reads one response frame, throwing `ServerError` on `kError` and on
  /// an opcode other than `expected` (or `kResultIds`, for queries).
  Frame Expect(Opcode expected);

  int fd_ = -1;
};

}  // namespace vaq

#endif  // VAQ_SERVER_CLIENT_H_
