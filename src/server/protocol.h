#ifndef VAQ_SERVER_PROTOCOL_H_
#define VAQ_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/method.h"
#include "core/query_stats.h"
#include "geometry/point.h"

namespace vaq {

/// The wire format of the network query service (DESIGN.md §14): a
/// length-prefixed binary protocol of framed messages over one TCP
/// stream. Requests and responses share one frame shape; a connection is
/// strictly request/response (the client sends one request frame, the
/// server answers with one or more response frames, the last of which is
/// terminal for that request).
///
/// Frame layout (all fields little-endian):
///
///   offset  size  field
///   ------  ----  -------------------------------------------------
///        0     4  magic "VQRY"
///        4     1  protocol version (currently 1)
///        5     1  opcode (see `Opcode`)
///        6     2  reserved flags (written 0; readers reject nonzero —
///                 they are claimed for future use, and a client setting
///                 them is speaking a protocol this version is not)
///        8     4  payload length in bytes, <= kMaxPayloadBytes
///       12   ...  payload (opcode-specific, layouts below)
///
/// The reader validates the header *before* any payload allocation —
/// same hardening discipline as the `.vpag` reader: magic, version and
/// the payload bound are checked on the fixed 12 bytes, so a hostile
/// length field can never drive an allocation.
inline constexpr char kFrameMagic[4] = {'V', 'Q', 'R', 'Y'};
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// Upper bound of any payload: bigger than the largest legitimate frame
/// (a max-vertex WKT ring is ~3 MiB of text at max_digits10), small
/// enough that a hostile header cannot balloon server memory.
inline constexpr std::size_t kMaxPayloadBytes = 4u << 20;
/// Result ids per streamed response frame: fixed-size chunks so client
/// buffers are bounded and large results pipeline instead of queueing
/// one giant frame. 1024 ids = 8 KiB payloads.
inline constexpr std::size_t kIdsPerFrame = 1024;

/// Message kinds. Requests are < 0x80, responses have the top bit set.
enum class Opcode : std::uint8_t {
  // Requests.
  kQuery = 0x01,    // WKT polygon + hints -> id frames + a stats frame.
  kInsert = 0x02,   // One point -> kMutated (ok = false for a duplicate
                    // or out-of-range point; see `InCoordinateRange`).
  kErase = 0x03,    // One stable id -> kMutated.
  kCompact = 0x04,  // Drain in-flight queries, compact -> kMutated.
  kStats = 0x05,    // -> kStatsReply.
  kPing = 0x06,     // Liveness probe; payload echoed in kPong.
  // Responses.
  kResultIds = 0x81,   // One chunk of result ids (non-terminal).
  kQueryDone = 0x82,   // Terminal query summary (`WireQueryStats`).
  kMutated = 0x83,     // Terminal mutation ack (`WireMutationResult`).
  kStatsReply = 0x84,  // Terminal stats snapshot (`WireServerStats`).
  kPong = 0x85,        // Terminal ping echo.
  kError = 0x86,       // Terminal typed failure (`WireError`).
};

/// Whether `op` is a known request / response opcode of this version.
bool IsRequestOpcode(std::uint8_t op);
bool IsResponseOpcode(std::uint8_t op);

/// Typed error codes of `kError` responses — the wire projection of the
/// library's failure domains (DESIGN.md §12): the client switches on the
/// code, never on message text.
enum class WireErrorCode : std::uint8_t {
  kBadRequest = 1,   // Malformed payload, unknown opcode, nonzero flags.
  kBadWkt = 2,       // WKT rejected; detail names the `WktParseError`
                     // kind and byte offset.
  kRetryLater = 3,   // Admission control shed the query (engine queue
                     // full) — back off and retry; nothing was dropped
                     // silently, this response IS the backpressure.
  kDeadline = 4,     // The request's deadline expired (queued or running).
  kCancelled = 5,    // The query was cancelled (server shutdown drain).
  kShuttingDown = 6,  // Server is stopping; no new requests accepted.
  kInternal = 7,     // Unexpected server-side failure.
};

std::string_view WireErrorCodeName(WireErrorCode code);

/// Thrown by every decode function on malformed bytes. Carries a typed
/// kind so the server can distinguish "close the connection" (bad magic:
/// the peer is not speaking this protocol) from "answer kBadRequest and
/// continue" (bad payload on a well-formed frame).
class ProtocolError : public std::runtime_error {
 public:
  enum class Kind {
    kBadMagic,         // Frame does not start with "VQRY".
    kBadVersion,       // Future/unknown protocol version.
    kBadFlags,         // Reserved flag bits set.
    kOversizedFrame,   // Header's payload length > kMaxPayloadBytes.
    kBadOpcode,        // Opcode unknown to this version.
    kTruncatedPayload, // Payload shorter than its opcode's layout needs.
    kMalformedPayload, // Payload lengths inconsistent with the frame.
  };

  ProtocolError(Kind kind, const std::string& what);
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// Decoded frame header (magic already verified and stripped).
struct FrameHeader {
  Opcode opcode = Opcode::kPing;
  std::uint32_t payload_len = 0;
};

/// Validates and decodes the fixed 12 header bytes. Throws
/// `ProtocolError` {kBadMagic, kBadVersion, kBadFlags, kOversizedFrame,
/// kBadOpcode}; never reads past `kFrameHeaderBytes`.
FrameHeader DecodeFrameHeader(std::span<const std::uint8_t> bytes);

/// Appends a full frame (header + payload) to `out`.
void AppendFrame(std::vector<std::uint8_t>& out, Opcode opcode,
                 std::span<const std::uint8_t> payload);

/// Encodes a frame in place: `BeginFrame` appends a header and returns
/// its offset, the caller appends the payload, and `EndFrame` writes the
/// payload length into that header.
std::size_t BeginFrame(std::vector<std::uint8_t>& out, Opcode opcode);
void EndFrame(std::vector<std::uint8_t>& out, std::size_t frame_at);

// --- Request payloads -----------------------------------------------------

/// `kQuery` payload:
///   offset  size  field
///        0     1  forced method: DynamicMethod value (0, 1 or 3; 2 is
///                 retired and rejected), or 0xFF = planner
///        1     1  hint flags: bit0 use_cache, bit1 allow_scatter
///        2     2  reserved (0)
///        4     8  deadline_ms as IEEE-754 double (0 = none)
///       12     4  WKT byte length L (must equal payload_len - 16)
///       16     L  WKT text (not NUL-terminated)
template <typename Text>
struct BasicWireQueryRequest {
  std::optional<DynamicMethod> force_method;
  bool use_cache = true;
  bool allow_scatter = true;
  double deadline_ms = 0.0;
  Text wkt;
};
using WireQueryRequest = BasicWireQueryRequest<std::string>;
/// A decoded request whose `wkt` views the payload bytes: valid only as
/// long as they are. The server parses the WKT straight from its buffer.
using WireQueryRequestView = BasicWireQueryRequest<std::string_view>;

std::vector<std::uint8_t> EncodeQueryRequest(const WireQueryRequest& req);
WireQueryRequestView DecodeQueryRequestView(
    std::span<const std::uint8_t> payload);
WireQueryRequest DecodeQueryRequest(std::span<const std::uint8_t> payload);

/// `kInsert` payload: two doubles (x, y). `kErase` payload: one u64 id.
std::vector<std::uint8_t> EncodeInsertRequest(double x, double y);
void DecodeInsertRequest(std::span<const std::uint8_t> payload, double* x,
                         double* y);
std::vector<std::uint8_t> EncodeEraseRequest(PointId id);
PointId DecodeEraseRequest(std::span<const std::uint8_t> payload);

// --- Response payloads ------------------------------------------------------

/// `kResultIds` payload: u32 count, u32 reserved, then count u64 ids.
/// Ids are u64 on the wire (u32 in-process today) so the format survives
/// a wider id type without a version bump.
std::vector<std::uint8_t> EncodeResultIdsPayload(
    std::span<const PointId> ids);
void AppendResultIdsPayload(std::vector<std::uint8_t>& out,
                            std::span<const PointId> ids);
std::vector<PointId> DecodeResultIdsPayload(
    std::span<const std::uint8_t> payload);
/// Appends the payload's ids to `ids`; on a throw `ids` is unchanged.
void DecodeResultIdsInto(std::span<const std::uint8_t> payload,
                         std::vector<PointId>& ids);

/// `kQueryDone` summary: the per-query cost counters a client can act on
/// (result count is the authoritative total — the client cross-checks it
/// against the streamed id frames).
struct WireQueryStats {
  std::uint64_t results = 0;
  std::uint64_t candidates = 0;
  std::uint64_t geometry_loads = 0;
  std::uint64_t plan_method = 0;
  std::uint64_t plan_reason = 0;
  std::uint64_t result_cache_hits = 0;
  std::uint64_t result_cache_misses = 0;
  std::uint64_t shards_hit = 0;
  std::uint64_t shards_pruned = 0;
  double elapsed_ms = 0.0;
};

WireQueryStats SummarizeQueryStats(const QueryStats& stats);
std::vector<std::uint8_t> EncodeQueryStatsPayload(const WireQueryStats& s);
void AppendQueryStatsPayload(std::vector<std::uint8_t>& out,
                             const WireQueryStats& s);
WireQueryStats DecodeQueryStatsPayload(std::span<const std::uint8_t> payload);

/// `kMutated` payload: u8 ok, 7 reserved bytes, u64 value (assigned id
/// for inserts; 0 otherwise). An INSERT answers ok = 0 when the point
/// equals a live one or has a coordinate outside the database's range
/// (0, or a magnitude in [2^-100, 2^100]).
struct WireMutationResult {
  bool ok = false;
  std::uint64_t value = 0;
};

std::vector<std::uint8_t> EncodeMutationPayload(const WireMutationResult& m);
WireMutationResult DecodeMutationPayload(
    std::span<const std::uint8_t> payload);

/// `kStatsReply`: engine percentiles + server counters + the requesting
/// connection's own counters (the per-client slice).
struct WireServerStats {
  // Engine window (see `EngineStats`).
  std::uint64_t queries_completed = 0;
  double throughput_qps = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  // Server-wide counters since start.
  std::uint64_t connections_total = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t requests_total = 0;
  std::uint64_t queries_ok = 0;
  std::uint64_t queries_shed = 0;      // kRetryLater responses.
  std::uint64_t queries_rejected = 0;  // kBadWkt / kBadRequest responses.
  std::uint64_t queries_aborted = 0;   // kDeadline / kCancelled responses.
  std::uint64_t mutations_total = 0;
  std::uint64_t compacts_completed = 0;  // Completed COMPACT requests.
  // The planned query's result-cache lookups since start (one per query
  // leg; the server's database is unsharded, so one per cached query).
  std::uint64_t result_cache_hits = 0;
  std::uint64_t result_cache_misses = 0;
  // The requesting connection's slice.
  std::uint64_t client_requests = 0;
  std::uint64_t client_errors = 0;
};

std::vector<std::uint8_t> EncodeServerStatsPayload(const WireServerStats& s);
WireServerStats DecodeServerStatsPayload(
    std::span<const std::uint8_t> payload);

/// `kError` payload: u8 code, 3 reserved bytes, u32 detail length, then
/// the UTF-8 detail text (diagnostic only — clients switch on the code).
struct WireError {
  WireErrorCode code = WireErrorCode::kInternal;
  std::string detail;
};

std::vector<std::uint8_t> EncodeErrorPayload(const WireError& e);
WireError DecodeErrorPayload(std::span<const std::uint8_t> payload);

}  // namespace vaq

#endif  // VAQ_SERVER_PROTOCOL_H_
