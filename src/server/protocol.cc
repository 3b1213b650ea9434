#include "server/protocol.h"

#include <bit>
#include <cstring>

namespace vaq {

namespace {

// --- Little-endian put/get helpers ------------------------------------------
// memcpy through a fixed-width integer, byte-swapped on big-endian hosts,
// so the wire format is identical regardless of host endianness.

template <typename T>
T ByteSwapIfBig(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out = static_cast<T>((out << 8) | ((v >> (8 * i)) & 0xFF));
    }
    return out;
  }
  return v;
}

template <typename T>
void PutInt(std::vector<std::uint8_t>& out, T v) {
  const T le = ByteSwapIfBig(v);
  const std::size_t at = out.size();
  out.resize(at + sizeof(T));
  std::memcpy(out.data() + at, &le, sizeof(T));
}

void PutDouble(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutInt<std::uint64_t>(out, bits);
}

/// Reader over a payload span; every Get throws kTruncatedPayload when
/// the span runs out, so decode functions never read past the frame.
struct PayloadReader {
  std::span<const std::uint8_t> in;
  std::size_t at = 0;

  std::size_t Remaining() const { return in.size() - at; }

  template <typename T>
  T GetInt(const char* field) {
    if (Remaining() < sizeof(T)) {
      throw ProtocolError(ProtocolError::Kind::kTruncatedPayload,
                          std::string("payload ends inside field '") + field +
                              "'");
    }
    T le;
    std::memcpy(&le, in.data() + at, sizeof(T));
    at += sizeof(T);
    return ByteSwapIfBig(le);
  }

  double GetDouble(const char* field) {
    const std::uint64_t bits = GetInt<std::uint64_t>(field);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string_view GetBytes(std::size_t n, const char* field) {
    if (Remaining() < n) {
      throw ProtocolError(ProtocolError::Kind::kTruncatedPayload,
                          std::string("payload ends inside field '") + field +
                              "'");
    }
    const std::string_view s(reinterpret_cast<const char*>(in.data() + at),
                             n);
    at += n;
    return s;
  }

  /// Decode functions call this last: leftover bytes mean the frame's
  /// declared length disagrees with the opcode's layout.
  void ExpectDone(const char* what) {
    if (at != in.size()) {
      throw ProtocolError(ProtocolError::Kind::kMalformedPayload,
                          std::string(what) + " payload has " +
                              std::to_string(in.size() - at) +
                              " trailing bytes");
    }
  }
};

}  // namespace

ProtocolError::ProtocolError(Kind kind, const std::string& what)
    : std::runtime_error("protocol error: " + what), kind_(kind) {}

bool IsRequestOpcode(std::uint8_t op) {
  return op >= static_cast<std::uint8_t>(Opcode::kQuery) &&
         op <= static_cast<std::uint8_t>(Opcode::kPing);
}

bool IsResponseOpcode(std::uint8_t op) {
  return op >= static_cast<std::uint8_t>(Opcode::kResultIds) &&
         op <= static_cast<std::uint8_t>(Opcode::kError);
}

std::string_view WireErrorCodeName(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kBadRequest:
      return "bad-request";
    case WireErrorCode::kBadWkt:
      return "bad-wkt";
    case WireErrorCode::kRetryLater:
      return "retry-later";
    case WireErrorCode::kDeadline:
      return "deadline";
    case WireErrorCode::kCancelled:
      return "cancelled";
    case WireErrorCode::kShuttingDown:
      return "shutting-down";
    case WireErrorCode::kInternal:
      break;
  }
  return "internal";
}

FrameHeader DecodeFrameHeader(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    throw ProtocolError(ProtocolError::Kind::kTruncatedPayload,
                        "frame header needs 12 bytes, got " +
                            std::to_string(bytes.size()));
  }
  if (std::memcmp(bytes.data(), kFrameMagic, sizeof(kFrameMagic)) != 0) {
    throw ProtocolError(ProtocolError::Kind::kBadMagic,
                        "frame does not start with the VQRY magic");
  }
  if (bytes[4] != kProtocolVersion) {
    throw ProtocolError(
        ProtocolError::Kind::kBadVersion,
        "unsupported protocol version " + std::to_string(bytes[4]));
  }
  const std::uint8_t op = bytes[5];
  if (!IsRequestOpcode(op) && !IsResponseOpcode(op)) {
    throw ProtocolError(ProtocolError::Kind::kBadOpcode,
                        "unknown opcode " + std::to_string(op));
  }
  if (bytes[6] != 0 || bytes[7] != 0) {
    throw ProtocolError(ProtocolError::Kind::kBadFlags,
                        "reserved flag bits are set");
  }
  std::uint32_t len;
  std::memcpy(&len, bytes.data() + 8, sizeof(len));
  len = ByteSwapIfBig(len);
  if (len > kMaxPayloadBytes) {
    throw ProtocolError(ProtocolError::Kind::kOversizedFrame,
                        "payload length " + std::to_string(len) +
                            " exceeds the " +
                            std::to_string(kMaxPayloadBytes) + "-byte bound");
  }
  return FrameHeader{static_cast<Opcode>(op), len};
}

void AppendFrame(std::vector<std::uint8_t>& out, Opcode opcode,
                 std::span<const std::uint8_t> payload) {
  out.reserve(out.size() + kFrameHeaderBytes + payload.size());
  const std::size_t frame_at = BeginFrame(out, opcode);
  out.insert(out.end(), payload.begin(), payload.end());
  EndFrame(out, frame_at);
}

std::size_t BeginFrame(std::vector<std::uint8_t>& out, Opcode opcode) {
  const std::size_t frame_at = out.size();
  out.insert(out.end(), kFrameMagic, kFrameMagic + sizeof(kFrameMagic));
  out.push_back(kProtocolVersion);
  out.push_back(static_cast<std::uint8_t>(opcode));
  out.push_back(0);  // flags
  out.push_back(0);
  PutInt<std::uint32_t>(out, 0);  // Length, written by EndFrame.
  return frame_at;
}

void EndFrame(std::vector<std::uint8_t>& out, std::size_t frame_at) {
  const std::uint32_t len = ByteSwapIfBig(
      static_cast<std::uint32_t>(out.size() - frame_at - kFrameHeaderBytes));
  std::memcpy(out.data() + frame_at + 8, &len, sizeof(len));
}

// --- Requests ----------------------------------------------------------------

std::vector<std::uint8_t> EncodeQueryRequest(const WireQueryRequest& req) {
  std::vector<std::uint8_t> out;
  out.push_back(req.force_method
                    ? static_cast<std::uint8_t>(*req.force_method)
                    : std::uint8_t{0xFF});
  std::uint8_t hints = 0;
  if (req.use_cache) hints |= 0x01;
  if (req.allow_scatter) hints |= 0x02;
  out.push_back(hints);
  PutInt<std::uint16_t>(out, 0);  // reserved
  PutDouble(out, req.deadline_ms);
  PutInt<std::uint32_t>(out, static_cast<std::uint32_t>(req.wkt.size()));
  out.insert(out.end(), req.wkt.begin(), req.wkt.end());
  return out;
}

WireQueryRequestView DecodeQueryRequestView(
    std::span<const std::uint8_t> payload) {
  PayloadReader r{payload};
  WireQueryRequestView req;
  const std::uint8_t method = r.GetInt<std::uint8_t>("method");
  if (method != 0xFF) {
    const auto forced = static_cast<DynamicMethod>(method);
    switch (forced) {
      case DynamicMethod::kVoronoi:
      case DynamicMethod::kTraditional:
      case DynamicMethod::kBruteForce:
        req.force_method = forced;
        break;
      default:  // Out of range, or the retired slot 2.
        throw ProtocolError(ProtocolError::Kind::kMalformedPayload,
                            "forced method " + std::to_string(method) +
                                " is not a DynamicMethod");
    }
  }
  const std::uint8_t hints = r.GetInt<std::uint8_t>("hints");
  if ((hints & ~0x03) != 0) {
    throw ProtocolError(ProtocolError::Kind::kMalformedPayload,
                        "unknown hint flag bits");
  }
  req.use_cache = (hints & 0x01) != 0;
  req.allow_scatter = (hints & 0x02) != 0;
  if (r.GetInt<std::uint16_t>("reserved") != 0) {
    throw ProtocolError(ProtocolError::Kind::kMalformedPayload,
                        "reserved query bytes are set");
  }
  req.deadline_ms = r.GetDouble("deadline_ms");
  // Reject a hostile deadline before it reaches CancelToken arithmetic.
  if (!(req.deadline_ms >= 0.0) || req.deadline_ms > 1e12) {
    throw ProtocolError(ProtocolError::Kind::kMalformedPayload,
                        "deadline_ms is negative, non-finite or absurd");
  }
  const std::uint32_t wkt_len = r.GetInt<std::uint32_t>("wkt_len");
  if (wkt_len != r.Remaining()) {
    throw ProtocolError(ProtocolError::Kind::kMalformedPayload,
                        "wkt_len disagrees with the frame length");
  }
  req.wkt = r.GetBytes(wkt_len, "wkt");
  r.ExpectDone("query");
  return req;
}

WireQueryRequest DecodeQueryRequest(std::span<const std::uint8_t> payload) {
  const WireQueryRequestView v = DecodeQueryRequestView(payload);
  return {v.force_method, v.use_cache, v.allow_scatter, v.deadline_ms,
          std::string(v.wkt)};
}

std::vector<std::uint8_t> EncodeInsertRequest(double x, double y) {
  std::vector<std::uint8_t> out;
  PutDouble(out, x);
  PutDouble(out, y);
  return out;
}

void DecodeInsertRequest(std::span<const std::uint8_t> payload, double* x,
                         double* y) {
  PayloadReader r{payload};
  *x = r.GetDouble("x");
  *y = r.GetDouble("y");
  r.ExpectDone("insert");
}

std::vector<std::uint8_t> EncodeEraseRequest(PointId id) {
  std::vector<std::uint8_t> out;
  PutInt<std::uint64_t>(out, id);
  return out;
}

PointId DecodeEraseRequest(std::span<const std::uint8_t> payload) {
  PayloadReader r{payload};
  const std::uint64_t id = r.GetInt<std::uint64_t>("id");
  r.ExpectDone("erase");
  if (id > 0xFFFFFFFFull) {
    throw ProtocolError(ProtocolError::Kind::kMalformedPayload,
                        "erase id exceeds the 32-bit PointId range");
  }
  return static_cast<PointId>(id);
}

// --- Responses ----------------------------------------------------------------

std::vector<std::uint8_t> EncodeResultIdsPayload(
    std::span<const PointId> ids) {
  std::vector<std::uint8_t> out;
  AppendResultIdsPayload(out, ids);
  return out;
}

void AppendResultIdsPayload(std::vector<std::uint8_t>& out,
                            std::span<const PointId> ids) {
  // One resize for the whole payload; the reserved word stays 0.
  const std::size_t at = out.size();
  out.resize(at + 8 + 8 * ids.size());
  const std::uint32_t count =
      ByteSwapIfBig(static_cast<std::uint32_t>(ids.size()));
  std::memcpy(out.data() + at, &count, sizeof(count));
  std::uint8_t* dst = out.data() + at + 8;
  for (const PointId id : ids) {
    const std::uint64_t le = ByteSwapIfBig(std::uint64_t{id});
    std::memcpy(dst, &le, sizeof(le));
    dst += sizeof(le);
  }
}

std::vector<PointId> DecodeResultIdsPayload(
    std::span<const std::uint8_t> payload) {
  std::vector<PointId> ids;
  DecodeResultIdsInto(payload, ids);
  return ids;
}

void DecodeResultIdsInto(std::span<const std::uint8_t> payload,
                         std::vector<PointId>& ids) {
  PayloadReader r{payload};
  const std::uint32_t count = r.GetInt<std::uint32_t>("count");
  if (r.GetInt<std::uint32_t>("reserved") != 0) {
    throw ProtocolError(ProtocolError::Kind::kMalformedPayload,
                        "reserved ids bytes are set");
  }
  // count is bounded by the frame itself: 8 bytes per id must fit in the
  // remaining payload, so a hostile count cannot oversize the allocation.
  if (r.Remaining() != std::size_t{count} * 8) {
    throw ProtocolError(ProtocolError::Kind::kMalformedPayload,
                        "id count disagrees with the frame length");
  }
  // The length check above covers every id, so the loop reads without
  // per-id bounds checks and ORs the high words together for one range
  // check at the end.
  const std::size_t at = ids.size();
  ids.resize(at + count);
  PointId* dst = ids.data() + at;
  const std::uint8_t* src = payload.data() + r.at;
  std::uint64_t high = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t le;
    std::memcpy(&le, src + std::size_t{i} * 8, sizeof(le));
    const std::uint64_t id = ByteSwapIfBig(le);
    high |= id >> 32;
    dst[i] = static_cast<PointId>(id);
  }
  if (high != 0) {
    ids.resize(at);
    throw ProtocolError(ProtocolError::Kind::kMalformedPayload,
                        "result id exceeds the 32-bit PointId range");
  }
}

WireQueryStats SummarizeQueryStats(const QueryStats& stats) {
  WireQueryStats s;
  s.results = stats.results;
  s.candidates = stats.candidates;
  s.geometry_loads = stats.geometry_loads;
  s.plan_method = stats.plan_method;
  s.plan_reason = stats.plan_reason;
  s.result_cache_hits = stats.result_cache_hits;
  s.result_cache_misses = stats.result_cache_misses;
  s.shards_hit = stats.shards_hit;
  s.shards_pruned = stats.shards_pruned;
  s.elapsed_ms = stats.elapsed_ms;
  return s;
}

std::vector<std::uint8_t> EncodeQueryStatsPayload(const WireQueryStats& s) {
  std::vector<std::uint8_t> out;
  AppendQueryStatsPayload(out, s);
  return out;
}

void AppendQueryStatsPayload(std::vector<std::uint8_t>& out,
                             const WireQueryStats& s) {
  PutInt<std::uint64_t>(out, s.results);
  PutInt<std::uint64_t>(out, s.candidates);
  PutInt<std::uint64_t>(out, s.geometry_loads);
  PutInt<std::uint64_t>(out, s.plan_method);
  PutInt<std::uint64_t>(out, s.plan_reason);
  PutInt<std::uint64_t>(out, s.result_cache_hits);
  PutInt<std::uint64_t>(out, s.result_cache_misses);
  PutInt<std::uint64_t>(out, s.shards_hit);
  PutInt<std::uint64_t>(out, s.shards_pruned);
  PutDouble(out, s.elapsed_ms);
}

WireQueryStats DecodeQueryStatsPayload(
    std::span<const std::uint8_t> payload) {
  PayloadReader r{payload};
  WireQueryStats s;
  s.results = r.GetInt<std::uint64_t>("results");
  s.candidates = r.GetInt<std::uint64_t>("candidates");
  s.geometry_loads = r.GetInt<std::uint64_t>("geometry_loads");
  s.plan_method = r.GetInt<std::uint64_t>("plan_method");
  s.plan_reason = r.GetInt<std::uint64_t>("plan_reason");
  s.result_cache_hits = r.GetInt<std::uint64_t>("result_cache_hits");
  s.result_cache_misses = r.GetInt<std::uint64_t>("result_cache_misses");
  s.shards_hit = r.GetInt<std::uint64_t>("shards_hit");
  s.shards_pruned = r.GetInt<std::uint64_t>("shards_pruned");
  s.elapsed_ms = r.GetDouble("elapsed_ms");
  r.ExpectDone("query-stats");
  return s;
}

std::vector<std::uint8_t> EncodeMutationPayload(const WireMutationResult& m) {
  std::vector<std::uint8_t> out;
  out.push_back(m.ok ? 1 : 0);
  for (int i = 0; i < 7; ++i) out.push_back(0);
  PutInt<std::uint64_t>(out, m.value);
  return out;
}

WireMutationResult DecodeMutationPayload(
    std::span<const std::uint8_t> payload) {
  PayloadReader r{payload};
  WireMutationResult m;
  const std::uint8_t ok = r.GetInt<std::uint8_t>("ok");
  if (ok > 1) {
    throw ProtocolError(ProtocolError::Kind::kMalformedPayload,
                        "mutation ok byte is not 0/1");
  }
  m.ok = ok == 1;
  r.GetBytes(7, "reserved");
  m.value = r.GetInt<std::uint64_t>("value");
  r.ExpectDone("mutation");
  return m;
}

std::vector<std::uint8_t> EncodeServerStatsPayload(const WireServerStats& s) {
  std::vector<std::uint8_t> out;
  PutInt<std::uint64_t>(out, s.queries_completed);
  PutDouble(out, s.throughput_qps);
  PutDouble(out, s.latency_p50_ms);
  PutDouble(out, s.latency_p95_ms);
  PutDouble(out, s.latency_p99_ms);
  PutInt<std::uint64_t>(out, s.connections_total);
  PutInt<std::uint64_t>(out, s.connections_active);
  PutInt<std::uint64_t>(out, s.requests_total);
  PutInt<std::uint64_t>(out, s.queries_ok);
  PutInt<std::uint64_t>(out, s.queries_shed);
  PutInt<std::uint64_t>(out, s.queries_rejected);
  PutInt<std::uint64_t>(out, s.queries_aborted);
  PutInt<std::uint64_t>(out, s.mutations_total);
  PutInt<std::uint64_t>(out, s.compacts_completed);
  PutInt<std::uint64_t>(out, s.result_cache_hits);
  PutInt<std::uint64_t>(out, s.result_cache_misses);
  PutInt<std::uint64_t>(out, s.client_requests);
  PutInt<std::uint64_t>(out, s.client_errors);
  return out;
}

WireServerStats DecodeServerStatsPayload(
    std::span<const std::uint8_t> payload) {
  PayloadReader r{payload};
  WireServerStats s;
  s.queries_completed = r.GetInt<std::uint64_t>("queries_completed");
  s.throughput_qps = r.GetDouble("throughput_qps");
  s.latency_p50_ms = r.GetDouble("latency_p50_ms");
  s.latency_p95_ms = r.GetDouble("latency_p95_ms");
  s.latency_p99_ms = r.GetDouble("latency_p99_ms");
  s.connections_total = r.GetInt<std::uint64_t>("connections_total");
  s.connections_active = r.GetInt<std::uint64_t>("connections_active");
  s.requests_total = r.GetInt<std::uint64_t>("requests_total");
  s.queries_ok = r.GetInt<std::uint64_t>("queries_ok");
  s.queries_shed = r.GetInt<std::uint64_t>("queries_shed");
  s.queries_rejected = r.GetInt<std::uint64_t>("queries_rejected");
  s.queries_aborted = r.GetInt<std::uint64_t>("queries_aborted");
  s.mutations_total = r.GetInt<std::uint64_t>("mutations_total");
  s.compacts_completed = r.GetInt<std::uint64_t>("compacts_completed");
  s.result_cache_hits = r.GetInt<std::uint64_t>("result_cache_hits");
  s.result_cache_misses = r.GetInt<std::uint64_t>("result_cache_misses");
  s.client_requests = r.GetInt<std::uint64_t>("client_requests");
  s.client_errors = r.GetInt<std::uint64_t>("client_errors");
  r.ExpectDone("server-stats");
  return s;
}

std::vector<std::uint8_t> EncodeErrorPayload(const WireError& e) {
  std::vector<std::uint8_t> out;
  out.reserve(8 + e.detail.size());
  out.push_back(static_cast<std::uint8_t>(e.code));
  for (int i = 0; i < 3; ++i) out.push_back(0);
  PutInt<std::uint32_t>(out, static_cast<std::uint32_t>(e.detail.size()));
  out.insert(out.end(), e.detail.begin(), e.detail.end());
  return out;
}

WireError DecodeErrorPayload(std::span<const std::uint8_t> payload) {
  PayloadReader r{payload};
  WireError e;
  const std::uint8_t code = r.GetInt<std::uint8_t>("code");
  if (code < static_cast<std::uint8_t>(WireErrorCode::kBadRequest) ||
      code > static_cast<std::uint8_t>(WireErrorCode::kInternal)) {
    throw ProtocolError(ProtocolError::Kind::kMalformedPayload,
                        "unknown error code " + std::to_string(code));
  }
  e.code = static_cast<WireErrorCode>(code);
  r.GetBytes(3, "reserved");
  const std::uint32_t detail_len = r.GetInt<std::uint32_t>("detail_len");
  if (detail_len != r.Remaining()) {
    throw ProtocolError(ProtocolError::Kind::kMalformedPayload,
                        "detail_len disagrees with the frame length");
  }
  e.detail = std::string(r.GetBytes(detail_len, "detail"));
  r.ExpectDone("error");
  return e;
}

}  // namespace vaq
