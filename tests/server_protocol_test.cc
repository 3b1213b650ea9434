#include "server/protocol.h"

#include <cstdint>
#include <optional>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace vaq {
namespace {

using PKind = ProtocolError::Kind;

PKind HeaderKind(std::span<const std::uint8_t> bytes) {
  try {
    DecodeFrameHeader(bytes);
  } catch (const ProtocolError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected ProtocolError from header decode";
  return PKind::kBadMagic;
}

std::vector<std::uint8_t> GoodHeader(Opcode op, std::uint32_t len) {
  std::vector<std::uint8_t> out;
  AppendFrame(out, op, {});
  out[8] = static_cast<std::uint8_t>(len & 0xFF);
  out[9] = static_cast<std::uint8_t>((len >> 8) & 0xFF);
  out[10] = static_cast<std::uint8_t>((len >> 16) & 0xFF);
  out[11] = static_cast<std::uint8_t>((len >> 24) & 0xFF);
  return out;
}

TEST(ProtocolHeaderTest, RoundTripsEveryOpcode) {
  for (const Opcode op :
       {Opcode::kQuery, Opcode::kInsert, Opcode::kErase, Opcode::kCompact,
        Opcode::kStats, Opcode::kPing, Opcode::kResultIds, Opcode::kQueryDone,
        Opcode::kMutated, Opcode::kStatsReply, Opcode::kPong,
        Opcode::kError}) {
    const std::vector<std::uint8_t> payload = {1, 2, 3};
    std::vector<std::uint8_t> frame;
    AppendFrame(frame, op, payload);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
    const FrameHeader h = DecodeFrameHeader(frame);
    EXPECT_EQ(h.opcode, op);
    EXPECT_EQ(h.payload_len, payload.size());
  }
}

TEST(ProtocolHeaderTest, RejectsShortBadMagicBadVersionBadFlags) {
  std::vector<std::uint8_t> frame = GoodHeader(Opcode::kPing, 0);
  for (std::size_t n = 0; n < kFrameHeaderBytes; ++n) {
    EXPECT_EQ(HeaderKind({frame.data(), n}), PKind::kTruncatedPayload)
        << "prefix length " << n;
  }
  auto bad = frame;
  bad[0] = 'X';
  EXPECT_EQ(HeaderKind(bad), PKind::kBadMagic);
  bad = frame;
  bad[4] = kProtocolVersion + 1;
  EXPECT_EQ(HeaderKind(bad), PKind::kBadVersion);
  bad = frame;
  bad[6] = 0x80;
  EXPECT_EQ(HeaderKind(bad), PKind::kBadFlags);
}

TEST(ProtocolHeaderTest, RejectsUnknownOpcodes) {
  std::vector<std::uint8_t> frame = GoodHeader(Opcode::kPing, 0);
  for (const std::uint8_t op : {0x00, 0x07, 0x42, 0x80, 0x87, 0xFF}) {
    auto bad = frame;
    bad[5] = op;
    EXPECT_EQ(HeaderKind(bad), PKind::kBadOpcode) << "opcode " << int{op};
  }
  EXPECT_FALSE(IsRequestOpcode(0x00));
  EXPECT_TRUE(IsRequestOpcode(0x01));
  EXPECT_TRUE(IsResponseOpcode(0x86));
  EXPECT_FALSE(IsResponseOpcode(0x87));
}

TEST(ProtocolHeaderTest, BoundsPayloadLengthBeforeAllocation) {
  // A header claiming a multi-gigabyte payload must be rejected from the
  // 12 fixed bytes alone — the caller never allocates for it.
  const auto huge =
      GoodHeader(Opcode::kQuery, static_cast<std::uint32_t>(0xFFFFFFFFu));
  EXPECT_EQ(HeaderKind(huge), PKind::kOversizedFrame);
  const auto just_over = GoodHeader(
      Opcode::kQuery, static_cast<std::uint32_t>(kMaxPayloadBytes + 1));
  EXPECT_EQ(HeaderKind(just_over), PKind::kOversizedFrame);
  const auto at_bound = GoodHeader(
      Opcode::kQuery, static_cast<std::uint32_t>(kMaxPayloadBytes));
  EXPECT_EQ(DecodeFrameHeader(at_bound).payload_len, kMaxPayloadBytes);
}

TEST(ProtocolPayloadTest, QueryRequestRoundTrips) {
  WireQueryRequest req;
  req.force_method = DynamicMethod::kBruteForce;
  req.use_cache = false;
  req.allow_scatter = true;
  req.deadline_ms = 125.5;
  req.wkt = "POLYGON ((0 0, 1 0, 1 1, 0 0))";
  const auto bytes = EncodeQueryRequest(req);
  const WireQueryRequest back = DecodeQueryRequest(bytes);
  ASSERT_TRUE(back.force_method.has_value());
  EXPECT_EQ(*back.force_method, DynamicMethod::kBruteForce);
  EXPECT_FALSE(back.use_cache);
  EXPECT_TRUE(back.allow_scatter);
  EXPECT_DOUBLE_EQ(back.deadline_ms, 125.5);
  EXPECT_EQ(back.wkt, req.wkt);

  WireQueryRequest planner;  // Defaults: auto method, cache+scatter on.
  planner.wkt = "POLYGON ((0 0, 2 0, 0 2, 0 0))";
  const WireQueryRequest back2 = DecodeQueryRequest(EncodeQueryRequest(planner));
  EXPECT_FALSE(back2.force_method.has_value());
  EXPECT_TRUE(back2.use_cache);
  EXPECT_TRUE(back2.allow_scatter);
  EXPECT_EQ(back2.deadline_ms, 0.0);
}

TEST(ProtocolPayloadTest, QueryRequestMethodBytesAreFixed) {
  // The force-method byte carries the `DynamicMethod` value itself, so a
  // client built against an older enum speaks the same bytes.
  const std::pair<std::optional<DynamicMethod>, std::uint8_t> golden[] = {
      {DynamicMethod::kVoronoi, 0x00},
      {DynamicMethod::kTraditional, 0x01},
      {DynamicMethod::kBruteForce, 0x03},
      {std::nullopt, 0xFF},
  };
  for (const auto& [method, byte] : golden) {
    WireQueryRequest req;
    req.force_method = method;
    req.use_cache = false;
    req.allow_scatter = false;
    req.wkt = "POLYGON ((0 0, 1 0, 1 1, 0 0))";
    const auto bytes = EncodeQueryRequest(req);
    const std::vector<std::uint8_t> head(bytes.begin(), bytes.begin() + 16);
    const std::vector<std::uint8_t> expected = {
        byte, 0x00, 0x00, 0x00, 0, 0, 0, 0, 0, 0, 0, 0,
        static_cast<std::uint8_t>(req.wkt.size()), 0x00, 0x00, 0x00};
    EXPECT_EQ(head, expected) << "method byte " << int{byte};
    EXPECT_EQ(DecodeQueryRequest(bytes).force_method, method);
  }
}

TEST(ProtocolPayloadTest, QueryRequestRejectsHostileFields) {
  const auto good = EncodeQueryRequest(
      {std::nullopt, true, true, 0.0, "POLYGON ((0 0, 1 0, 1 1, 0 0))"});

  auto bad = good;
  bad[0] = kNumDynamicMethods;  // One past the last method, not 0xFF.
  EXPECT_THROW(DecodeQueryRequest(bad), ProtocolError);

  bad = good;
  bad[0] = 2;  // The retired grid-sweep method.
  EXPECT_THROW(DecodeQueryRequest(bad), ProtocolError);

  bad = good;
  bad[1] = 0xF0;  // Unknown hint bits.
  EXPECT_THROW(DecodeQueryRequest(bad), ProtocolError);

  bad = good;
  bad[4] = 0xFF;  // deadline_ms -> denormal garbage is fine, but...
  // ...a NaN deadline must be rejected: flip to an all-ones exponent.
  for (int i = 4; i < 12; ++i) bad[i] = 0xFF;
  EXPECT_THROW(DecodeQueryRequest(bad), ProtocolError);

  bad = good;
  bad[12] += 1;  // wkt_len disagrees with the actual bytes.
  EXPECT_THROW(DecodeQueryRequest(bad), ProtocolError);

  // Truncation at every byte boundary: never crashes, always throws typed.
  for (std::size_t n = 0; n < good.size(); ++n) {
    EXPECT_THROW(DecodeQueryRequest({good.data(), n}), ProtocolError)
        << "prefix " << n;
  }
}

TEST(ProtocolPayloadTest, MutationRequestsRoundTrip) {
  double x = 0.0, y = 0.0;
  DecodeInsertRequest(EncodeInsertRequest(3.25, -7.5), &x, &y);
  EXPECT_EQ(x, 3.25);
  EXPECT_EQ(y, -7.5);
  EXPECT_EQ(DecodeEraseRequest(EncodeEraseRequest(PointId{123456})),
            PointId{123456});

  // An erase id wider than PointId is a malformed payload, not a wrap.
  std::vector<std::uint8_t> wide(8, 0xFF);
  EXPECT_THROW(DecodeEraseRequest(wide), ProtocolError);
}

TEST(ProtocolPayloadTest, ResultIdsRoundTripAndRejectCountMismatch) {
  std::vector<PointId> ids;
  for (PointId i = 0; i < 2000; ++i) ids.push_back(i * 7 + 1);
  const auto bytes = EncodeResultIdsPayload(ids);
  EXPECT_EQ(DecodeResultIdsPayload(bytes), ids);
  EXPECT_TRUE(DecodeResultIdsPayload(EncodeResultIdsPayload({})).empty());

  // A count claiming more ids than the frame carries must not reserve
  // for the claim; it is a typed length mismatch.
  auto bad = bytes;
  bad[0] = 0xFF;
  bad[1] = 0xFF;
  bad[2] = 0xFF;
  bad[3] = 0x7F;
  EXPECT_THROW(DecodeResultIdsPayload(bad), ProtocolError);
}

TEST(ProtocolPayloadTest, ResultIdsFrameMatchesGoldenBytes) {
  const std::vector<PointId> ids = {1, 0x01020304u, 0xFFFFFFFFu};
  std::vector<std::uint8_t> frame;
  AppendFrame(frame, Opcode::kResultIds, EncodeResultIdsPayload(ids));
  const std::vector<std::uint8_t> golden = {
      'V', 'Q', 'R', 'Y', 0x01, 0x81, 0x00, 0x00,  // magic, version, op
      0x20, 0x00, 0x00, 0x00,                      // payload length 32
      0x03, 0x00, 0x00, 0x00,                      // count
      0x00, 0x00, 0x00, 0x00,                      // reserved
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x03, 0x02, 0x01, 0x00, 0x00, 0x00, 0x00,
      0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(frame, golden);
  EXPECT_EQ(DecodeResultIdsPayload(
                std::span<const std::uint8_t>(frame).subspan(
                    kFrameHeaderBytes)),
            ids);
}

TEST(ProtocolPayloadTest, ResultIdsRoundTripAtChunkBoundaries) {
  std::mt19937_64 rng(5);
  for (const std::size_t n : {0u, 1u, 1024u, 1025u, 4096u}) {
    std::vector<PointId> ids(n);
    for (PointId& id : ids) id = static_cast<PointId>(rng());
    if (n > 0) ids.back() = 0xFFFFFFFFu;  // The widest legal id.
    const auto bytes = EncodeResultIdsPayload(ids);
    ASSERT_EQ(bytes.size(), 8 + 8 * n) << n;
    EXPECT_EQ(DecodeResultIdsPayload(bytes), ids) << n;
  }
}

TEST(ProtocolPayloadTest, ResultIdsRejectAHighWordAnywhere) {
  std::vector<PointId> ids(1025);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<PointId>(i);
  }
  const auto bytes = EncodeResultIdsPayload(ids);
  for (const std::size_t at : {0u, 512u, 1024u}) {
    for (const std::size_t byte : {4u, 7u}) {
      auto bad = bytes;
      bad[8 + 8 * at + byte] = 0x01;  // Sets a bit of the id's high word.
      try {
        DecodeResultIdsPayload(bad);
        ADD_FAILURE() << "accepted a high-word id at " << at;
      } catch (const ProtocolError& e) {
        EXPECT_EQ(e.kind(), PKind::kMalformedPayload) << at;
      }
    }
  }
}

TEST(ProtocolPayloadTest, ResultIdsDecodeIntoAppendsAndRollsBack) {
  std::vector<PointId> ids = {42};
  DecodeResultIdsInto(EncodeResultIdsPayload(std::vector<PointId>{1, 2, 3}),
                      ids);
  EXPECT_EQ(ids, (std::vector<PointId>{42, 1, 2, 3}));

  auto bad = EncodeResultIdsPayload(std::vector<PointId>{5, 6});
  bad[8 + 8 + 4] = 0x01;  // The second id's high word.
  EXPECT_THROW(DecodeResultIdsInto(bad, ids), ProtocolError);
  EXPECT_EQ(ids, (std::vector<PointId>{42, 1, 2, 3}))
      << "a rejected payload must leave the ids as they were";
}

TEST(ProtocolPayloadTest, InPlaceFramesMatchAppendFrame) {
  const std::vector<PointId> ids = {1, 0x01020304u, 0xFFFFFFFFu};
  WireQueryStats stats;
  stats.results = ids.size();
  stats.candidates = 9;
  stats.elapsed_ms = 0.25;

  std::vector<std::uint8_t> expected;
  AppendFrame(expected, Opcode::kResultIds, EncodeResultIdsPayload(ids));
  AppendFrame(expected, Opcode::kQueryDone, EncodeQueryStatsPayload(stats));

  std::vector<std::uint8_t> in_place;
  const std::size_t ids_at = BeginFrame(in_place, Opcode::kResultIds);
  AppendResultIdsPayload(in_place, ids);
  EndFrame(in_place, ids_at);
  const std::size_t done_at = BeginFrame(in_place, Opcode::kQueryDone);
  AppendQueryStatsPayload(in_place, stats);
  EndFrame(in_place, done_at);
  EXPECT_EQ(in_place, expected);
}

TEST(ProtocolPayloadTest, QueryRequestViewPointsIntoThePayload) {
  WireQueryRequest req;
  req.wkt = "POLYGON ((0 0, 1 0, 0 1, 0 0))";
  req.deadline_ms = 3.0;
  req.force_method = DynamicMethod::kVoronoi;
  const std::vector<std::uint8_t> payload = EncodeQueryRequest(req);
  const WireQueryRequestView view = DecodeQueryRequestView(payload);
  EXPECT_EQ(view.wkt, req.wkt);
  EXPECT_EQ(reinterpret_cast<const std::uint8_t*>(view.wkt.data()),
            payload.data() + 16)
      << "the view must not copy the WKT";
  EXPECT_EQ(view.force_method, req.force_method);
  EXPECT_EQ(view.deadline_ms, req.deadline_ms);
}

TEST(ProtocolPayloadTest, StatsAndErrorAndMutationPayloadsRoundTrip) {
  WireQueryStats qs;
  qs.results = 42;
  qs.candidates = 99;
  qs.plan_method = 0b0100;
  qs.plan_reason = 0b1010;
  qs.result_cache_hits = 1;
  qs.elapsed_ms = 1.75;
  std::vector<std::uint8_t> qs_bytes = EncodeQueryStatsPayload(qs);
  // Nine u64 counters and the elapsed double; a trailing word is
  // rejected.
  EXPECT_EQ(qs_bytes.size(), 10u * 8u);
  const WireQueryStats qs2 = DecodeQueryStatsPayload(qs_bytes);
  EXPECT_EQ(qs2.results, 42u);
  EXPECT_EQ(qs2.candidates, 99u);
  EXPECT_EQ(qs2.plan_method, 0b0100u);
  EXPECT_EQ(qs2.plan_reason, 0b1010u);
  EXPECT_EQ(qs2.result_cache_hits, 1u);
  EXPECT_DOUBLE_EQ(qs2.elapsed_ms, 1.75);
  qs_bytes.resize(qs_bytes.size() + 8);
  EXPECT_THROW(DecodeQueryStatsPayload(qs_bytes), ProtocolError);

  WireServerStats ss;
  ss.queries_completed = 7;
  ss.throughput_qps = 123.5;
  ss.latency_p99_ms = 9.25;
  ss.connections_active = 3;
  ss.queries_shed = 2;
  ss.compacts_completed = 1;
  ss.result_cache_hits = 5;
  ss.result_cache_misses = 13;
  ss.client_requests = 11;
  std::vector<std::uint8_t> ss_bytes = EncodeServerStatsPayload(ss);
  // Four doubles and fourteen u64 counters, in fixed slots; a trailing
  // word is rejected.
  EXPECT_EQ(ss_bytes.size(), 18u * 8u);
  const WireServerStats ss2 = DecodeServerStatsPayload(ss_bytes);
  EXPECT_EQ(ss2.queries_completed, 7u);
  EXPECT_DOUBLE_EQ(ss2.throughput_qps, 123.5);
  EXPECT_DOUBLE_EQ(ss2.latency_p99_ms, 9.25);
  EXPECT_EQ(ss2.connections_active, 3u);
  EXPECT_EQ(ss2.queries_shed, 2u);
  EXPECT_EQ(ss2.compacts_completed, 1u);
  EXPECT_EQ(ss2.result_cache_hits, 5u);
  EXPECT_EQ(ss2.result_cache_misses, 13u);
  EXPECT_EQ(ss2.client_requests, 11u);
  ss_bytes.resize(ss_bytes.size() + 8);
  EXPECT_THROW(DecodeServerStatsPayload(ss_bytes), ProtocolError);

  const WireError err{WireErrorCode::kRetryLater, "queue full (capacity 64)"};
  const WireError err2 = DecodeErrorPayload(EncodeErrorPayload(err));
  EXPECT_EQ(err2.code, WireErrorCode::kRetryLater);
  EXPECT_EQ(err2.detail, err.detail);
  EXPECT_EQ(WireErrorCodeName(err2.code), "retry-later");

  const WireMutationResult m{true, 0x1234567890ull};
  std::vector<std::uint8_t> m_bytes = EncodeMutationPayload(m);
  // The ok byte, 7 reserved bytes and the u64 value; a trailing word is
  // rejected.
  EXPECT_EQ(m_bytes.size(), 16u);
  const WireMutationResult m2 = DecodeMutationPayload(m_bytes);
  EXPECT_TRUE(m2.ok);
  EXPECT_EQ(m2.value, 0x1234567890ull);
  m_bytes.resize(m_bytes.size() + 8);
  EXPECT_THROW(DecodeMutationPayload(m_bytes), ProtocolError);
}

TEST(ProtocolFuzzTest, RandomBytesNeverCrashAnyDecoder) {
  // Fuzz-style sweep: random byte strings of varied lengths through every
  // decoder. The contract is "typed ProtocolError or a valid decode",
  // never a crash, hang, or huge allocation. Runs under the ASan leg of
  // CI, so an out-of-bounds read here fails loudly.
  std::mt19937 rng(20260807);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> len(0, 96);
  for (int iter = 0; iter < 5000; ++iter) {
    std::vector<std::uint8_t> bytes(len(rng));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(byte(rng));
    try {
      (void)DecodeFrameHeader(bytes);
    } catch (const ProtocolError&) {
    }
    try {
      (void)DecodeQueryRequest(bytes);
    } catch (const ProtocolError&) {
    }
    try {
      (void)DecodeResultIdsPayload(bytes);
    } catch (const ProtocolError&) {
    }
    try {
      (void)DecodeQueryStatsPayload(bytes);
    } catch (const ProtocolError&) {
    }
    try {
      (void)DecodeServerStatsPayload(bytes);
    } catch (const ProtocolError&) {
    }
    try {
      (void)DecodeErrorPayload(bytes);
    } catch (const ProtocolError&) {
    }
    try {
      (void)DecodeMutationPayload(bytes);
    } catch (const ProtocolError&) {
    }
    try {
      (void)DecodeEraseRequest(bytes);
    } catch (const ProtocolError&) {
    }
    try {
      double x, y;
      DecodeInsertRequest(bytes, &x, &y);
    } catch (const ProtocolError&) {
    }
  }
}

TEST(ProtocolFuzzTest, CorruptedValidFramesStayTyped) {
  // Start from a valid query frame and flip each byte through a few
  // values: decoders must stay in the typed-error-or-valid envelope.
  const auto payload = EncodeQueryRequest(
      {DynamicMethod::kVoronoi, true, false, 50.0,
       "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))"});
  std::vector<std::uint8_t> frame;
  AppendFrame(frame, Opcode::kQuery, payload);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (const std::uint8_t v : {0x00, 0x7F, 0xFF}) {
      auto mutated = frame;
      mutated[i] = v;
      try {
        const FrameHeader h = DecodeFrameHeader(mutated);
        if (h.opcode == Opcode::kQuery &&
            h.payload_len == mutated.size() - kFrameHeaderBytes) {
          (void)DecodeQueryRequest(
              {mutated.data() + kFrameHeaderBytes, h.payload_len});
        }
      } catch (const ProtocolError&) {
      }
    }
  }
}

}  // namespace
}  // namespace vaq
