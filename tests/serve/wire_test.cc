#include "serve/wire.h"

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace after {
namespace serve {
namespace wire {
namespace {

FriendRequest SampleRequest() {
  FriendRequest request;
  request.room = 7;
  request.user = 123;
  request.deadline_ms = 41.5;
  return request;
}

FriendResponse SampleResponse() {
  FriendResponse response;
  response.status = OkStatus();
  response.recommended = {true, false, true, true, false, false, true,
                          false, true};  // 9 bits: crosses a byte boundary
  response.used_fallback = true;
  response.tick = 42;
  response.latency_ms = 3.25;
  return response;
}

/// Encodes, extracts, and decodes in one go; EXPECTs a clean path.
RequestFrame RoundTripRequest(uint64_t id, const FriendRequest& request) {
  std::string bytes;
  AppendRequestFrame(id, request, &bytes);
  Frame frame;
  size_t consumed = 0;
  EXPECT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.type, MessageType::kRequest);
  auto decoded = DecodeRequest(frame.payload);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? decoded.value() : RequestFrame{};
}

TEST(WireTest, RequestRoundTrips) {
  const FriendRequest request = SampleRequest();
  const RequestFrame decoded = RoundTripRequest(99, request);
  EXPECT_EQ(decoded.id, 99u);
  EXPECT_EQ(decoded.request.room, request.room);
  EXPECT_EQ(decoded.request.user, request.user);
  EXPECT_DOUBLE_EQ(decoded.request.deadline_ms, request.deadline_ms);
}

TEST(WireTest, NegativeFieldsRoundTrip) {
  FriendRequest request;
  request.room = -3;
  request.user = -1;
  request.deadline_ms = -1.0;  // "no deadline"
  const RequestFrame decoded = RoundTripRequest(0, request);
  EXPECT_EQ(decoded.request.room, -3);
  EXPECT_EQ(decoded.request.user, -1);
  EXPECT_DOUBLE_EQ(decoded.request.deadline_ms, -1.0);
}

TEST(WireTest, ResponseRoundTrips) {
  const FriendResponse response = SampleResponse();
  std::string bytes;
  AppendResponseFrame(1234567890123ull, response, &bytes);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  EXPECT_EQ(frame.type, MessageType::kResponse);
  auto decoded = DecodeResponse(frame.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().id, 1234567890123ull);
  const FriendResponse& out = decoded.value().response;
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.recommended, response.recommended);
  EXPECT_TRUE(out.used_fallback);
  EXPECT_EQ(out.tick, 42);
  EXPECT_DOUBLE_EQ(out.latency_ms, 3.25);
}

TEST(WireTest, ErrorResponseCarriesCodeAndMessage) {
  FriendResponse response;
  response.status = ResourceExhaustedError("queue full; load shed");
  std::string bytes;
  AppendResponseFrame(5, response, &bytes);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  auto decoded = DecodeResponse(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().response.status.code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.value().response.status.message(),
            "queue full; load shed");
  EXPECT_TRUE(decoded.value().response.recommended.empty());
}

TEST(WireTest, PingPongRoundTrip) {
  std::string bytes;
  AppendPingFrame(77, &bytes);
  AppendPongFrame(78, &bytes);  // two frames back to back
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  EXPECT_EQ(frame.type, MessageType::kPing);
  EXPECT_EQ(DecodePingPong(frame.payload).value(), 77u);
  bytes.erase(0, consumed);
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  EXPECT_EQ(frame.type, MessageType::kPong);
  EXPECT_EQ(DecodePingPong(frame.payload).value(), 78u);
  bytes.erase(0, consumed);
  EXPECT_TRUE(bytes.empty());
}

TEST(WireTest, RoomAssignRoundTripsWithStateBlob) {
  const std::string state("snapshot\0with\xFF" "binary", 20);
  std::string bytes;
  AppendRoomAssignFrame(31, 7, 12, /*primary=*/true, state, &bytes);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  EXPECT_EQ(frame.type, MessageType::kRoomAssign);
  auto decoded = DecodeRoomAssign(frame.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().id, 31u);
  EXPECT_EQ(decoded.value().room, 7);
  EXPECT_EQ(decoded.value().epoch, 12u);
  EXPECT_TRUE(decoded.value().primary);
  EXPECT_EQ(decoded.value().state, state);
}

TEST(WireTest, RoomAssignEmptyStateMeansFreshRoom) {
  std::string bytes;
  AppendRoomAssignFrame(1, 0, 1, /*primary=*/false, "", &bytes);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  auto decoded = DecodeRoomAssign(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded.value().primary);
  EXPECT_TRUE(decoded.value().state.empty());
}

TEST(WireTest, RoomReleaseAndNotOwnerRoundTrip) {
  std::string bytes;
  AppendRoomReleaseFrame(8, 3, 99, &bytes);
  AppendNotOwnerFrame(9, 4, 100, &bytes);  // back to back
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  EXPECT_EQ(frame.type, MessageType::kRoomRelease);
  auto release = DecodeRoomRelease(frame.payload);
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  EXPECT_EQ(release.value().id, 8u);
  EXPECT_EQ(release.value().room, 3);
  EXPECT_EQ(release.value().epoch, 99u);
  bytes.erase(0, consumed);
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  EXPECT_EQ(frame.type, MessageType::kNotOwner);
  auto not_owner = DecodeNotOwner(frame.payload);
  ASSERT_TRUE(not_owner.ok()) << not_owner.status().ToString();
  EXPECT_EQ(not_owner.value().id, 9u);
  EXPECT_EQ(not_owner.value().room, 4);
  EXPECT_EQ(not_owner.value().epoch, 100u);
}

TEST(WireTest, RoomRecoverQueryAndReportRoundTrip) {
  std::vector<RecoveredRoom> rooms;
  rooms.push_back({/*room=*/3, /*epoch=*/41, /*primary=*/true, /*tick=*/812});
  rooms.push_back({/*room=*/9, /*epoch=*/40, /*primary=*/false, /*tick=*/0});
  std::string bytes;
  AppendRoomRecoverQueryFrame(55, &bytes);
  AppendRoomRecoverReportFrame(55, rooms, &bytes);  // back to back
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  EXPECT_EQ(frame.type, MessageType::kRoomRecover);
  EXPECT_EQ(DecodeRoomRecoverQuery(frame.payload).value(), 55u);
  bytes.erase(0, consumed);
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  EXPECT_EQ(frame.type, MessageType::kRoomRecover);
  auto report = DecodeRoomRecoverReport(frame.payload);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().id, 55u);
  ASSERT_EQ(report.value().rooms.size(), 2u);
  EXPECT_EQ(report.value().rooms[0].room, 3);
  EXPECT_EQ(report.value().rooms[0].epoch, 41u);
  EXPECT_TRUE(report.value().rooms[0].primary);
  EXPECT_EQ(report.value().rooms[0].tick, 812);
  EXPECT_EQ(report.value().rooms[1].room, 9);
  EXPECT_FALSE(report.value().rooms[1].primary);
}

TEST(WireTest, EmptyRecoverReportIsValid) {
  // A shard with no durable dir (or an empty one) reports zero rooms;
  // the router treats that as "recovers nothing", not an error.
  std::string bytes;
  AppendRoomRecoverReportFrame(7, {}, &bytes);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  auto report = DecodeRoomRecoverReport(frame.payload);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().id, 7u);
  EXPECT_TRUE(report.value().rooms.empty());
}

TEST(WireTest, RecoverReportTruncationsFailDecodeAllOrNothing) {
  std::vector<RecoveredRoom> rooms;
  rooms.push_back({/*room=*/1, /*epoch=*/2, /*primary=*/true, /*tick=*/3});
  std::string bytes;
  AppendRoomRecoverReportFrame(4, rooms, &bytes);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  for (size_t cut = 0; cut < frame.payload.size(); ++cut) {
    EXPECT_FALSE(DecodeRoomRecoverReport(
                     std::string_view(frame.payload).substr(0, cut))
                     .ok())
        << "report cut=" << cut;
  }
}

TEST(WireTest, RecoverReportNonBooleanPrimaryIsRejected) {
  std::vector<RecoveredRoom> rooms;
  rooms.push_back({/*room=*/1, /*epoch=*/2, /*primary=*/true, /*tick=*/3});
  std::string bytes;
  AppendRoomRecoverReportFrame(4, rooms, &bytes);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  // Entry layout after the id(8) + count(4): room(4) epoch(8) primary(1).
  frame.payload[8 + 4 + 4 + 8] = 2;
  EXPECT_FALSE(DecodeRoomRecoverReport(frame.payload).ok());
}

TEST(WireTest, ControlPayloadTruncationsFailDecodeAllOrNothing) {
  // Same contract as the request/response payloads: any cut inside the
  // payload decodes to an error, never to a partial struct.
  std::string assign;
  AppendRoomAssignFrame(5, 2, 7, /*primary=*/true, "state-bytes", &assign);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(assign, &frame, &consumed).ok());
  for (size_t cut = 0; cut < frame.payload.size(); ++cut) {
    EXPECT_FALSE(
        DecodeRoomAssign(std::string_view(frame.payload).substr(0, cut)).ok())
        << "assign cut=" << cut;
  }
  std::string release;
  AppendRoomReleaseFrame(5, 2, 7, &release);
  ASSERT_TRUE(ExtractFrame(release, &frame, &consumed).ok());
  for (size_t cut = 0; cut < frame.payload.size(); ++cut) {
    EXPECT_FALSE(
        DecodeRoomRelease(std::string_view(frame.payload).substr(0, cut)).ok())
        << "release cut=" << cut;
  }
}

TEST(WireTest, EveryTruncationIsIncompleteNeverGarbage) {
  // A truncated frame must never decode and never error at the framing
  // layer: every proper prefix reports "incomplete" (OK, consumed 0).
  std::string bytes;
  AppendRequestFrame(3, SampleRequest(), &bytes);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Frame frame;
    size_t consumed = 1;
    const Status status =
        ExtractFrame(std::string_view(bytes).substr(0, cut), &frame,
                     &consumed);
    EXPECT_TRUE(status.ok()) << "cut=" << cut << ": " << status.ToString();
    EXPECT_EQ(consumed, 0u) << "cut=" << cut;
  }
}

TEST(WireTest, BadMagicIsRejected) {
  std::string bytes;
  AppendRequestFrame(3, SampleRequest(), &bytes);
  bytes[0] = 'X';
  Frame frame;
  size_t consumed = 0;
  const Status status = ExtractFrame(bytes, &frame, &consumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST(WireTest, WrongVersionIsRejected) {
  std::string bytes;
  AppendRequestFrame(3, SampleRequest(), &bytes);
  bytes[4] = static_cast<char>(kProtocolVersion + 1);
  Frame frame;
  size_t consumed = 0;
  const Status status = ExtractFrame(bytes, &frame, &consumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST(WireTest, UnknownTypeAndReservedBitsAreRejected) {
  std::string bytes;
  AppendRequestFrame(3, SampleRequest(), &bytes);
  std::string broken_type = bytes;
  broken_type[5] = 99;
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(ExtractFrame(broken_type, &frame, &consumed).code(),
            StatusCode::kInvalidArgument);
  std::string broken_reserved = bytes;
  broken_reserved[6] = 1;
  EXPECT_EQ(ExtractFrame(broken_reserved, &frame, &consumed).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, OversizedLengthPrefixIsRejectedBeforeAllocation) {
  // Header declaring a payload over the cap must fail immediately even
  // though the bytes "aren't there yet" — a hostile length prefix must
  // not park the connection in "incomplete" forever or allocate.
  std::string bytes;
  AppendPingFrame(1, &bytes);
  const uint32_t huge = kMaxPayloadBytes + 1;
  for (int i = 0; i < 4; ++i)
    bytes[8 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  Frame frame;
  size_t consumed = 0;
  const Status status = ExtractFrame(bytes, &frame, &consumed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("oversized"), std::string::npos);
}

TEST(WireTest, TruncatedPayloadsFailDecodeAllOrNothing) {
  std::string bytes;
  AppendRequestFrame(3, SampleRequest(), &bytes);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  for (size_t cut = 0; cut < frame.payload.size(); ++cut) {
    auto decoded = DecodeRequest(
        std::string_view(frame.payload).substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireTest, TrailingBytesFailDecode) {
  std::string bytes;
  AppendRequestFrame(3, SampleRequest(), &bytes);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  frame.payload.push_back('\0');
  EXPECT_EQ(DecodeRequest(frame.payload).status().code(),
            StatusCode::kInvalidArgument);

  // The control payloads too: a byte past a room-assign's state, a
  // recovery query's id, or a recovery report's last entry.
  const auto with_trailing_byte = [](const std::string& framed) {
    Frame control;
    size_t used = 0;
    EXPECT_TRUE(ExtractFrame(framed, &control, &used).ok());
    return control.payload + '\0';
  };
  std::string assign, query, report;
  AppendRoomAssignFrame(4, 2, 9, /*primary=*/true, "state", &assign);
  AppendRoomRecoverQueryFrame(5, &query);
  AppendRoomRecoverReportFrame(6, {RecoveredRoom{}}, &report);
  EXPECT_EQ(DecodeRoomAssign(with_trailing_byte(assign)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeRoomRecoverQuery(with_trailing_byte(query)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      DecodeRoomRecoverReport(with_trailing_byte(report)).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(WireTest, ResponseMessageLengthCannotExceedPayload) {
  FriendResponse response;
  response.status = NotFoundError("nope");
  std::string bytes;
  AppendResponseFrame(9, response, &bytes);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  // The message-length word sits at payload offset 24; inflate it.
  for (int i = 0; i < 4; ++i)
    frame.payload[24 + i] = static_cast<char>(0xff);
  auto decoded = DecodeResponse(frame.payload);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, UnknownStatusCodeByteIsRejected) {
  std::string bytes;
  AppendResponseFrame(9, SampleResponse(), &bytes);
  Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(ExtractFrame(bytes, &frame, &consumed).ok());
  frame.payload[8] = 120;  // code byte: way outside the enum
  auto decoded = DecodeResponse(frame.payload);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, ByteFlipFuzzNeverCrashesAndNeverOverreads) {
  // Seeded fuzz loop: flip one byte of a valid two-frame stream, then
  // run the full extract+decode pipeline. The contract under corruption
  // is no crash, no hang, and — when parsing still succeeds — fields
  // that respect the declared bounds.
  std::string pristine;
  AppendRequestFrame(21, SampleRequest(), &pristine);
  AppendResponseFrame(21, SampleResponse(), &pristine);
  Rng rng(2024);
  int parsed_ok = 0, rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string bytes = pristine;
    const int index = rng.UniformInt(static_cast<int>(bytes.size()));
    const int bit = rng.UniformInt(8);
    bytes[index] = static_cast<char>(bytes[index] ^ (1 << bit));
    std::string_view view = bytes;
    bool stream_ok = true;
    while (stream_ok && !view.empty()) {
      Frame frame;
      size_t consumed = 0;
      const Status status = ExtractFrame(view, &frame, &consumed);
      if (!status.ok()) {
        ++rejected;
        stream_ok = false;
        break;
      }
      if (consumed == 0) break;  // incomplete tail; a reader would wait
      view.remove_prefix(consumed);
      switch (frame.type) {
        case MessageType::kRequest: {
          auto decoded = DecodeRequest(frame.payload);
          if (decoded.ok()) ++parsed_ok; else ++rejected;
          break;
        }
        case MessageType::kResponse: {
          auto decoded = DecodeResponse(frame.payload);
          if (decoded.ok()) {
            ++parsed_ok;
            EXPECT_LE(decoded.value().response.recommended.size(),
                      kMaxRecommendedBits);
          } else {
            ++rejected;
          }
          break;
        }
        case MessageType::kPing:
        case MessageType::kPong: {
          auto decoded = DecodePingPong(frame.payload);
          if (decoded.ok()) ++parsed_ok; else ++rejected;
          break;
        }
        default:  // a flipped type byte landing on a control frame
          ++rejected;
          break;
      }
    }
  }
  // Most single-bit flips must be caught; payload-content flips (ids,
  // positions of bits) legitimately still parse.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(parsed_ok, 0);
}

}  // namespace
}  // namespace wire
}  // namespace serve
}  // namespace after
