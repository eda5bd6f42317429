#include "serve/wire.h"

#include <sstream>

#include "serve/codec.h"

namespace after {
namespace serve {
namespace wire {
namespace {

void AppendHeader(MessageType type, uint32_t payload_len, std::string* out) {
  PutU32(kMagic, out);
  PutU8(kProtocolVersion, out);
  PutU8(static_cast<uint8_t>(type), out);
  PutU16(0, out);  // reserved
  PutU32(payload_len, out);
}

void AppendFramed(MessageType type, const std::string& payload,
                  std::string* out) {
  AppendHeader(type, static_cast<uint32_t>(payload.size()), out);
  out->append(payload);
}

Status Malformed(const char* what) {
  return InvalidArgumentError(std::string("wire: ") + what);
}

constexpr uint8_t kMaxStatusCode =
    static_cast<uint8_t>(StatusCode::kDataLoss);

/// Bytes per entry of a kRoomRecover report (room + epoch + primary +
/// tick); bounds the declared entry count against the payload size.
constexpr size_t kRecoveredRoomBytes = 4 + 8 + 1 + 4;

}  // namespace

void AppendRequestFrame(uint64_t id, const FriendRequest& request,
                        std::string* out) {
  std::string payload;
  payload.reserve(24);
  PutU64(id, &payload);
  PutI32(request.room, &payload);
  PutI32(request.user, &payload);
  PutF64(request.deadline_ms, &payload);
  AppendFramed(MessageType::kRequest, payload, out);
}

void AppendResponseFrame(uint64_t id, const FriendResponse& response,
                         std::string* out) {
  std::string payload;
  PutU64(id, &payload);
  PutU8(static_cast<uint8_t>(response.status.code()), &payload);
  PutU8(response.used_fallback ? 1 : 0, &payload);
  PutU16(0, &payload);  // reserved
  PutI32(response.tick, &payload);
  PutF64(response.latency_ms, &payload);
  const std::string& message = response.status.message();
  PutU32(static_cast<uint32_t>(message.size()), &payload);
  payload.append(message);
  const uint32_t bits = static_cast<uint32_t>(response.recommended.size());
  PutU32(bits, &payload);
  for (uint32_t byte = 0; byte * 8 < bits; ++byte) {
    uint8_t packed = 0;
    for (uint32_t bit = 0; bit < 8 && byte * 8 + bit < bits; ++bit)
      if (response.recommended[byte * 8 + bit]) packed |= (1u << bit);
    PutU8(packed, &payload);
  }
  AppendFramed(MessageType::kResponse, payload, out);
}

void AppendPingFrame(uint64_t id, std::string* out) {
  std::string payload;
  PutU64(id, &payload);
  AppendFramed(MessageType::kPing, payload, out);
}

void AppendPongFrame(uint64_t id, std::string* out) {
  std::string payload;
  PutU64(id, &payload);
  AppendFramed(MessageType::kPong, payload, out);
}

void AppendRoomAssignFrame(uint64_t id, int32_t room, uint64_t epoch,
                           bool primary, const std::string& state,
                           std::string* out) {
  std::string payload;
  payload.reserve(25 + state.size());
  PutU64(id, &payload);
  PutI32(room, &payload);
  PutU64(epoch, &payload);
  PutU8(primary ? 1 : 0, &payload);
  PutU32(static_cast<uint32_t>(state.size()), &payload);
  payload.append(state);
  AppendFramed(MessageType::kRoomAssign, payload, out);
}

void AppendRoomReleaseFrame(uint64_t id, int32_t room, uint64_t epoch,
                            std::string* out) {
  std::string payload;
  payload.reserve(20);
  PutU64(id, &payload);
  PutI32(room, &payload);
  PutU64(epoch, &payload);
  AppendFramed(MessageType::kRoomRelease, payload, out);
}

void AppendNotOwnerFrame(uint64_t id, int32_t room, uint64_t epoch,
                         std::string* out) {
  std::string payload;
  payload.reserve(20);
  PutU64(id, &payload);
  PutI32(room, &payload);
  PutU64(epoch, &payload);
  AppendFramed(MessageType::kNotOwner, payload, out);
}

bool PeekCorrelationId(std::string_view payload, uint64_t* id) {
  ByteReader reader(payload);
  const uint64_t v = reader.TakeU64();
  if (!reader.ok()) return false;
  *id = v;
  return true;
}

Status ExtractFrame(std::string_view buffer, Frame* frame, size_t* consumed) {
  *consumed = 0;
  if (buffer.size() < kHeaderBytes) return OkStatus();  // incomplete
  ByteReader reader(buffer);
  const uint32_t magic = reader.TakeU32();
  if (magic != kMagic) return Malformed("bad magic");
  const uint8_t version = reader.TakeU8();
  if (version != kProtocolVersion) {
    std::ostringstream oss;
    oss << "wire: unsupported protocol version "
        << static_cast<int>(version) << " (speaking "
        << static_cast<int>(kProtocolVersion) << ")";
    return InvalidArgumentError(oss.str());
  }
  const uint8_t type = reader.TakeU8();
  if (type < static_cast<uint8_t>(MessageType::kRequest) ||
      type > static_cast<uint8_t>(MessageType::kRoomRecover))
    return Malformed("unknown message type");
  if (reader.TakeU16() != 0) return Malformed("nonzero reserved field");
  const uint32_t payload_len = reader.TakeU32();
  if (payload_len > kMaxPayloadBytes) {
    std::ostringstream oss;
    oss << "wire: oversized payload (" << payload_len << " bytes > "
        << kMaxPayloadBytes << " max)";
    return InvalidArgumentError(oss.str());
  }
  if (buffer.size() < kHeaderBytes + payload_len)
    return OkStatus();  // incomplete
  frame->type = static_cast<MessageType>(type);
  frame->payload.assign(buffer.data() + kHeaderBytes, payload_len);
  *consumed = kHeaderBytes + payload_len;
  return OkStatus();
}

Result<RequestFrame> DecodeRequest(std::string_view payload) {
  ByteReader reader(payload);
  RequestFrame out;
  out.id = reader.TakeU64();
  out.request.room = reader.TakeI32();
  out.request.user = reader.TakeI32();
  out.request.deadline_ms = reader.TakeF64();
  if (!reader.ok()) return Malformed("truncated request payload");
  if (!reader.AtEnd()) return Malformed("trailing bytes after request");
  return out;
}

Result<ResponseFrame> DecodeResponse(std::string_view payload) {
  ByteReader reader(payload);
  ResponseFrame out;
  out.id = reader.TakeU64();
  const uint8_t code = reader.TakeU8();
  const uint8_t used_fallback = reader.TakeU8();
  if (reader.TakeU16() != 0 && reader.ok())
    return Malformed("nonzero reserved field in response");
  out.response.tick = reader.TakeI32();
  out.response.latency_ms = reader.TakeF64();
  const uint32_t message_len = reader.TakeU32();
  if (!reader.ok()) return Malformed("truncated response payload");
  if (message_len > reader.remaining())
    return Malformed("response message length exceeds payload");
  const std::string_view message = reader.TakeBytes(message_len);
  const uint32_t bits = reader.TakeU32();
  if (!reader.ok()) return Malformed("truncated response payload");
  if (bits > kMaxRecommendedBits)
    return Malformed("oversized recommendation bitmap");
  const size_t packed_bytes = (bits + 7) / 8;
  const std::string_view packed = reader.TakeBytes(packed_bytes);
  if (!reader.ok()) return Malformed("truncated recommendation bitmap");
  if (!reader.AtEnd()) return Malformed("trailing bytes after response");
  if (code > kMaxStatusCode) return Malformed("unknown status code");
  if (used_fallback > 1) return Malformed("non-boolean used_fallback");
  out.response.status =
      Status(static_cast<StatusCode>(code), std::string(message));
  out.response.used_fallback = used_fallback == 1;
  out.response.recommended.resize(bits);
  for (uint32_t bit = 0; bit < bits; ++bit)
    out.response.recommended[bit] =
        (static_cast<uint8_t>(packed[bit / 8]) >> (bit % 8)) & 1;
  return out;
}

Result<uint64_t> DecodePingPong(std::string_view payload) {
  ByteReader reader(payload);
  const uint64_t id = reader.TakeU64();
  if (!reader.ok()) return Malformed("truncated ping payload");
  if (!reader.AtEnd()) return Malformed("trailing bytes after ping");
  return id;
}

Result<RoomAssignFrame> DecodeRoomAssign(std::string_view payload) {
  ByteReader reader(payload);
  RoomAssignFrame out;
  out.id = reader.TakeU64();
  out.room = reader.TakeI32();
  out.epoch = reader.TakeU64();
  const uint8_t primary = reader.TakeU8();
  const uint32_t state_len = reader.TakeU32();
  if (!reader.ok()) return Malformed("truncated room-assign payload");
  if (primary > 1) return Malformed("non-boolean room-assign primary flag");
  if (state_len > reader.remaining())
    return Malformed("room-assign state length exceeds payload");
  out.primary = primary == 1;
  out.state.assign(reader.TakeBytes(state_len));
  if (!reader.ok() || !reader.AtEnd())
    return Malformed("trailing bytes after room-assign");
  return out;
}

Result<RoomReleaseFrame> DecodeRoomRelease(std::string_view payload) {
  ByteReader reader(payload);
  RoomReleaseFrame out;
  out.id = reader.TakeU64();
  out.room = reader.TakeI32();
  out.epoch = reader.TakeU64();
  if (!reader.ok()) return Malformed("truncated room-release payload");
  if (!reader.AtEnd()) return Malformed("trailing bytes after room-release");
  return out;
}

Result<NotOwnerFrame> DecodeNotOwner(std::string_view payload) {
  ByteReader reader(payload);
  NotOwnerFrame out;
  out.id = reader.TakeU64();
  out.room = reader.TakeI32();
  out.epoch = reader.TakeU64();
  if (!reader.ok()) return Malformed("truncated not-owner payload");
  if (!reader.AtEnd()) return Malformed("trailing bytes after not-owner");
  return out;
}

void AppendRoomRecoverQueryFrame(uint64_t id, std::string* out) {
  std::string payload;
  PutU64(id, &payload);
  AppendFramed(MessageType::kRoomRecover, payload, out);
}

void AppendRoomRecoverReportFrame(uint64_t id,
                                  const std::vector<RecoveredRoom>& rooms,
                                  std::string* out) {
  std::string payload;
  payload.reserve(12 + rooms.size() * kRecoveredRoomBytes);
  PutU64(id, &payload);
  PutU32(static_cast<uint32_t>(rooms.size()), &payload);
  for (const RecoveredRoom& room : rooms) {
    PutI32(room.room, &payload);
    PutU64(room.epoch, &payload);
    PutU8(room.primary ? 1 : 0, &payload);
    PutI32(room.tick, &payload);
  }
  AppendFramed(MessageType::kRoomRecover, payload, out);
}

Result<uint64_t> DecodeRoomRecoverQuery(std::string_view payload) {
  ByteReader reader(payload);
  const uint64_t id = reader.TakeU64();
  if (!reader.ok()) return Malformed("truncated room-recover query");
  if (!reader.AtEnd())
    return Malformed("trailing bytes after room-recover query");
  return id;
}

Result<RoomRecoverFrame> DecodeRoomRecoverReport(std::string_view payload) {
  ByteReader reader(payload);
  RoomRecoverFrame out;
  out.id = reader.TakeU64();
  const uint32_t count = reader.TakeU32();
  if (!reader.ok()) return Malformed("truncated room-recover report");
  if (count > reader.remaining() / kRecoveredRoomBytes)
    return Malformed("room-recover entry count exceeds payload");
  out.rooms.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    RecoveredRoom room;
    room.room = reader.TakeI32();
    room.epoch = reader.TakeU64();
    const uint8_t primary = reader.TakeU8();
    room.tick = reader.TakeI32();
    if (!reader.ok()) return Malformed("truncated room-recover entry");
    if (primary > 1)
      return Malformed("non-boolean room-recover primary flag");
    room.primary = primary == 1;
    out.rooms.push_back(room);
  }
  if (!reader.AtEnd())
    return Malformed("trailing bytes after room-recover report");
  return out;
}

}  // namespace wire
}  // namespace serve
}  // namespace after
