#ifndef AFTER_SERVE_WIRE_H_
#define AFTER_SERVE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "serve/server_types.h"

namespace after {
namespace serve {
namespace wire {

/// Compact length-prefixed binary wire protocol in front of the serving
/// runtime (docs/serving.md has the byte-level spec). Every message is
/// one frame:
///
///   offset  size  field
///   0       4     magic      0x41465731 ("AFW1"), little-endian
///   4       1     version    kProtocolVersion
///   5       1     type       MessageType
///   6       2     reserved   must be zero
///   8       4     payload length in bytes (<= kMaxPayloadBytes)
///   12      N     payload    (per-type encoding below)
///
/// All multi-byte integers are little-endian with explicit byte
/// (de)serialization (serve/codec.h), so frames are byte-identical
/// across platforms.
/// Parsing is all-or-nothing in the style of nn/artifact: a decoder
/// either returns a fully validated message or kInvalidArgument with a
/// diagnostic, and never reads past the declared payload. Truncated
/// buffers are not an error at the framing layer — ExtractFrame reports
/// "no complete frame yet" so stream readers can keep accumulating.
inline constexpr uint32_t kMagic = 0x41465731u;  // "1WFA" on the wire
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kHeaderBytes = 12;
/// Upper bound on a frame payload; anything larger is a malformed or
/// hostile frame and fails fast instead of allocating unboundedly.
inline constexpr uint32_t kMaxPayloadBytes = 1u << 20;
/// Upper bound on users per room carried in a response bitmap.
inline constexpr uint32_t kMaxRecommendedBits = 1u << 20;

enum class MessageType : uint8_t {
  kRequest = 1,      // client -> server: one FriendRequest
  kResponse = 2,     // server -> client: the matching FriendResponse
  kPing = 3,         // health probe (router -> shard)
  kPong = 4,         // health probe answer
  // Room-ownership control plane (partitioned serving, docs/serving.md).
  kRoomAssign = 5,   // router -> shard: own this room (state optional);
                     // also shard -> router: the reply to kRoomRelease,
                     // carrying the room's final migration state
  kRoomRelease = 6,  // router -> shard: stop owning this room
  kNotOwner = 7,     // shard -> client: reply to a kRequest for a room
                     // this shard does not own; re-route and retry
  kRoomRecover = 8,  // router -> shard: report the rooms you recovered
                     // from durable state; also shard -> router: the
                     // report (room/epoch/primary/tick per entry)
};

/// One decoded frame: the type byte plus the raw payload bytes.
struct Frame {
  MessageType type = MessageType::kRequest;
  std::string payload;
};

/// A FriendRequest tagged with the caller's correlation id; responses
/// echo the id so a connection can have many requests in flight.
struct RequestFrame {
  uint64_t id = 0;
  FriendRequest request;
};

struct ResponseFrame {
  uint64_t id = 0;
  FriendResponse response;
};

/// Room-ownership grant. `state` is empty for a fresh assignment (the
/// shard builds the room from its own dataset/seed) and non-empty for a
/// migration handoff: the room's tick frame in its one encoding
/// (serve/codec.h), bytes the router forwards without decoding and the
/// receiving shard applies all-or-nothing (Room::Restore).
/// `primary` records the granted role (primary vs warm standby) so the
/// shard's journal (serve/checkpoint.h) can tell an authoritative copy
/// from a replica during cold-restart reconciliation. The same
/// frame doubles as the reply to kRoomRelease, carrying the releasing
/// shard's final state so the router can forward it onward (`primary`
/// is meaningless there and sent as 0).
struct RoomAssignFrame {
  uint64_t id = 0;
  int32_t room = 0;
  uint64_t epoch = 0;
  bool primary = false;
  std::string state;
};

struct RoomReleaseFrame {
  uint64_t id = 0;
  int32_t room = 0;
  uint64_t epoch = 0;
};

/// Reply to a kRequest for a room the shard does not own. `epoch` is the
/// shard's latest observed assignment epoch (0 when it never owned the
/// room), so routers can tell a stale table from a racing migration.
struct NotOwnerFrame {
  uint64_t id = 0;
  int32_t room = 0;
  uint64_t epoch = 0;
};

/// One room a shard brought back from its durable directory: the grant
/// epoch and role it held when the journal went quiet, plus the tick it
/// replayed up to. The router's recovery phase (ShardRouter::
/// RecoverPartition) reconciles these reports — newest epoch wins,
/// primaries outrank standbys, stale replicas are released.
struct RecoveredRoom {
  int32_t room = 0;
  uint64_t epoch = 0;
  bool primary = false;
  int32_t tick = 0;
};

/// Shard -> router reply to a kRoomRecover query.
struct RoomRecoverFrame {
  uint64_t id = 0;
  std::vector<RecoveredRoom> rooms;
};

/// Encoders append one complete frame (header + payload) to *out.
void AppendRequestFrame(uint64_t id, const FriendRequest& request,
                        std::string* out);
void AppendResponseFrame(uint64_t id, const FriendResponse& response,
                         std::string* out);
void AppendPingFrame(uint64_t id, std::string* out);
void AppendPongFrame(uint64_t id, std::string* out);
void AppendRoomAssignFrame(uint64_t id, int32_t room, uint64_t epoch,
                           bool primary, const std::string& state,
                           std::string* out);
void AppendRoomReleaseFrame(uint64_t id, int32_t room, uint64_t epoch,
                            std::string* out);
void AppendNotOwnerFrame(uint64_t id, int32_t room, uint64_t epoch,
                         std::string* out);
/// The recovery query carries only the correlation id; the report lists
/// every room the shard recovered (possibly none).
void AppendRoomRecoverQueryFrame(uint64_t id, std::string* out);
void AppendRoomRecoverReportFrame(uint64_t id,
                                  const std::vector<RecoveredRoom>& rooms,
                                  std::string* out);

/// Every payload begins with the u64 correlation id, by construction of
/// the encoders above. PeekCorrelationId reads it without decoding the
/// rest of the payload — the multiplexing fast path (serve/net_mux.h):
/// a reader thread matches a response to its waiter by id alone, and
/// only the waiting caller pays for the full type-checked decode.
/// Returns false when the payload is too short to carry an id.
bool PeekCorrelationId(std::string_view payload, uint64_t* id);

/// Pulls the first frame off the front of `buffer` (a connection's read
/// accumulator):
///  - complete frame:  OK, *frame filled, *consumed = bytes to drop;
///  - incomplete:      OK, *consumed == 0 (read more and call again);
///  - malformed header (bad magic/version/reserved, oversized payload):
///    kInvalidArgument — the connection is beyond recovery, close it.
Status ExtractFrame(std::string_view buffer, Frame* frame, size_t* consumed);

/// Payload decoders. All-or-nothing: kInvalidArgument on truncated or
/// oversized payloads, trailing bytes, out-of-range enum values.
Result<RequestFrame> DecodeRequest(std::string_view payload);
Result<ResponseFrame> DecodeResponse(std::string_view payload);
/// Ping and pong payloads are both just the correlation id.
Result<uint64_t> DecodePingPong(std::string_view payload);
Result<RoomAssignFrame> DecodeRoomAssign(std::string_view payload);
Result<RoomReleaseFrame> DecodeRoomRelease(std::string_view payload);
Result<NotOwnerFrame> DecodeNotOwner(std::string_view payload);
/// kRoomRecover is direction-dependent: the router's query is just the
/// id, the shard's report is the id plus the recovered-room list.
Result<uint64_t> DecodeRoomRecoverQuery(std::string_view payload);
Result<RoomRecoverFrame> DecodeRoomRecoverReport(std::string_view payload);

}  // namespace wire
}  // namespace serve
}  // namespace after

#endif  // AFTER_SERVE_WIRE_H_
