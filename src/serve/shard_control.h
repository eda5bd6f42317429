#ifndef AFTER_SERVE_SHARD_CONTROL_H_
#define AFTER_SERVE_SHARD_CONTROL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "serve/checkpoint.h"
#include "serve/room.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace after {
namespace serve {

/// Builds a fresh (state-less) room for an id, from the shard's own
/// dataset and a deterministic per-room seed. Invoked when the router
/// grants a room this shard has never hosted.
using RoomFactory = std::function<Result<std::unique_ptr<Room>>(int room)>;

/// The shard-side half of partitioned room ownership (docs/serving.md).
/// A shard starts owning nothing; the router grants and revokes rooms
/// with kRoomAssign / kRoomRelease control frames. The owned set is the
/// set of rooms the RecommendationServer hosts: hosting a room
/// (RecommendationServer::AddRoom) owns it, and unhosting it
/// (RemoveRoom) un-owns it.
///
///  - Assign: build the room (fresh via the factory, or restored from a
///    migrated tick frame via Room::Restore — all-or-nothing, so bytes
///    that are not a fitting frame leave the shard unchanged) and only
///    then host it. Epochs are
///    the staleness fence: a grant older than what we last saw for the
///    room is rejected, so reordered control frames cannot resurrect
///    ownership the router already moved elsewhere.
///  - Release: unhost the room (new requests answer kNotOwner
///    immediately), then encode its final tick frame for the router to
///    forward to the new owner. Requests already processing against the
///    room hold its shared_ptr and drain normally.
///
/// Thread-safe: control frames arrive on connection reader threads while
/// request threads call Owns().
class ShardControl {
 public:
  ShardControl(RecommendationServer* server, RoomFactory factory);

  bool Owns(int room) const;
  /// Latest epoch observed for the room in any grant or release; 0 when
  /// the shard has never heard of it (the kNotOwner frame's epoch field).
  uint64_t EpochFor(int room) const;

  /// Attaches the shard's durability subsystem (serve/checkpoint.h):
  /// grants and releases are journaled, a grant that carries migration
  /// state is journaled with it as a state record, and
  /// RecoverFromDurable() becomes able to rebuild the owned-set after a
  /// restart. Borrowed; set before control traffic.
  void set_durability(DurabilityManager* durability);

  /// Handles a kRoomAssign grant. `state` empty -> fresh room from the
  /// factory; non-empty -> migration handoff: an encoded tick frame
  /// (serve/codec.h), decoded and restored onto the factory room before
  /// hosting. Re-granting an owned room at a newer epoch just
  /// advances the epoch (standby promotion needs no rebuild); a grant at
  /// an older-or-equal epoch than one already processed for the room is
  /// rejected with kInvalidArgument. `primary` is the role the router
  /// granted — recorded in the durable ledger so recovery reports it.
  Status Assign(int room, uint64_t epoch, const std::string& state,
                bool primary = false);

  /// Handles a kRoomRelease revocation: stops owning the room and
  /// returns its final tick frame, encoded. kNotOwner when the room is
  /// not owned here; kInvalidArgument when the epoch is stale.
  Result<std::string> Release(int room, uint64_t epoch);

  /// Cold-restart recovery (docs/durability.md): folds the shard's
  /// journal into rooms, restores each room's base frame and replays
  /// the tick frames after it, hosts the results at their journaled
  /// epochs, and journals a state record for each.
  /// Idempotent — the first call does the work, every later call (e.g. a
  /// router's kRoomRecover query) returns the same report. Unrecoverable
  /// rooms (corrupt journal header, factory or apply failure) are
  /// counted as data loss and omitted from the report, never fatal.
  /// Empty report when no durability is attached or nothing durable
  /// exists.
  Result<std::vector<wire::RecoveredRoom>> RecoverFromDurable();

 private:
  /// Count a non-fatal durable-ledger failure: serving continues, only
  /// recoverability degraded.
  void NoteDurabilityFailure(const Status& status);

  RecommendationServer* server_;
  RoomFactory factory_;
  DurabilityManager* durability_ = nullptr;
  mutable std::mutex mutex_;
  /// room -> newest epoch seen in any control frame (survives release,
  /// fencing late reordered grants). Written before a room is hosted,
  /// so for a hosted room it is the active grant's epoch.
  std::unordered_map<int, uint64_t> last_epoch_;
  /// Recovery runs once; serialized separately from mutex_ so the slow
  /// rebuild never blocks EpochFor() on the request path.
  std::mutex recover_mutex_;
  bool recovered_ = false;
  std::vector<wire::RecoveredRoom> report_;
};

}  // namespace serve
}  // namespace after

#endif  // AFTER_SERVE_SHARD_CONTROL_H_
