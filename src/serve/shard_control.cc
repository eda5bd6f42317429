#include "serve/shard_control.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/check.h"

namespace after {
namespace serve {

ShardControl::ShardControl(RecommendationServer* server, RoomFactory factory)
    : server_(server), factory_(std::move(factory)) {
  AFTER_CHECK(server_ != nullptr);
  AFTER_CHECK(factory_ != nullptr);
}

bool ShardControl::Owns(int room) const { return server_->HasRoom(room); }

uint64_t ShardControl::EpochFor(int room) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = last_epoch_.find(room);
  return it == last_epoch_.end() ? 0 : it->second;
}

void ShardControl::set_durability(DurabilityManager* durability) {
  durability_ = durability;
}

void ShardControl::NoteDurabilityFailure(const Status& status) {
  (void)status;
  // The grant/release itself took effect; only its durable trace is
  // degraded. Recovery after a crash in this window re-grants the room
  // fresh, which partitioned serving already survives.
  server_->metrics().errors.fetch_add(1, std::memory_order_relaxed);
}

Status ShardControl::Assign(int room, uint64_t epoch,
                            const std::string& state, bool primary) {
  const std::string context = "assign room " + std::to_string(room);
  std::shared_ptr<Room> existing;  // the replica this shard already hosts
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto last = last_epoch_.find(room);
    if (last != last_epoch_.end() && epoch <= last->second)
      return InvalidArgumentError(
          "stale assign for room " + std::to_string(room) + " (epoch " +
          std::to_string(epoch) + " <= " + std::to_string(last->second) + ")");
    last_epoch_[room] = epoch;
    existing = server_->FindRoom(room);
  }
  // A grant with state carries the donor's tick frame. Decoded before
  // anything is built or touched, so bytes that are not a frame leave
  // the shard as it was.
  std::optional<TickFrame> frame;
  if (!state.empty()) {
    Result<TickFrame> decoded = DecodeTickFrame(state);
    if (!decoded.ok()) return decoded.status().Annotate(context);
    frame = std::move(decoded).value();
  }
  if (existing != nullptr) {
    server_->metrics().rooms_assigned.fetch_add(1, std::memory_order_relaxed);
    // Standby promotion: the grant only advances the epoch, the room
    // keeps serving untouched. Journaled without the reset flag — the
    // room's durable incarnation continues.
    if (!frame.has_value()) {
      if (durability_ != nullptr) {
        const Status durable =
            durability_->RecordAssign(room, epoch, primary, /*reset=*/false);
        if (!durable.ok()) NoteDurabilityFailure(durable);
      }
      return OkStatus();
    }
    // Migration onto a shard that already hosts the room (an existing
    // standby becoming primary): overwrite the local replica with the
    // old primary's exact state. Restore is all-or-nothing, so a frame
    // that does not fit leaves the replica serving as before.
    AFTER_RETURN_IF_ERROR(existing->Restore(*frame).Annotate(context));
    server_->metrics().migrations_in.fetch_add(1, std::memory_order_relaxed);
    if (durability_ != nullptr) {
      // The frame overwrote local state and exists nowhere else durable:
      // the grant is journaled with it.
      const Status durable =
          durability_->RecordState(*existing, epoch, primary);
      if (!durable.ok()) NoteDurabilityFailure(durable);
    }
    return OkStatus();
  }
  // Build outside the lock: the factory can be slow (dataset
  // validation) and must not block EpochFor() or other control frames.
  // All-or-nothing: nothing is hosted, so nothing owned, until every
  // step below succeeded.
  Result<std::unique_ptr<Room>> built = factory_(room);
  if (!built.ok()) return built.status().Annotate(context);
  std::unique_ptr<Room> hosted = std::move(built).value();
  if (frame.has_value())
    AFTER_RETURN_IF_ERROR(hosted->Restore(*frame).Annotate(context));
  AFTER_RETURN_IF_ERROR(server_->AddRoom(std::move(hosted)));
  server_->metrics().rooms_assigned.fetch_add(1, std::memory_order_relaxed);
  if (frame.has_value())
    server_->metrics().migrations_in.fetch_add(1, std::memory_order_relaxed);
  if (durability_ != nullptr) {
    // A fresh build is a new durable incarnation (reset); a grant that
    // carried migration state is journaled with it, since the frame
    // exists nowhere else durable.
    Status durable = OkStatus();
    if (!frame.has_value()) {
      durable = durability_->RecordAssign(room, epoch, primary, /*reset=*/true);
    } else if (const std::shared_ptr<Room> applied = server_->FindRoom(room);
               applied != nullptr) {
      durable = durability_->RecordState(*applied, epoch, primary);
    }
    if (!durable.ok()) NoteDurabilityFailure(durable);
  }
  return OkStatus();
}

Result<std::string> ShardControl::Release(int room, uint64_t epoch) {
  std::shared_ptr<Room> removed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    removed = server_->FindRoom(room);
    if (removed == nullptr)
      return NotOwnerError("room " + std::to_string(room) +
                           " is not owned by this shard");
    // A hosted room's last epoch is its active grant's.
    uint64_t& held = last_epoch_[room];
    if (epoch < held)
      return InvalidArgumentError(
          "stale release for room " + std::to_string(room) + " (epoch " +
          std::to_string(epoch) + " < " + std::to_string(held) + ")");
    held = epoch;
    // Un-own by unhosting: from this instant new requests answer
    // kNotOwner and the router re-routes them, while requests already
    // dispatched into the server drain against the room's shared_ptr.
    server_->RemoveRoom(room);
  }
  server_->metrics().rooms_released.fetch_add(1, std::memory_order_relaxed);
  if (durability_ != nullptr) {
    const Status durable = durability_->RecordRelease(room, epoch);
    if (!durable.ok()) NoteDurabilityFailure(durable);
  }
  // Removed from the registry, so no ticker advances it anymore: this
  // frame is the final word on this room from this shard.
  std::string state;
  AppendTickFrame(removed->CurrentTickFrame(), &state);
  return state;
}

Result<std::vector<wire::RecoveredRoom>> ShardControl::RecoverFromDurable() {
  std::lock_guard<std::mutex> recover_lock(recover_mutex_);
  if (recovered_) return report_;
  recovered_ = true;
  if (durability_ == nullptr) return report_;
  Result<DurabilityManager::RecoveryPlan> plan =
      durability_->LoadRecoveryPlan();
  if (!plan.ok()) return plan.status();
  int data_loss = plan.value().data_loss_rooms;
  int64_t replayed = 0;
  for (const DurabilityManager::RecoveryEntry& entry : plan.value().entries) {
    Result<std::unique_ptr<Room>> built = factory_(entry.room);
    if (!built.ok()) {
      ++data_loss;
      continue;
    }
    std::unique_ptr<Room> room = std::move(built).value();
    if (entry.base.has_value() && !room->Restore(*entry.base).ok()) {
      // Restore is all-or-nothing and the state record already passed
      // its checksum, so a failure here means the frame does not fit
      // this dataset/session anymore: data loss, not a crash.
      ++data_loss;
      continue;
    }
    for (const TickFrame& frame : entry.ticks) {
      // Restore accepts any tick, so this skip is what keeps a tick
      // journaled at or before the base (a control-thread state record
      // can land between a Tick() and its tick record) from applying.
      if (frame.tick <= room->tick()) continue;
      // A frame that no longer applies ends the replay; the room keeps
      // everything replayed so far (strictly better than discarding).
      if (!room->Restore(frame).ok()) break;
      ++replayed;
    }
    const int tick = room->tick();
    {
      // Hosted at its journaled epoch: fenced before it is owned, as a
      // grant is.
      std::lock_guard<std::mutex> lock(mutex_);
      uint64_t& last = last_epoch_[entry.room];
      last = std::max(last, entry.epoch);
    }
    if (!server_->AddRoom(std::move(room)).ok()) {
      ++data_loss;
      continue;
    }
    // Re-fence the ownership in the (possibly truncated) journal with a
    // state record at the recovered tick, so the next recovery starts
    // from here instead of replaying the same frames again.
    if (const std::shared_ptr<Room> hosted = server_->FindRoom(entry.room);
        hosted != nullptr) {
      const Status durable =
          durability_->RecordState(*hosted, entry.epoch, entry.primary);
      if (!durable.ok()) NoteDurabilityFailure(durable);
    }
    wire::RecoveredRoom recovered;
    recovered.room = entry.room;
    recovered.epoch = entry.epoch;
    recovered.primary = entry.primary;
    recovered.tick = tick;
    report_.push_back(recovered);
  }
  server_->metrics().rooms_recovered.fetch_add(
      static_cast<int64_t>(report_.size()), std::memory_order_relaxed);
  server_->metrics().records_replayed.fetch_add(replayed,
                                                std::memory_order_relaxed);
  if (data_loss > 0)
    server_->metrics().data_loss_rooms.fetch_add(data_loss,
                                                 std::memory_order_relaxed);
  return report_;
}

}  // namespace serve
}  // namespace after
