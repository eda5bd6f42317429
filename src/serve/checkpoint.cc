#include "serve/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>

#include "common/check.h"
#include "serve/server.h"

namespace after {
namespace serve {
namespace {

JournalRecord StateRecord(const Room& room, uint64_t epoch, bool primary) {
  JournalRecord record;
  record.type = JournalRecord::Type::kState;
  record.room = room.id();
  record.epoch = epoch;
  record.primary = primary;
  record.frame = room.CurrentTickFrame();
  return record;
}

}  // namespace

DurabilityManager::DurabilityManager(const Options& options,
                                     std::unique_ptr<Journal> journal,
                                     int64_t truncated_bytes,
                                     int data_loss_rooms)
    : options_(options),
      journal_(std::move(journal)),
      truncated_bytes_(truncated_bytes),
      data_loss_rooms_(data_loss_rooms) {}

Result<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    const Options& options) {
  AFTER_CHECK(!options.dir.empty());
  AFTER_CHECK_GE(options.checkpoint_every_ticks, 1);
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec)
    return InternalError("durability: create '" + options.dir +
                         "': " + ec.message());
  const std::string journal_path = options.dir + "/journal.wal";
  // Physically drop any torn tail before the first O_APPEND write, so
  // new records land where replay can reach them.
  int64_t truncated = 0;
  int data_loss = 0;
  Result<int64_t> tail = TruncateTornJournalTail(journal_path);
  if (tail.ok()) {
    truncated = tail.value();
  } else if (tail.status().code() == StatusCode::kDataLoss) {
    // The header itself is gone: nothing in the file can be trusted.
    // Move it aside for post-mortem and start a fresh journal.
    (void)::rename(journal_path.c_str(),
                   (journal_path + ".corrupt").c_str());
    data_loss = 1;
  } else {
    return tail.status();
  }
  Result<std::unique_ptr<Journal>> journal =
      Journal::Open(journal_path, options.journal_fsync);
  if (!journal.ok()) return journal.status();
  return std::unique_ptr<DurabilityManager>(new DurabilityManager(
      options, std::move(journal).value(), truncated, data_loss));
}

void DurabilityManager::Attach(RecommendationServer* server) {
  std::lock_guard<std::mutex> lock(mutex_);
  server_ = server;
}

void DurabilityManager::CountLocked(int64_t records, int64_t states) {
  if (server_ == nullptr) return;
  ServerMetrics& metrics = server_->metrics();
  metrics.journal_records.fetch_add(records, std::memory_order_relaxed);
  metrics.checkpoints_written.fetch_add(states, std::memory_order_relaxed);
  metrics.journal_bytes.store(journal_->bytes(), std::memory_order_relaxed);
}

Status DurabilityManager::AppendLocked(const JournalRecord& record) {
  AFTER_RETURN_IF_ERROR(journal_->Append(record));
  CountLocked(1, record.type == JournalRecord::Type::kState ? 1 : 0);
  return OkStatus();
}

Status DurabilityManager::RecordAssign(int room, uint64_t epoch,
                                       bool primary, bool reset) {
  JournalRecord record;
  record.type = JournalRecord::Type::kAssign;
  record.room = room;
  record.epoch = epoch;
  record.primary = primary;
  record.reset = reset;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    roles_[room] = Role{epoch, primary};
    AFTER_RETURN_IF_ERROR(AppendLocked(record));
  }
  // Ownership changes are rare and must not evaporate in the page
  // cache: sync the fence even when per-tick fsync is off.
  return journal_->Sync();
}

Status DurabilityManager::RecordState(const Room& room, uint64_t epoch,
                                      bool primary) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    roles_[room.id()] = Role{epoch, primary};
    AFTER_RETURN_IF_ERROR(AppendLocked(StateRecord(room, epoch, primary)));
  }
  return journal_->Sync();
}

Status DurabilityManager::RecordRelease(int room, uint64_t epoch) {
  JournalRecord record;
  record.type = JournalRecord::Type::kRelease;
  record.room = room;
  record.epoch = epoch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    roles_.erase(room);
    AFTER_RETURN_IF_ERROR(AppendLocked(record));
  }
  return journal_->Sync();
}

Status DurabilityManager::RotateLocked() {
  // The new file starts with every hosted room's state, so no older
  // record is needed. A released room has no role and is left out,
  // which keeps it dead.
  std::vector<JournalRecord> head;
  for (auto& [room_id, role] : roles_) {
    const std::shared_ptr<Room> room = server_->FindRoom(room_id);
    if (room == nullptr) continue;
    head.push_back(StateRecord(*room, role.epoch, role.primary));
    role.ticks_since_state = 0;
  }
  AFTER_RETURN_IF_ERROR(journal_->Rotate(head));
  const int64_t states = static_cast<int64_t>(head.size());
  CountLocked(states, states);
  return OkStatus();
}

Status DurabilityManager::RecordTick(const Room& room) {
  bool wrote_state = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Durability is scoped to assigned rooms: an unassigned room has no
    // durable incarnation to journal against.
    const auto role = roles_.find(room.id());
    if (role == roles_.end()) return OkStatus();
    // At the checkpoint cadence the tick is journaled as its state
    // record: the same frame, plus the grant it is a base under.
    JournalRecord record =
        StateRecord(room, role->second.epoch, role->second.primary);
    if (++role->second.ticks_since_state >= options_.checkpoint_every_ticks) {
      role->second.ticks_since_state = 0;
      wrote_state = true;
    } else {
      record.type = JournalRecord::Type::kTick;
    }
    AFTER_RETURN_IF_ERROR(AppendLocked(record));
    // Rotation needs the room registry to find the hosted rooms. It
    // syncs its new file, this room's state included.
    if (server_ != nullptr &&
        journal_->appended_bytes() > options_.journal_rotate_bytes)
      return RotateLocked();
  }
  return wrote_state ? journal_->Sync() : OkStatus();
}

Result<DurabilityManager::RecoveryPlan> DurabilityManager::LoadRecoveryPlan() {
  RecoveryPlan plan;
  plan.journal_truncated_bytes = truncated_bytes_;
  plan.data_loss_rooms = data_loss_rooms_;

  // One fold over the journal in append order. A record older than the
  // room's current epoch is stale (a control frame can race another's
  // append) and changes nothing.
  struct Fold {
    bool owned = false;
    uint64_t epoch = 0;
    bool primary = false;
    std::optional<TickFrame> base;
    std::vector<TickFrame> ticks;
  };
  std::map<int, Fold> folds;
  Result<JournalReplay> replay = ReadJournal(journal_->path());
  if (replay.ok()) {
    for (JournalRecord& record : replay.value().records) {
      Fold& fold = folds[record.room];
      switch (record.type) {
        case JournalRecord::Type::kAssign:
        case JournalRecord::Type::kState:
          if (fold.owned && record.epoch < fold.epoch) break;  // stale
          fold.owned = true;
          fold.epoch = record.epoch;
          fold.primary = record.primary;
          // A state record is the new base; a reset assign is a
          // factory-fresh one. Either way older ticks are dead.
          if (record.type == JournalRecord::Type::kState) {
            fold.base = std::move(record.frame);
            fold.ticks.clear();
          } else if (record.reset) {
            fold.base.reset();
            fold.ticks.clear();
          }
          break;
        case JournalRecord::Type::kRelease:
          if (record.epoch < fold.epoch) break;  // stale
          fold = Fold{};
          fold.epoch = record.epoch;
          break;
        case JournalRecord::Type::kTick:
          if (fold.owned) fold.ticks.push_back(std::move(record.frame));
          break;
      }
    }
  }

  for (auto& [room, fold] : folds) {
    if (!fold.owned) continue;
    RecoveryEntry entry;
    entry.room = room;
    entry.epoch = fold.epoch;
    entry.primary = fold.primary;
    entry.base = std::move(fold.base);
    entry.ticks = std::move(fold.ticks);
    plan.entries.push_back(std::move(entry));
  }
  return plan;
}

}  // namespace serve
}  // namespace after
