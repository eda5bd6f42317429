#ifndef AFTER_SERVE_CHECKPOINT_H_
#define AFTER_SERVE_CHECKPOINT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "serve/journal.h"
#include "serve/room.h"

namespace after {
namespace serve {

class RecommendationServer;

/// Shard-local durability coordinator (docs/durability.md). It owns the
/// shard's one durable file, the write-ahead journal "<dir>/journal.wal":
///
///  - A grant is journaled after it takes effect. A fresh build is an
///    assign record with the reset flag, a promotion one without it. A
///    grant that carried the room's state (migration in, recovery's
///    re-fence) is one state record: the grant plus the room's tick
///    frame.
///  - A release is journaled; every older record of the room is dead.
///  - Ticks are journaled per publish, as tick records. Every
///    checkpoint_every_ticks-th of a room's ticks is journaled as a
///    state record instead (a checkpoint), and once the records appended
///    since the last rotation outgrow journal_rotate_bytes, the journal
///    is atomically rotated to a file that starts with one state record
///    per hosted room.
///
/// Every grant, release and state record is synced before the call
/// returns; tick records are synced only with journal_fsync.
///
/// Recovery (LoadRecoveryPlan) is one fold over the journal in append
/// order. Per room, the newest assign, release or state record decides
/// ownership and epoch; the last state record since the room's last
/// reset is the base, and the tick records after it replay on top. A
/// corrupt journal header surfaces as a data-loss count, never a crash;
/// the affected rooms restart fresh when the router re-grants them.
///
/// Thread-safe: control frames arrive on connection reader threads
/// while the tick loop appends.
class DurabilityManager {
 public:
  struct Options {
    /// Directory for the journal; created if absent.
    std::string dir;
    /// Journal a room's state every this many of its journaled ticks.
    int checkpoint_every_ticks = 256;
    /// Rotate once the records appended since the last rotation exceed
    /// this many bytes.
    int64_t journal_rotate_bytes = 8 << 20;
    /// fsync the journal on every append (crash-of-machine durability)
    /// instead of only at the grant, release, state and rotation
    /// barriers.
    bool journal_fsync = false;
  };

  /// Creates the directory, truncates any torn journal tail, and opens
  /// the journal for appending. A journal whose header is corrupt (or of
  /// another version) is moved aside to "<journal>.corrupt" and counts
  /// as one data-loss room in the recovery plan: how many rooms it held
  /// cannot be read.
  static Result<std::unique_ptr<DurabilityManager>> Open(
      const Options& options);

  /// Optional: lets rotation find hosted rooms and counters find
  /// ServerMetrics. Must be set before tick traffic when used with a
  /// server.
  void Attach(RecommendationServer* server);

  /// `reset` marks a grant that rebuilt the room from its factory, a
  /// new durable incarnation; false for a promotion of an already-hosted
  /// room.
  Status RecordAssign(int room, uint64_t epoch, bool primary, bool reset);
  /// A grant that carries the room's state: one state record under
  /// (epoch, primary).
  Status RecordState(const Room& room, uint64_t epoch, bool primary);
  Status RecordRelease(int room, uint64_t epoch);
  /// Journals the room's current tick frame, as a state record at the
  /// checkpoint cadence, and runs the rotation budget.
  Status RecordTick(const Room& room);

  /// One room's recovery recipe: a base frame (a state record's, or
  /// none = factory-fresh) plus the tick frames to replay on top.
  struct RecoveryEntry {
    int room = 0;
    uint64_t epoch = 0;
    bool primary = false;
    std::optional<TickFrame> base;
    std::vector<TickFrame> ticks;
  };
  struct RecoveryPlan {
    /// Sorted by room.
    std::vector<RecoveryEntry> entries;
    /// Journal bytes dropped at Open() because the tail was torn.
    int64_t journal_truncated_bytes = 0;
    /// Rooms whose durable state existed but was unrecoverable: 1 when
    /// Open() moved a corrupt-header journal aside.
    int data_loss_rooms = 0;
  };
  Result<RecoveryPlan> LoadRecoveryPlan();

  const Options& options() const { return options_; }
  Journal& journal() { return *journal_; }

 private:
  DurabilityManager(const Options& options, std::unique_ptr<Journal> journal,
                    int64_t truncated_bytes, int data_loss_rooms);

  /// Appends and counts the records; `mutex_` held.
  Status AppendLocked(const JournalRecord& record);
  Status RotateLocked();
  void CountLocked(int64_t records, int64_t states);

  Options options_;
  std::unique_ptr<Journal> journal_;
  RecommendationServer* server_ = nullptr;
  /// Torn-tail bytes dropped when the journal was opened.
  int64_t truncated_bytes_ = 0;
  /// 1 when Open() moved a corrupt-header journal aside.
  int data_loss_rooms_ = 0;

  mutable std::mutex mutex_;
  struct Role {
    uint64_t epoch = 0;
    bool primary = false;
    int ticks_since_state = 0;
  };
  /// Mirror of the shard's ownership ledger, so state records taken on
  /// the tick path know their coordinates without asking ShardControl.
  /// Held with each append, so a room's records land in ledger order.
  std::unordered_map<int, Role> roles_;
};

}  // namespace serve
}  // namespace after

#endif  // AFTER_SERVE_CHECKPOINT_H_
