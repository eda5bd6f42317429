#ifndef AFTER_SERVE_JOURNAL_H_
#define AFTER_SERVE_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "serve/codec.h"

namespace after {
namespace serve {

/// Per-shard write-ahead journal: the shard's one durable file
/// (docs/durability.md). Binary append-only file:
///
///   offset  size  field
///   0       4     magic      0x414A4C31 ("AJL1"), little-endian
///   4       1     version    kJournalVersion
///   5       3     reserved   must be zero
///   8...          records
///
/// Each record is length-prefixed and FNV-1a-checksummed:
///
///   u32 payload length | u64 Fnv1a64(payload) | payload
///
/// so a torn tail (the classic crash-mid-append) truncates cleanly at
/// the last intact record instead of poisoning recovery, while a flipped
/// byte inside a record drops that record and everything after it (the
/// suffix may depend on the corrupt prefix). Only a corrupt *header* is
/// unrecoverable (kDataLoss): without the magic the file cannot be
/// trusted to be a journal at all.
///
/// Record payloads (little-endian, serve/codec.h primitives):
///   kAssign  u8 type | i32 room | u64 epoch | u8 primary | u8 reset
///   kRelease u8 type | i32 room | u64 epoch
///   kTick    u8 type | i32 room | frame
///   kState   u8 type | i32 room | u64 epoch | u8 primary | frame
/// where `frame` is the room's TickFrame in its one encoding
/// (AppendTickFrame), running to the end of the payload.
struct JournalRecord {
  enum class Type : uint8_t {
    kAssign = 1,
    kRelease = 2,
    kTick = 3,
    kState = 4,
  };

  Type type = Type::kTick;
  int32_t room = 0;
  /// kAssign / kRelease / kState: the grant's epoch fence.
  uint64_t epoch = 0;
  /// kAssign / kState: the granted role.
  bool primary = false;
  /// kAssign only: the grant rebuilt the room from its factory, starting
  /// a new durable incarnation — recovery must not replay older ticks or
  /// use an older state record under it. False for a promotion that
  /// merely re-fences an already-hosted room.
  bool reset = false;
  /// kTick / kState: the room's state at one published tick. A state
  /// record is a grant that carries its base frame: recovery applies the
  /// newest one and replays only the tick frames after it.
  TickFrame frame;
};

inline constexpr uint32_t kJournalMagic = 0x414A4C31u;
/// A journal of another version is kDataLoss: version 1 had no kState,
/// and version 2's state record held a text blob instead of a frame.
inline constexpr uint8_t kJournalVersion = 3;
inline constexpr size_t kJournalHeaderBytes = 8;
/// Upper bound on one record's payload; larger declared lengths are
/// treated as corruption rather than honored with an allocation.
inline constexpr uint32_t kMaxJournalPayloadBytes = 1u << 24;

/// Encodes one record's payload bytes (no length/checksum framing).
std::string EncodeJournalRecord(const JournalRecord& record);

/// All-or-nothing payload decoder, mirroring serve/wire.cc: a fully
/// validated record or kInvalidData with a diagnostic.
Result<JournalRecord> DecodeJournalRecord(std::string_view payload);

/// Append side. Thread-safe; every record hits the kernel with one
/// write() call (so a crashed process loses at most in-kernel data, not
/// buffered user-space data), and `fsync_each` additionally fsyncs per
/// append for crash-of-the-machine durability at a heavy latency cost
/// (measured trade-offs in docs/durability.md).
class Journal {
 public:
  /// Opens (appending) or creates (writing the header) the journal.
  static Result<std::unique_ptr<Journal>> Open(const std::string& path,
                                               bool fsync_each);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  Status Append(const JournalRecord& record);

  /// Forces everything appended so far to stable storage.
  Status Sync();

  /// Atomically replaces the journal with a fresh file holding the
  /// header and `head` (write temp + fsync + rename + directory fsync),
  /// then continues appending to it. DurabilityManager passes one state
  /// record per hosted room, which makes every older record redundant.
  Status Rotate(const std::vector<JournalRecord>& head);

  /// Bytes in the journal file.
  int64_t bytes() const;
  /// Bytes of the records appended since the last rotation, not
  /// counting its head (a journal opened from disk counts every record
  /// it holds): what the rotation budget bounds.
  int64_t appended_bytes() const;

  const std::string& path() const { return path_; }

 private:
  Journal(int fd, std::string path, bool fsync_each, int64_t bytes);

  mutable std::mutex mutex_;
  int fd_ = -1;
  std::string path_;
  bool fsync_each_ = false;
  int64_t bytes_ = 0;
  int64_t appended_bytes_ = 0;
};

/// Replay side: every intact record in order, plus how the file ended.
struct JournalReplay {
  std::vector<JournalRecord> records;
  /// Bytes dropped from the tail (torn final append or trailing
  /// corruption); 0 when the file ended exactly on a record boundary.
  int64_t truncated_bytes = 0;
};

/// Reads a journal from disk. kNotFound when the file does not exist,
/// kDataLoss when the header is corrupt; torn or corrupt record tails
/// are not errors — they truncate cleanly into `truncated_bytes`.
Result<JournalReplay> ReadJournal(const std::string& path);

/// Physically truncates a journal's torn tail so subsequent appends land
/// on a record boundary (an O_APPEND write after torn bytes would be
/// unreachable to every future replay). Returns the bytes dropped; 0
/// when the file is clean or absent. kDataLoss when the header is
/// corrupt (nothing to salvage — the caller should move the file aside).
Result<int64_t> TruncateTornJournalTail(const std::string& path);

}  // namespace serve
}  // namespace after

#endif  // AFTER_SERVE_JOURNAL_H_
