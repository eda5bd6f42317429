#include "serve/checkpoint.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <limits>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "partition_fleet.h"
#include "serve/journal.h"
#include "serve/net_server.h"
#include "serve/room.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/shard_control.h"
#include "testing/fault_injection.h"

namespace after {
namespace serve {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test scratch directory under the gtest temp root.
std::string ScratchDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("durability_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string JournalPath(const std::string& dir) {
  return dir + "/journal.wal";
}

/// The file names in a durable directory, sorted.
std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir))
    names.push_back(entry.path().filename().string());
  std::sort(names.begin(), names.end());
  return names;
}

const std::vector<std::string> kJournalOnly = {"journal.wal"};

JournalRecord SampleTick(int room, int tick) {
  JournalRecord record;
  record.type = JournalRecord::Type::kTick;
  record.room = room;
  record.frame.tick = tick;
  record.frame.positions = {{1.5, -2.25}, {0.0, 3.125}};
  record.frame.goals = {{-4.0, 0.5}, {2.0, 2.0}};
  return record;
}

JournalRecord SampleState(int room, uint64_t epoch, int tick) {
  JournalRecord record = SampleTick(room, tick);
  record.type = JournalRecord::Type::kState;
  record.epoch = epoch;
  record.primary = true;
  return record;
}


// ---------------------------------------------------------------------------
// Journal records: codec.

TEST(JournalRecordTest, AssignRoundTripsWithPrimaryAndResetFlags) {
  for (const bool primary : {false, true}) {
    for (const bool reset : {false, true}) {
      JournalRecord record;
      record.type = JournalRecord::Type::kAssign;
      record.room = 7;
      record.epoch = 41;
      record.primary = primary;
      record.reset = reset;
      auto decoded = DecodeJournalRecord(EncodeJournalRecord(record));
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded.value().type, JournalRecord::Type::kAssign);
      EXPECT_EQ(decoded.value().room, 7);
      EXPECT_EQ(decoded.value().epoch, 41u);
      EXPECT_EQ(decoded.value().primary, primary);
      EXPECT_EQ(decoded.value().reset, reset);
    }
  }
}

TEST(JournalRecordTest, ReleaseAndTickRoundTrip) {
  JournalRecord release;
  release.type = JournalRecord::Type::kRelease;
  release.room = 3;
  release.epoch = 99;
  auto decoded = DecodeJournalRecord(EncodeJournalRecord(release));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, JournalRecord::Type::kRelease);
  EXPECT_EQ(decoded.value().room, 3);
  EXPECT_EQ(decoded.value().epoch, 99u);

  const JournalRecord tick = SampleTick(5, 812);
  auto tick_decoded = DecodeJournalRecord(EncodeJournalRecord(tick));
  ASSERT_TRUE(tick_decoded.ok()) << tick_decoded.status().ToString();
  EXPECT_EQ(tick_decoded.value().room, 5);
  const TickFrame& frame = tick_decoded.value().frame;
  EXPECT_EQ(frame.tick, 812);
  ASSERT_EQ(frame.positions.size(), 2u);
  EXPECT_EQ(frame.positions[0].x, 1.5);
  EXPECT_EQ(frame.positions[1].y, 3.125);
  ASSERT_EQ(frame.goals.size(), 2u);
  EXPECT_EQ(frame.goals[0].x, -4.0);
}

TEST(JournalRecordTest, StateRoundTripRestoresTheRoomBitExact) {
  const Dataset dataset = SmallDataset();
  const auto factory = FactoryFor(&dataset);
  auto donor = factory(3).value();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(donor->Tick().ok());

  JournalRecord record;
  record.type = JournalRecord::Type::kState;
  record.room = 3;
  record.epoch = 12;
  record.primary = true;
  record.frame = donor->CurrentTickFrame();
  const std::string payload = EncodeJournalRecord(record);
  auto decoded = DecodeJournalRecord(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().type, JournalRecord::Type::kState);
  EXPECT_EQ(decoded.value().room, 3);
  EXPECT_EQ(decoded.value().epoch, 12u);
  EXPECT_TRUE(decoded.value().primary);
  EXPECT_EQ(decoded.value().frame.tick, 5);

  // A state record is its grant (u8 type | i32 room | u64 epoch |
  // u8 primary) followed by the frame body a tick record carries after
  // its u8 type | i32 room.
  JournalRecord tick = record;
  tick.type = JournalRecord::Type::kTick;
  EXPECT_EQ(payload.substr(1 + 4 + 8 + 1),
            EncodeJournalRecord(tick).substr(1 + 4));
  EXPECT_EQ(payload.substr(1 + 4 + 8 + 1), FrameBytes(*donor));

  auto receiver = factory(3).value();
  ASSERT_TRUE(receiver->Restore(decoded.value().frame).ok());
  EXPECT_EQ(receiver->tick(), donor->tick());
  EXPECT_EQ(FrameBytes(*receiver), FrameBytes(*donor));
  ExpectSamePositions(donor->snapshot()->positions(),
                      receiver->snapshot()->positions());
}

TEST(JournalRecordTest, TruncatedPayloadsFailDecodeAllOrNothing) {
  for (const JournalRecord& record : {SampleTick(1, 2), SampleState(1, 3, 2)}) {
    const std::string payload = EncodeJournalRecord(record);
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      EXPECT_FALSE(
          DecodeJournalRecord(std::string_view(payload).substr(0, cut)).ok())
          << "type=" << static_cast<int>(record.type) << " cut=" << cut;
    }
    EXPECT_FALSE(DecodeJournalRecord(payload + '\0').ok())
        << "type=" << static_cast<int>(record.type) << " one byte long";
  }
}

TEST(JournalRecordTest, NonBooleanFlagsAreRejected) {
  JournalRecord record;
  record.type = JournalRecord::Type::kAssign;
  std::string payload = EncodeJournalRecord(record);
  // Payload layout: u8 type | i32 room | u64 epoch | u8 primary | u8 reset.
  std::string bad_primary = payload;
  bad_primary[1 + 4 + 8] = 2;
  EXPECT_FALSE(DecodeJournalRecord(bad_primary).ok());
  std::string bad_reset = payload;
  bad_reset[1 + 4 + 8 + 1] = 7;
  EXPECT_FALSE(DecodeJournalRecord(bad_reset).ok());
  // State layout: u8 type | i32 room | u64 epoch | u8 primary | ...
  std::string bad_state = EncodeJournalRecord(SampleState(0, 1, 0));
  bad_state[1 + 4 + 8] = 3;
  EXPECT_FALSE(DecodeJournalRecord(bad_state).ok());
  // A record type this reader does not know is rejected, not skipped.
  std::string unknown = payload;
  unknown[0] = 9;
  EXPECT_FALSE(DecodeJournalRecord(unknown).ok());
}

// ---------------------------------------------------------------------------
// Journal file: append, replay, torn tails, corruption.

TEST(JournalTest, AppendedRecordsReadBackInOrder) {
  const std::string dir = ScratchDir("journal_roundtrip");
  const std::string path = JournalPath(dir);
  {
    auto journal = Journal::Open(path, /*fsync_each=*/false);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    for (int i = 0; i < 5; ++i)
      ASSERT_TRUE(journal.value()->Append(SampleTick(2, i)).ok());
    ASSERT_TRUE(journal.value()->Sync().ok());
  }
  auto replay = ReadJournal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay.value().truncated_bytes, 0);
  ASSERT_EQ(replay.value().records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(replay.value().records[i].frame.tick, i);
    EXPECT_EQ(replay.value().records[i].room, 2);
  }
  // Reopening appends after the existing records, not over them.
  {
    auto journal = Journal::Open(path, /*fsync_each=*/false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->Append(SampleTick(2, 5)).ok());
  }
  EXPECT_EQ(ReadJournal(path).value().records.size(), 6u);
}

TEST(JournalTest, EveryTornTailTruncatesToARecordBoundary) {
  const std::string dir = ScratchDir("journal_torn");
  const std::string path = JournalPath(dir);
  const std::vector<JournalRecord> written = {
      SampleTick(0, 0), SampleState(0, 4, 1), SampleTick(0, 2)};
  {
    auto journal = Journal::Open(path, /*fsync_each=*/false);
    ASSERT_TRUE(journal.ok());
    for (const JournalRecord& record : written)
      ASSERT_TRUE(journal.value()->Append(record).ok());
  }
  const int64_t full = static_cast<int64_t>(fs::file_size(path));
  const std::string pristine = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  // Byte offsets where each record ends (record i spans
  // boundaries[i]..boundaries[i+1]); a cut lands the replay exactly on
  // the last boundary it covers.
  std::vector<int64_t> boundaries = {
      static_cast<int64_t>(kJournalHeaderBytes)};
  for (const JournalRecord& record : written)
    boundaries.push_back(
        boundaries.back() + 12 +
        static_cast<int64_t>(EncodeJournalRecord(record).size()));
  ASSERT_EQ(boundaries.back(), full);
  // Cut the file at every possible length past the header: replay must
  // always succeed with a clean prefix of the records and account for
  // every dropped byte — the crash-mid-append contract.
  for (int64_t keep = static_cast<int64_t>(kJournalHeaderBytes); keep <= full;
       ++keep) {
    std::ofstream(path, std::ios::binary).write(pristine.data(), keep);
    size_t expect_records = 0;
    while (expect_records + 1 < boundaries.size() &&
           boundaries[expect_records + 1] <= keep)
      ++expect_records;
    auto replay = ReadJournal(path);
    ASSERT_TRUE(replay.ok()) << "keep=" << keep << ": "
                             << replay.status().ToString();
    ASSERT_EQ(replay.value().records.size(), expect_records)
        << "keep=" << keep;
    EXPECT_EQ(replay.value().truncated_bytes,
              keep - boundaries[expect_records])
        << "keep=" << keep;
    for (size_t i = 0; i < expect_records; ++i)
      EXPECT_EQ(EncodeJournalRecord(replay.value().records[i]),
                EncodeJournalRecord(written[i]))
          << "keep=" << keep;
    // The physical truncation helper lands appends back on a boundary.
    auto dropped = TruncateTornJournalTail(path);
    ASSERT_TRUE(dropped.ok()) << "keep=" << keep;
    EXPECT_EQ(dropped.value(), replay.value().truncated_bytes);
    EXPECT_EQ(ReadJournal(path).value().truncated_bytes, 0);
  }
}

TEST(JournalTest, HeaderCorruptionIsDataLossButHeaderTruncationIsTorn) {
  const std::string dir = ScratchDir("journal_header");
  const std::string path = JournalPath(dir);
  {
    auto journal = Journal::Open(path, /*fsync_each=*/false);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->Append(SampleTick(0, 0)).ok());
  }
  // A flipped magic byte is unrecoverable: without the magic the file
  // cannot be trusted to be a journal at all.
  std::fstream flip(path, std::ios::in | std::ios::out | std::ios::binary);
  flip.seekp(0);
  flip.put('X');
  flip.close();
  EXPECT_EQ(ReadJournal(path).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(TruncateTornJournalTail(path).status().code(),
            StatusCode::kDataLoss);

  // A crash while the header itself was being written is just the torn
  // tail of an empty journal, not data loss.
  ASSERT_TRUE(testing::TruncateFileTail(path, 4).ok());
  auto replay = ReadJournal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay.value().records.empty());
  EXPECT_EQ(replay.value().truncated_bytes, 4);

  EXPECT_EQ(ReadJournal(dir + "/nope.wal").status().code(),
            StatusCode::kNotFound);
}

TEST(JournalTest, ByteFlipFuzzReplaysAPrefixOrReportsDataLoss) {
  const std::string dir = ScratchDir("journal_fuzz");
  const std::string path = JournalPath(dir);
  std::vector<std::string> encoded;
  {
    auto journal = Journal::Open(path, /*fsync_each=*/false);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 6; ++i) {
      const JournalRecord record =
          i == 3 ? SampleState(1, 2, i) : SampleTick(1, i);
      encoded.push_back(EncodeJournalRecord(record));
      ASSERT_TRUE(journal.value()->Append(record).ok());
    }
  }
  const std::string pristine = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  Rng rng(77);
  int data_loss = 0, truncated = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    std::ofstream(path, std::ios::binary)
        .write(pristine.data(), static_cast<int64_t>(pristine.size()));
    ASSERT_TRUE(testing::FlipRandomByte(path, rng).ok());
    auto replay = ReadJournal(path);
    if (!replay.ok()) {
      // Only a corrupt header may be unrecoverable.
      EXPECT_EQ(replay.status().code(), StatusCode::kDataLoss);
      ++data_loss;
      continue;
    }
    // Whatever survived must be an exact prefix of what was written:
    // a checksum-caught flip drops that record and everything after it,
    // never yields an altered record.
    ASSERT_LE(replay.value().records.size(), encoded.size());
    for (size_t i = 0; i < replay.value().records.size(); ++i)
      EXPECT_EQ(EncodeJournalRecord(replay.value().records[i]), encoded[i])
          << "trial=" << trial << " record=" << i;
    if (replay.value().records.size() < encoded.size()) ++truncated;
  }
  EXPECT_GT(data_loss, 0);  // some flips land in the 8-byte header
  EXPECT_GT(truncated, 0);  // most land in records and truncate there
}

// ---------------------------------------------------------------------------
// DurabilityManager + ShardControl: the full crash/recover cycle.

/// One durable shard, restartable in place: the shape of
/// tools/serve_shard --durable_dir, addressable from a
/// unit test. Destroying it and constructing a new one over the same
/// directory is the crash + cold restart.
struct DurableShard {
  DurableShard(const Dataset& dataset, const std::string& dir,
               int checkpoint_every_ticks = 256,
               int64_t journal_rotate_bytes = 8 << 20)
      : DurableShard(FactoryFor(&dataset), dir, checkpoint_every_ticks,
                     journal_rotate_bytes) {}
  DurableShard(RoomFactory factory, const std::string& dir,
               int checkpoint_every_ticks = 256,
               int64_t journal_rotate_bytes = 8 << 20)
      : server({}, [] { return std::make_unique<NearestRecommender>(5); },
               TestServerOptions()),
        control(&server, std::move(factory)) {
    DurabilityManager::Options options;
    options.dir = dir;
    options.checkpoint_every_ticks = checkpoint_every_ticks;
    options.journal_rotate_bytes = journal_rotate_bytes;
    auto opened = DurabilityManager::Open(options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    durability = std::move(opened).value();
    durability->Attach(&server);
    server.set_durability(durability.get());
    control.set_durability(durability.get());
  }

  RecommendationServer server;
  ShardControl control;
  std::unique_ptr<DurabilityManager> durability;
};

TEST(DurabilityManagerTest, FreshRoomRecoversBitExactFromJournalReplay) {
  const std::string dir = ScratchDir("recover_replay");
  const Dataset dataset = SmallDataset();
  std::string expected_state;
  {
    // Cadence high enough that no tick-path checkpoint fires: recovery
    // must rebuild from the factory and replay every journaled tick.
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/1000);
    ASSERT_TRUE(shard.control.Assign(3, 7, "", /*primary=*/true).ok());
    for (int i = 0; i < 6; ++i) shard.server.TickAll();
    expected_state = FrameBytes(*shard.server.FindRoom(3));
  }  // crash

  DurableShard restarted(dataset, dir, /*checkpoint_every_ticks=*/1000);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().size(), 1u);
  EXPECT_EQ(report.value()[0].room, 3);
  EXPECT_EQ(report.value()[0].epoch, 7u);
  EXPECT_TRUE(report.value()[0].primary);
  EXPECT_EQ(report.value()[0].tick, 6);

  EXPECT_TRUE(restarted.control.Owns(3));
  EXPECT_EQ(restarted.control.EpochFor(3), 7u);
  auto room = restarted.server.FindRoom(3);
  ASSERT_NE(room, nullptr);
  EXPECT_EQ(FrameBytes(*room), expected_state);  // tick, positions, goals
  EXPECT_GE(restarted.server.metrics().rooms_recovered.load(), 1);
  EXPECT_GE(restarted.server.metrics().records_replayed.load(), 6);

  // Idempotent: a router's kRoomRecover query after boot-time recovery
  // answers the same report without redoing the work.
  auto again = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().size(), 1u);
}

TEST(DurabilityManagerTest, CheckpointPlusTailReplayRecoversBitExact) {
  const std::string dir = ScratchDir("recover_ckpt");
  const Dataset dataset = SmallDataset();
  std::string expected_state;
  {
    // Cadence 4 over 10 ticks: recovery starts from the tick-8
    // checkpoint and replays the 2-tick journal tail on top.
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/4);
    ASSERT_TRUE(shard.control.Assign(0, 2, "", /*primary=*/true).ok());
    for (int i = 0; i < 10; ++i) shard.server.TickAll();
    EXPECT_EQ(shard.server.metrics().checkpoints_written.load(), 2);
    // The assign, 8 tick records and 2 state records, each counted once:
    // ticks 4 and 8 are journaled as their state records.
    EXPECT_EQ(shard.server.metrics().journal_records.load(), 11);
    expected_state = FrameBytes(*shard.server.FindRoom(0));
  }
  EXPECT_EQ(DirEntries(dir), kJournalOnly);

  DurableShard restarted(dataset, dir);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().size(), 1u);
  EXPECT_EQ(report.value()[0].tick, 10);
  EXPECT_EQ(restarted.server.metrics().records_replayed.load(), 2);
  EXPECT_EQ(FrameBytes(*restarted.server.FindRoom(0)), expected_state);
}

TEST(DurabilityManagerTest, MigratedInStateIsCheckpointedOnArrival) {
  const std::string dir = ScratchDir("recover_migration");
  const Dataset dataset = SmallDataset();
  // A donor (not durable) hands a ticked room over; the receiving shard
  // must be able to recover it even though it never ticked it itself —
  // the migrated frame exists nowhere else durable.
  auto donor = FactoryFor(&dataset)(5).value();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(donor->Tick().ok());
  const std::string migrated = FrameBytes(*donor);
  {
    DurableShard shard(dataset, dir);
    ASSERT_TRUE(
        shard.control.Assign(5, 9, migrated, /*primary=*/true).ok());
    // One state record is the whole grant.
    EXPECT_EQ(shard.server.metrics().journal_records.load(), 1);
    EXPECT_EQ(shard.server.metrics().checkpoints_written.load(), 1);
  }  // crash before any tick
  EXPECT_EQ(DirEntries(dir), kJournalOnly);

  DurableShard restarted(dataset, dir);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().size(), 1u);
  EXPECT_EQ(report.value()[0].tick, 4);
  EXPECT_EQ(FrameBytes(*restarted.server.FindRoom(5)), migrated);
}

TEST(DurabilityManagerTest, PromotedStandbyKeepsItsBaseAndTicksAtTheNewEpoch) {
  const std::string dir = ScratchDir("recover_promotion");
  const Dataset dataset = SmallDataset();
  std::string expected_state;
  {
    // Cadence 4 over 6 standby ticks: a base at tick 4 and two ticks
    // past it. The promotion only re-fences the room, so the base and
    // every tick on either side of it still describe the live room.
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/4);
    ASSERT_TRUE(shard.control.Assign(3, 1, "", /*primary=*/false).ok());
    for (int i = 0; i < 6; ++i) shard.server.TickAll();
    ASSERT_TRUE(shard.control.Assign(3, 2, "", /*primary=*/true).ok());
    for (int i = 0; i < 3; ++i) shard.server.TickAll();
    EXPECT_EQ(shard.server.metrics().errors.load(), 0);
    expected_state = FrameBytes(*shard.server.FindRoom(3));
  }  // crash

  DurableShard restarted(dataset, dir, /*checkpoint_every_ticks=*/4);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().size(), 1u);
  EXPECT_EQ(report.value()[0].epoch, 2u);
  EXPECT_TRUE(report.value()[0].primary);
  EXPECT_EQ(report.value()[0].tick, 9);
  EXPECT_EQ(restarted.control.EpochFor(3), 2u);
  // Ticks 5..9 replay on the tick-4 base.
  EXPECT_EQ(restarted.server.metrics().records_replayed.load(), 5);
  EXPECT_EQ(FrameBytes(*restarted.server.FindRoom(3)), expected_state);
}

TEST(DurabilityManagerTest, OverwrittenStandbyRecoversTheDonorStateNotItsOwn) {
  const std::string dir = ScratchDir("recover_overwrite");
  const Dataset dataset = SmallDataset();
  auto donor = FactoryFor(&dataset)(5).value();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(donor->Tick().ok());
  std::string expected_state;
  {
    // The standby runs 6 ticks of its own (a base at tick 4 among
    // them), then the donor's tick-3 state overwrites it and 2 more
    // ticks follow. Nothing from the standby's own run may come back.
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/4);
    ASSERT_TRUE(shard.control.Assign(5, 1, "", /*primary=*/false).ok());
    for (int i = 0; i < 6; ++i) shard.server.TickAll();
    ASSERT_TRUE(
        shard.control.Assign(5, 2, FrameBytes(*donor), /*primary=*/true)
            .ok());
    EXPECT_EQ(shard.server.metrics().migrations_in.load(), 1);
    for (int i = 0; i < 2; ++i) shard.server.TickAll();
    EXPECT_EQ(shard.server.metrics().errors.load(), 0);
    expected_state = FrameBytes(*shard.server.FindRoom(5));
  }  // crash

  DurableShard restarted(dataset, dir, /*checkpoint_every_ticks=*/4);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().size(), 1u);
  EXPECT_EQ(report.value()[0].epoch, 2u);
  EXPECT_TRUE(report.value()[0].primary);
  EXPECT_EQ(report.value()[0].tick, 5);
  EXPECT_EQ(FrameBytes(*restarted.server.FindRoom(5)), expected_state);
}

TEST(DurabilityManagerTest, TickRecordAtTheBaseTickIsNotReplayed) {
  const std::string dir = ScratchDir("recover_base_tick");
  const Dataset dataset = SmallDataset();
  std::string expected_state;
  {
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/1000);
    ASSERT_TRUE(shard.control.Assign(6, 3, "", /*primary=*/true).ok());
    for (int i = 0; i < 3; ++i) shard.server.TickAll();
    const std::shared_ptr<Room> room = shard.server.FindRoom(6);
    // The order the manager's mutex allows: the tick thread publishes
    // tick 4, a control-thread state record lands before that tick's
    // record, and the tick record follows at the state record's tick.
    ASSERT_TRUE(room->Tick().ok());
    ASSERT_TRUE(shard.durability->RecordState(*room, 3, /*primary=*/true)
                    .ok());
    ASSERT_TRUE(shard.durability->RecordTick(*room).ok());
    expected_state = FrameBytes(*room);
  }  // crash
  auto journal = ReadJournal(JournalPath(dir));
  ASSERT_TRUE(journal.ok());
  const std::vector<JournalRecord>& records = journal.value().records;
  ASSERT_GE(records.size(), 2u);
  EXPECT_EQ(records[records.size() - 2].type, JournalRecord::Type::kState);
  EXPECT_EQ(records.back().type, JournalRecord::Type::kTick);
  EXPECT_EQ(records.back().frame.tick, 4);

  // Recovery lands on the base and skips the tick record at its tick:
  // Restore would take it, so the skip is the only guard.
  DurableShard restarted(dataset, dir, /*checkpoint_every_ticks=*/1000);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().size(), 1u);
  EXPECT_EQ(report.value()[0].tick, 4);
  EXPECT_EQ(restarted.server.metrics().records_replayed.load(), 0);
  EXPECT_EQ(FrameBytes(*restarted.server.FindRoom(6)), expected_state);
}

TEST(DurabilityManagerTest, ExtremeDoublesComeBackBitForBit) {
  const Dataset dataset = SmallDataset();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  constexpr double kHuge = std::numeric_limits<double>::max();
  // A donor room whose frame holds -0.0, the smallest subnormal and the
  // largest finite double, in positions and goals.
  DurableShard donor(dataset, ScratchDir("extreme_donor"));
  ASSERT_TRUE(donor.control.Assign(5, 1, "", /*primary=*/true).ok());
  const std::shared_ptr<Room> room = donor.server.FindRoom(5);
  TickFrame frame = room->CurrentTickFrame();
  frame.positions[0] = {-0.0, kTiny};
  frame.positions[1] = {kHuge, -kHuge};
  frame.goals[0] = {kTiny, -0.0};
  frame.goals[1] = {-kTiny, kHuge};
  ASSERT_TRUE(room->Restore(frame).ok());
  const std::string want = Encoded(frame);

  // Release -> Assign: the router forwards the released bytes as they
  // are.
  auto released = donor.control.Release(5, 2);
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_EQ(released.value(), want);
  const std::string dir = ScratchDir("recover_extreme");
  {
    DurableShard receiver(dataset, dir);
    ASSERT_TRUE(
        receiver.control.Assign(5, 3, released.value(), /*primary=*/true)
            .ok());
    EXPECT_EQ(FrameBytes(*receiver.server.FindRoom(5)), want);
  }  // crash

  // And through the journal's state record.
  DurableShard restarted(dataset, dir);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().size(), 1u);
  const TickFrame back = restarted.server.FindRoom(5)->CurrentTickFrame();
  EXPECT_EQ(Encoded(back), want);
  EXPECT_TRUE(std::signbit(back.positions[0].x));
  EXPECT_EQ(back.positions[0].x, 0.0);
  EXPECT_EQ(back.positions[0].y, kTiny);
  EXPECT_EQ(back.positions[1].x, kHuge);
  EXPECT_EQ(back.positions[1].y, -kHuge);
  EXPECT_TRUE(std::signbit(back.goals[0].y));
  EXPECT_EQ(back.goals[1].x, -kTiny);
}

TEST(DurabilityManagerTest, RecoveryWhoseFactoryFailsCountsDataLoss) {
  const std::string dir = ScratchDir("recover_factory_fails");
  const Dataset dataset = SmallDataset();
  {
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/1000);
    ASSERT_TRUE(shard.control.Assign(2, 3, "", /*primary=*/true).ok());
    for (int i = 0; i < 3; ++i) shard.server.TickAll();
  }
  const RoomFactory failing = [](int) -> Result<std::unique_ptr<Room>> {
    return InternalError("the shard's dataset is gone");
  };
  DurableShard restarted(failing, dir);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().empty());
  EXPECT_FALSE(restarted.control.Owns(2));
  EXPECT_EQ(restarted.server.metrics().data_loss_rooms.load(), 1);
}

TEST(DurabilityManagerTest, BaseStateThatNoLongerFitsCountsDataLoss) {
  const std::string dir = ScratchDir("recover_misfit");
  const Dataset dataset = SmallDataset();  // 16 users
  {
    // Cadence 2 over 3 ticks: a 16-user base at tick 2.
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/2);
    ASSERT_TRUE(shard.control.Assign(1, 4, "", /*primary=*/true).ok());
    for (int i = 0; i < 3; ++i) shard.server.TickAll();
    EXPECT_GE(shard.server.metrics().checkpoints_written.load(), 1);
  }
  // The restarted shard builds 12-user rooms: the base cannot apply.
  const Dataset smaller = SmallDataset(/*num_users=*/12);
  DurableShard restarted(smaller, dir);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().empty());
  EXPECT_FALSE(restarted.control.Owns(1));
  EXPECT_EQ(restarted.server.metrics().data_loss_rooms.load(), 1);
}

TEST(DurabilityManagerTest, LedgerFailureCountsAnErrorAndKeepsTheGrant) {
  const std::string dir = ScratchDir("ledger_failure");
  const Dataset dataset = SmallDataset();
  auto donor = FactoryFor(&dataset)(5).value();
  ASSERT_TRUE(donor->Tick().ok());
  DurableShard shard(dataset, dir);
  // A file-size limit at the journal's current size fails the next
  // write with EFBIG (SIGXFSZ ignored, so the process lives on), so the
  // state record of a migrated room cannot be journaled. The grant
  // still takes effect; only its durable trace is lost, and that is
  // counted.
  const uintmax_t journal_bytes = fs::file_size(JournalPath(dir));
  struct rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  struct rlimit capped = saved;
  capped.rlim_cur = static_cast<rlim_t>(journal_bytes);
  const auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);
  const Status assigned =
      shard.control.Assign(5, 9, FrameBytes(*donor), /*primary=*/true);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, saved_handler);
  ASSERT_TRUE(assigned.ok()) << assigned.ToString();
  EXPECT_TRUE(shard.server.HasRoom(5));
  EXPECT_EQ(shard.server.metrics().errors.load(), 1);
  EXPECT_EQ(fs::file_size(JournalPath(dir)), journal_bytes);
  EXPECT_TRUE(shard.server.Handle({.room = 5, .user = 1}).status.ok());
}

TEST(DurabilityManagerTest, ReleasedRoomsStayDead) {
  const std::string dir = ScratchDir("recover_release");
  const Dataset dataset = SmallDataset();
  {
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/2);
    ASSERT_TRUE(shard.control.Assign(1, 1, "", /*primary=*/true).ok());
    for (int i = 0; i < 5; ++i) shard.server.TickAll();
    EXPECT_EQ(shard.server.metrics().checkpoints_written.load(), 2);
    ASSERT_TRUE(shard.control.Release(1, 2).ok());
  }
  // The release outranks the state records before it: restart recovers
  // nothing — the router moved this room elsewhere and resurrecting it
  // here would split-brain the fleet.
  EXPECT_EQ(DirEntries(dir), kJournalOnly);
  DurableShard restarted(dataset, dir);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().empty());
  EXPECT_FALSE(restarted.control.Owns(1));
}

TEST(DurabilityManagerTest, JournalRotationKeepsTheLedgerAndTheLiveRoom) {
  const std::string dir = ScratchDir("recover_rotation");
  const Dataset dataset = SmallDataset();
  // A few KiB: a 16-user tick record is ~0.5 KiB, so the live room's
  // ticks cross the threshold every handful of ticks. The tick-path
  // checkpoint cadence stays out of the way, so every state record below
  // is a rotation's.
  constexpr int64_t kRotateBytes = 4 << 10;
  std::string expected_state;
  {
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/1000,
                       kRotateBytes);
    ASSERT_TRUE(shard.control.Assign(2, 5, "", /*primary=*/true).ok());
    ASSERT_TRUE(shard.control.Assign(4, 6, "", /*primary=*/true).ok());
    for (int i = 0; i < 2; ++i) shard.server.TickAll();
    // Released before any rotation: the release record is the only
    // thing keeping room 4 dead, and rotation truncates the journal.
    ASSERT_TRUE(shard.control.Release(4, 7).ok());

    const Journal& journal = shard.durability->journal();
    int rotations = 0;
    int ticks_since_rotation = 0;
    int64_t before = journal.appended_bytes();
    for (int i = 0; i < 64 && rotations < 2; ++i) {
      shard.server.TickAll();
      ++ticks_since_rotation;
      const int64_t after = journal.appended_bytes();
      if (after < before) {
        ++rotations;
        EXPECT_GT(ticks_since_rotation, 1);
        ticks_since_rotation = 0;
        // The rotated file holds the header and one state record for
        // the one hosted room; the released room is gone. The head does
        // not count against the budget.
        EXPECT_EQ(after, 0);
        EXPECT_EQ(static_cast<int64_t>(fs::file_size(JournalPath(dir))),
                  journal.bytes());
        auto replay = ReadJournal(JournalPath(dir));
        ASSERT_TRUE(replay.ok()) << replay.status().ToString();
        ASSERT_EQ(replay.value().records.size(), 1u);
        const JournalRecord& head = replay.value().records[0];
        EXPECT_EQ(journal.bytes(),
                  static_cast<int64_t>(kJournalHeaderBytes + 12 +
                                       EncodeJournalRecord(head).size()));
        EXPECT_EQ(head.type, JournalRecord::Type::kState);
        EXPECT_EQ(head.room, 2);
        EXPECT_EQ(head.epoch, 5u);
        EXPECT_TRUE(head.primary);
        EXPECT_EQ(Encoded(head.frame), FrameBytes(*shard.server.FindRoom(2)));
      }
      // Appends past the threshold never outlive the tick that crossed
      // it.
      EXPECT_LE(after, kRotateBytes);
      before = after;
    }
    ASSERT_EQ(rotations, 2);
    EXPECT_EQ(shard.server.metrics().checkpoints_written.load(), 2);
    EXPECT_EQ(shard.server.metrics().errors.load(), 0);
    // Leave a journal tail after the last rotation to replay.
    for (int i = 0; i < 3; ++i) shard.server.TickAll();
    EXPECT_GT(journal.bytes(), static_cast<int64_t>(kJournalHeaderBytes));
    expected_state = FrameBytes(*shard.server.FindRoom(2));
  }  // crash
  EXPECT_EQ(DirEntries(dir), kJournalOnly);

  DurableShard restarted(dataset, dir);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().size(), 1u);
  EXPECT_EQ(report.value()[0].room, 2);
  EXPECT_EQ(report.value()[0].epoch, 5u);
  EXPECT_TRUE(report.value()[0].primary);
  EXPECT_TRUE(restarted.control.Owns(2));
  EXPECT_FALSE(restarted.control.Owns(4)) << "released room resurrected";
  ASSERT_NE(restarted.server.FindRoom(2), nullptr);
  EXPECT_EQ(FrameBytes(*restarted.server.FindRoom(2)), expected_state);
}

TEST(DurabilityManagerTest, TornJournalTailRecoversThePrefix) {
  const std::string dir = ScratchDir("recover_torn");
  const Dataset dataset = SmallDataset();
  {
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/1000);
    ASSERT_TRUE(shard.control.Assign(2, 5, "", /*primary=*/true).ok());
    for (int i = 0; i < 6; ++i) shard.server.TickAll();
  }
  // Crash mid-append: chop 3 bytes off the final tick record.
  const std::string journal = JournalPath(dir);
  const int64_t size = static_cast<int64_t>(fs::file_size(journal));
  ASSERT_TRUE(testing::TruncateFileTail(journal, size - 3).ok());

  DurableShard restarted(dataset, dir, /*checkpoint_every_ticks=*/1000);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().size(), 1u);
  EXPECT_EQ(report.value()[0].tick, 5);  // the torn 6th tick is gone

  // The recovered replica equals a pristine replica at tick 5 — the
  // fleet's bit-exactness invariant, minus only the torn tick.
  auto expected = FactoryFor(&dataset)(2).value();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(expected->Tick().ok());
  EXPECT_EQ(FrameBytes(*restarted.server.FindRoom(2)),
            FrameBytes(*expected));
}

TEST(DurabilityManagerTest, CorruptJournalHeaderIsDataLossNotACrash) {
  // A flipped magic byte, a version-1 journal from before state records,
  // and a version-2 one whose state records held text blobs: either way
  // the header cannot be trusted, and no older decoder is kept.
  for (const auto& [offset, byte] : std::vector<std::pair<int, char>>{
           {0, 'X'}, {4, '\x01'}, {4, '\x02'}}) {
    SCOPED_TRACE(::testing::Message() << "byte " << offset);
    const std::string dir = ScratchDir("recover_bad_header");
    const Dataset dataset = SmallDataset();
    {
      DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/2);
      ASSERT_TRUE(shard.control.Assign(4, 1, "", /*primary=*/true).ok());
      for (int i = 0; i < 4; ++i) shard.server.TickAll();
    }
    std::fstream flip(JournalPath(dir),
                      std::ios::in | std::ios::out | std::ios::binary);
    flip.seekp(offset);
    flip.put(byte);
    flip.close();

    // Open survives (the corrupt journal is moved aside for
    // post-mortem), and recovery comes back empty: how many rooms the
    // file held cannot be read, so it counts as one data-loss room, and
    // the router will re-grant the room fresh.
    DurableShard restarted(dataset, dir);
    EXPECT_EQ(DirEntries(dir), (std::vector<std::string>{
                                   "journal.wal", "journal.wal.corrupt"}));
    auto report = restarted.control.RecoverFromDurable();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report.value().empty());
    EXPECT_EQ(restarted.server.metrics().data_loss_rooms.load(), 1);
  }
}

TEST(DurabilityManagerTest, CorruptStateRecordRecoversAnExactTickPrefix) {
  const std::string dir = ScratchDir("recover_bad_state");
  const Dataset dataset = SmallDataset();
  {
    // Cadence 3 over 7 ticks: assign, t1, t2, state@3, t4, t5, state@6,
    // t7.
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/3);
    ASSERT_TRUE(shard.control.Assign(8, 2, "", /*primary=*/true).ok());
    for (int i = 0; i < 7; ++i) shard.server.TickAll();
  }
  auto pristine = ReadJournal(JournalPath(dir));
  ASSERT_TRUE(pristine.ok());
  const std::vector<JournalRecord>& records = pristine.value().records;
  ASSERT_EQ(records.size(), 8u);
  std::vector<std::string> states_by_tick;
  {
    auto oracle = FactoryFor(&dataset)(8).value();
    states_by_tick.push_back(FrameBytes(*oracle));
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(oracle->Tick().ok());
      states_by_tick.push_back(FrameBytes(*oracle));
    }
  }
  const std::string scratch = ScratchDir("recover_bad_state_scratch");
  // A flipped byte inside a state record drops it, the tick it was
  // journaled for, and everything after it: the room comes back at the
  // tick just before that record, bit for bit, from the base before it
  // (or the factory) and the ticks between.
  for (const auto& [index, expected_tick] :
       std::vector<std::pair<size_t, int>>{{3, 2}, {6, 5}}) {
    SCOPED_TRACE(::testing::Message() << "record " << index);
    ASSERT_EQ(records[index].type, JournalRecord::Type::kState);
    int64_t offset = static_cast<int64_t>(kJournalHeaderBytes);
    for (size_t i = 0; i < index; ++i)
      offset +=
          12 + static_cast<int64_t>(EncodeJournalRecord(records[i]).size());
    offset +=
        12 + static_cast<int64_t>(EncodeJournalRecord(records[index]).size()) / 2;
    fs::remove_all(scratch);
    fs::copy(dir, scratch, fs::copy_options::recursive);
    std::fstream flip(JournalPath(scratch),
                      std::ios::in | std::ios::out | std::ios::binary);
    flip.seekg(offset);
    const char byte = static_cast<char>(flip.get());
    flip.seekp(offset);
    flip.put(static_cast<char>(byte ^ 0x20));
    flip.close();

    DurableShard restarted(dataset, scratch, /*checkpoint_every_ticks=*/3);
    auto report = restarted.control.RecoverFromDurable();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report.value().size(), 1u);
    EXPECT_EQ(report.value()[0].tick, expected_tick);
    EXPECT_EQ(FrameBytes(*restarted.server.FindRoom(8)),
              states_by_tick[static_cast<size_t>(expected_tick)]);
    EXPECT_EQ(restarted.server.metrics().data_loss_rooms.load(), 0);
  }
}

TEST(DurabilityManagerTest, RecoveryAfterRecoveryStillFoldsCorrectly) {
  // Crash, recover, tick a bit, crash again: the second recovery folds
  // the first recovery's re-journaled assign + fresh checkpoint with the
  // new ticks. This is the double-crash trap a naive reset flag fails.
  const std::string dir = ScratchDir("recover_twice");
  const Dataset dataset = SmallDataset();
  {
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/1000);
    ASSERT_TRUE(shard.control.Assign(0, 4, "", /*primary=*/true).ok());
    for (int i = 0; i < 3; ++i) shard.server.TickAll();
  }
  std::string expected_state;
  {
    DurableShard middle(dataset, dir, /*checkpoint_every_ticks=*/1000);
    auto report = middle.control.RecoverFromDurable();
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report.value().size(), 1u);
    for (int i = 0; i < 4; ++i) middle.server.TickAll();
    expected_state = FrameBytes(*middle.server.FindRoom(0));
  }
  DurableShard last(dataset, dir, /*checkpoint_every_ticks=*/1000);
  auto report = last.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().size(), 1u);
  EXPECT_EQ(report.value()[0].tick, 7);
  EXPECT_EQ(FrameBytes(*last.server.FindRoom(0)), expected_state);
}

TEST(DurabilityManagerTest, FuzzedDurableDirNeverCrashesRecovery) {
  // The blanket robustness sweep: corrupt either durable file with
  // either fault, every trial from a pristine copy. Recovery must never
  // crash and never fabricate state — each report entry is either
  // bit-exact with some tick prefix of the original run or absent.
  const std::string dir = ScratchDir("recover_fuzz");
  const Dataset dataset = SmallDataset();
  std::vector<std::string> states_by_tick;  // FrameBytes per tick count
  {
    auto oracle = FactoryFor(&dataset)(1).value();
    states_by_tick.push_back(FrameBytes(*oracle));
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(oracle->Tick().ok());
      states_by_tick.push_back(FrameBytes(*oracle));
    }
  }
  {
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/3);
    ASSERT_TRUE(shard.control.Assign(1, 6, "", /*primary=*/true).ok());
    for (int i = 0; i < 6; ++i) shard.server.TickAll();
  }
  const std::string scratch = ScratchDir("recover_fuzz_scratch");
  Rng rng(123);
  int recovered = 0;
  for (int trial = 0; trial < 40; ++trial) {
    fs::remove_all(scratch);
    fs::copy(dir, scratch, fs::copy_options::recursive);
    std::vector<std::string> victims;
    for (const auto& entry : fs::directory_iterator(scratch))
      victims.push_back(entry.path().string());
    const std::string& victim =
        victims[static_cast<size_t>(rng.UniformInt(
            static_cast<int>(victims.size())))];
    if (rng.UniformInt(2) == 0) {
      ASSERT_TRUE(testing::FlipRandomByte(victim, rng).ok());
    } else {
      const int64_t size = static_cast<int64_t>(fs::file_size(victim));
      ASSERT_TRUE(
          testing::TruncateFileTail(victim, rng.UniformInt(size) ).ok());
    }
    DurableShard shard(dataset, scratch, /*checkpoint_every_ticks=*/3);
    auto report = shard.control.RecoverFromDurable();
    ASSERT_TRUE(report.ok()) << "trial=" << trial << ": "
                             << report.status().ToString();
    // An empty report (e.g. the journal header took the flip) is a
    // legitimate outcome — the room restarts fresh when re-granted.
    if (report.value().empty()) continue;
    ++recovered;
    ASSERT_EQ(report.value().size(), 1u);
    const int tick = report.value()[0].tick;
    ASSERT_GE(tick, 0);
    ASSERT_LT(tick, static_cast<int>(states_by_tick.size()));
    EXPECT_EQ(FrameBytes(*shard.server.FindRoom(1)), states_by_tick[tick])
        << "trial=" << trial << " tick=" << tick;
  }
  EXPECT_GT(recovered, 0);
}

// ---------------------------------------------------------------------------
// Router-coordinated cold restart over real TCP shards.

struct DurablePartitionShard {
  DurablePartitionShard(const Dataset& dataset, const std::string& dir)
      : shard(dataset, dir) {
    net = std::make_unique<NetServer>(NetServer::HandlerFor(&shard.server),
                                      NetServerOptions{});
    net->set_room_control(NetServer::ControlFor(&shard.control));
    const Status started = net->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~DurablePartitionShard() { net->Shutdown(); }

  BackendAddress address() const { return {"127.0.0.1", net->port()}; }

  DurableShard shard;
  std::unique_ptr<NetServer> net;
};

TEST(RecoverPartitionTest, ColdRestartReconcilesAndServesBitExact) {
  const Dataset dataset = SmallDataset();
  const int kShards = 3, kRooms = 6;
  std::vector<std::string> dirs;
  for (int s = 0; s < kShards; ++s)
    dirs.push_back(ScratchDir("fleet_shard" + std::to_string(s)));

  std::unordered_map<int, std::string> expected;  // room -> primary state
  {
    std::vector<std::unique_ptr<DurablePartitionShard>> shards;
    std::vector<BackendAddress> addresses;
    for (int s = 0; s < kShards; ++s) {
      shards.push_back(
          std::make_unique<DurablePartitionShard>(dataset, dirs[s]));
      addresses.push_back(shards.back()->address());
    }
    RouterOptions options;
    options.replication_factor = 1;
    ShardRouter router(addresses, options);
    ASSERT_TRUE(router.EnablePartition(kRooms).ok());
    for (int i = 0; i < 5; ++i)
      for (auto& shard : shards) shard->shard.server.TickAll();
    for (const auto& [room, assignment] : router.AssignmentSnapshot())
      expected[room] = FrameBytes(
          *shards[assignment.copies[0]]->shard.server.FindRoom(room));
    router.Shutdown();
  }  // the whole fleet dies

  // Cold restart: new shard processes over the old durable dirs, new
  // router told to recover instead of granting fresh.
  std::vector<std::unique_ptr<DurablePartitionShard>> shards;
  std::vector<BackendAddress> addresses;
  for (int s = 0; s < kShards; ++s) {
    shards.push_back(
        std::make_unique<DurablePartitionShard>(dataset, dirs[s]));
    ASSERT_TRUE(shards.back()->shard.control.RecoverFromDurable().ok());
    addresses.push_back(shards.back()->address());
  }
  RouterOptions options;
  options.replication_factor = 1;
  ShardRouter router(addresses, options);
  const Status recovered = router.RecoverPartition(kRooms);
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();

  // Zero lost rooms, and every survivor is bit-exact with what the
  // pre-crash primary last had (tick, positions and goals: the whole
  // encoded frame).
  const auto assignment = router.AssignmentSnapshot();
  ASSERT_EQ(assignment.size(), static_cast<size_t>(kRooms));
  for (const auto& [room, entry] : assignment) {
    auto hosted = shards[entry.copies[0]]->shard.server.FindRoom(room);
    ASSERT_NE(hosted, nullptr) << "room " << room;
    EXPECT_EQ(FrameBytes(*hosted), expected.at(room)) << "room " << room;
    const FriendResponse response =
        router.Route({.room = room, .user = 1, .deadline_ms = -1.0});
    EXPECT_TRUE(response.status.ok())
        << "room " << room << ": " << response.status.ToString();
  }
  EXPECT_EQ(router.metrics().recovered_rooms.load(), kRooms);
  // replication 1 means every room also had a standby replica; the
  // reconciliation released those stale copies.
  EXPECT_GT(router.metrics().discarded_replicas.load(), 0);
  router.Shutdown();
}

TEST(RecoverPartitionTest, LostShardsAreReGrantedFresh) {
  const Dataset dataset = SmallDataset();
  const int kRooms = 4;
  const std::string dir0 = ScratchDir("regrant_shard0");
  const std::string dir1 = ScratchDir("regrant_shard1");
  {
    std::vector<std::unique_ptr<DurablePartitionShard>> shards;
    shards.push_back(std::make_unique<DurablePartitionShard>(dataset, dir0));
    shards.push_back(std::make_unique<DurablePartitionShard>(dataset, dir1));
    std::vector<BackendAddress> addresses = {shards[0]->address(),
                                             shards[1]->address()};
    ShardRouter router(addresses, RouterOptions{});
    ASSERT_TRUE(router.EnablePartition(kRooms).ok());
    for (int i = 0; i < 3; ++i)
      for (auto& shard : shards) shard->shard.server.TickAll();
    router.Shutdown();
  }
  // Shard 1's disk is wiped (total data loss on that machine).
  fs::remove_all(dir1);
  fs::create_directories(dir1);

  std::vector<std::unique_ptr<DurablePartitionShard>> shards;
  shards.push_back(std::make_unique<DurablePartitionShard>(dataset, dir0));
  shards.push_back(std::make_unique<DurablePartitionShard>(dataset, dir1));
  for (auto& shard : shards)
    ASSERT_TRUE(shard->shard.control.RecoverFromDurable().ok());
  std::vector<BackendAddress> addresses = {shards[0]->address(),
                                           shards[1]->address()};
  ShardRouter router(addresses, RouterOptions{});
  ASSERT_TRUE(router.RecoverPartition(kRooms).ok());

  // Every room is owned and serves: the survivors from shard 0's disk at
  // their recovered ticks, the wiped ones re-granted fresh at tick 0.
  const auto assignment = router.AssignmentSnapshot();
  ASSERT_EQ(assignment.size(), static_cast<size_t>(kRooms));
  int fresh = 0;
  for (const auto& [room, entry] : assignment) {
    auto hosted = shards[entry.copies[0]]->shard.server.FindRoom(room);
    ASSERT_NE(hosted, nullptr) << "room " << room;
    if (hosted->tick() == 0) ++fresh;
    const FriendResponse response =
        router.Route({.room = room, .user = 1, .deadline_ms = -1.0});
    EXPECT_TRUE(response.status.ok()) << "room " << room;
  }
  EXPECT_GT(fresh, 0);  // the wiped shard's rooms restarted
  EXPECT_LT(fresh, kRooms) << "recovered rooms were thrown away";
  router.Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace after
