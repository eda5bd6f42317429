#include "serve/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "baselines/nearest_recommender.h"
#include "common/rng.h"
#include "gtest/gtest.h"
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

Dataset SmallDataset(int num_users = 16, int num_steps = 8) {
  DatasetConfig config;
  config.num_users = num_users;
  config.num_steps = num_steps;
  config.num_sessions = 2;
  config.seed = 654;
  return GenerateTimikLike(config);
}

RoomFactory FactoryFor(const Dataset* dataset) {
  return [dataset](int r) -> Result<std::unique_ptr<Room>> {
    Room::Options options;
    options.id = r;
    options.mode = Room::Mode::kLive;
    options.seed = 900 + r;
    return Room::Create(options, dataset);
  };
}

ServerOptions TestServerOptions() {
  ServerOptions options;
  options.num_threads = 2;
  options.default_deadline_ms = -1.0;
  return options;
}

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

void ExpectSamePositions(const std::vector<Vec2>& want,
                         const std::vector<Vec2>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].x, got[i].x) << "user " << i;  // bit-exact, not near
    EXPECT_EQ(want[i].y, got[i].y) << "user " << i;
  }
}

JournalRecord SampleTick(int room, int tick) {
  JournalRecord record;
  record.type = JournalRecord::Type::kTick;
  record.room = room;
  record.tick = tick;
  record.positions = {{1.5, -2.25}, {0.0, 3.125}};
  record.goals = {{-4.0, 0.5}, {2.0, 2.0}};
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
  EXPECT_EQ(tick_decoded.value().tick, 812);
  ASSERT_EQ(tick_decoded.value().positions.size(), 2u);
  EXPECT_EQ(tick_decoded.value().positions[0].x, 1.5);
  EXPECT_EQ(tick_decoded.value().positions[1].y, 3.125);
  ASSERT_EQ(tick_decoded.value().goals.size(), 2u);
  EXPECT_EQ(tick_decoded.value().goals[0].x, -4.0);
}

TEST(JournalRecordTest, TruncatedPayloadsFailDecodeAllOrNothing) {
  const std::string payload = EncodeJournalRecord(SampleTick(1, 2));
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(
        DecodeJournalRecord(std::string_view(payload).substr(0, cut)).ok())
        << "cut=" << cut;
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
    EXPECT_EQ(replay.value().records[i].tick, i);
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
  {
    auto journal = Journal::Open(path, /*fsync_each=*/false);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 3; ++i)
      ASSERT_TRUE(journal.value()->Append(SampleTick(0, i)).ok());
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
  for (int i = 0; i < 3; ++i)
    boundaries.push_back(
        boundaries.back() + 12 +
        static_cast<int64_t>(EncodeJournalRecord(SampleTick(0, i)).size()));
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
      EXPECT_EQ(replay.value().records[i].tick, static_cast<int>(i))
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
      const JournalRecord record = SampleTick(1, i);
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
  for (int trial = 0; trial < 300; ++trial) {
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
// Checkpoints.

TEST(CheckpointTest, RoundTripRestoresTheRoomBitExact) {
  const std::string dir = ScratchDir("ckpt_roundtrip");
  const Dataset dataset = SmallDataset();
  const auto factory = FactoryFor(&dataset);
  auto donor = factory(3).value();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(donor->Tick().ok());

  RoomCheckpoint checkpoint;
  checkpoint.room = 3;
  checkpoint.epoch = 12;
  checkpoint.primary = true;
  checkpoint.tick = donor->tick();
  checkpoint.state = donor->ExportState();
  ASSERT_TRUE(WriteRoomCheckpoint(dir, checkpoint).ok());

  auto loaded = LoadRoomCheckpoint(CheckpointPath(dir, 3));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().room, 3);
  EXPECT_EQ(loaded.value().epoch, 12u);
  EXPECT_TRUE(loaded.value().primary);
  EXPECT_EQ(loaded.value().tick, 5);

  auto receiver = factory(3).value();
  ASSERT_TRUE(receiver->ApplyState(loaded.value().state).ok());
  EXPECT_EQ(receiver->tick(), donor->tick());
  ExpectSamePositions(donor->snapshot()->positions(),
                      receiver->snapshot()->positions());
}

TEST(CheckpointTest, MissingIsNotFoundAndCorruptIsDataLoss) {
  const std::string dir = ScratchDir("ckpt_corrupt");
  EXPECT_EQ(LoadRoomCheckpoint(CheckpointPath(dir, 9)).status().code(),
            StatusCode::kNotFound);

  const Dataset dataset = SmallDataset();
  auto room = FactoryFor(&dataset)(0).value();
  RoomCheckpoint checkpoint;
  checkpoint.room = 0;
  checkpoint.epoch = 1;
  checkpoint.tick = 0;
  checkpoint.state = room->ExportState();
  ASSERT_TRUE(WriteRoomCheckpoint(dir, checkpoint).ok());

  // Every single-byte flip must be caught by the container checksum (or
  // the structural validation behind it) and surface as kDataLoss —
  // never crash, never hand back silently different state.
  const std::string path = CheckpointPath(dir, 0);
  Rng rng(31);
  for (int trial = 0; trial < 60; ++trial) {
    ASSERT_TRUE(WriteRoomCheckpoint(dir, checkpoint).ok());
    ASSERT_TRUE(testing::FlipRandomByte(path, rng).ok());
    auto loaded = LoadRoomCheckpoint(path);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << loaded.status().ToString();
    } else {
      // A flip that survives the checksum can only be a same-value
      // rewrite; the state must be untouched.
      EXPECT_EQ(loaded.value().state, checkpoint.state) << "trial=" << trial;
    }
  }
}

TEST(CheckpointTest, ListingSkipsTempLeftoversOfInterruptedWrites) {
  const std::string dir = ScratchDir("ckpt_listing");
  const Dataset dataset = SmallDataset();
  auto room = FactoryFor(&dataset)(4).value();
  RoomCheckpoint checkpoint;
  checkpoint.room = 4;
  checkpoint.epoch = 1;
  checkpoint.state = room->ExportState();
  ASSERT_TRUE(WriteRoomCheckpoint(dir, checkpoint).ok());
  // A crash mid-write leaves a ".tmp" orphan; it must never be mistaken
  // for a checkpoint.
  std::ofstream(dir + "/room-7.ckpt.tmp") << "half-written garbage";
  std::ofstream(dir + "/notes.txt") << "unrelated";
  const std::vector<int> rooms = ListCheckpointRooms(dir);
  ASSERT_EQ(rooms.size(), 1u);
  EXPECT_EQ(rooms[0], 4);
}

// ---------------------------------------------------------------------------
// DurabilityManager + ShardControl: the full crash/recover cycle.

/// One durable partitioned shard, restartable in place: the shape of
/// tools/serve_shard --partitioned --durable_dir, addressable from a
/// unit test. Destroying it and constructing a new one over the same
/// directory is the crash + cold restart.
struct DurableShard {
  DurableShard(const Dataset& dataset, const std::string& dir,
               int checkpoint_every_ticks = 256,
               int64_t journal_rotate_bytes = 8 << 20)
      : server({}, [] { return std::make_unique<NearestRecommender>(5); },
               TestServerOptions()),
        control(&server, FactoryFor(&dataset)) {
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
    expected_state = shard.server.FindRoom(3)->ExportState();
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
  EXPECT_EQ(room->ExportState(), expected_state);  // tick + positions +
                                                   // goals + window
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
    expected_state = shard.server.FindRoom(0)->ExportState();
  }
  ASSERT_EQ(ListCheckpointRooms(dir).size(), 1u);

  DurableShard restarted(dataset, dir);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().size(), 1u);
  EXPECT_EQ(report.value()[0].tick, 10);
  EXPECT_EQ(restarted.server.FindRoom(0)->ExportState(), expected_state);
}

TEST(DurabilityManagerTest, MigratedInStateIsCheckpointedOnArrival) {
  const std::string dir = ScratchDir("recover_migration");
  const Dataset dataset = SmallDataset();
  // A donor (not durable) hands a ticked room over; the receiving shard
  // must be able to recover it even though it never ticked it itself —
  // the migration blob exists nowhere else durable.
  auto donor = FactoryFor(&dataset)(5).value();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(donor->Tick().ok());
  const std::string blob = donor->ExportState();
  {
    DurableShard shard(dataset, dir);
    ASSERT_TRUE(shard.control.Assign(5, 9, blob, /*primary=*/true).ok());
  }  // crash before any tick

  DurableShard restarted(dataset, dir);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().size(), 1u);
  EXPECT_EQ(report.value()[0].tick, 4);
  EXPECT_EQ(restarted.server.FindRoom(5)->ExportState(), blob);
}

TEST(DurabilityManagerTest, ReleasedRoomsStayDead) {
  const std::string dir = ScratchDir("recover_release");
  const Dataset dataset = SmallDataset();
  {
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/2);
    ASSERT_TRUE(shard.control.Assign(1, 1, "", /*primary=*/true).ok());
    for (int i = 0; i < 5; ++i) shard.server.TickAll();
    ASSERT_TRUE(shard.control.Release(1, 2).ok());
  }
  // The release deleted the checkpoint and journaled the revocation:
  // restart recovers nothing — the router moved this room elsewhere and
  // resurrecting it here would split-brain the fleet.
  EXPECT_TRUE(ListCheckpointRooms(dir).empty());
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
  // checkpoint cadence stays out of the way, so every checkpoint below
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
    int64_t before = journal.bytes();
    for (int i = 0; i < 64 && rotations < 2; ++i) {
      shard.server.TickAll();
      const int64_t after = journal.bytes();
      if (after < before) {
        ++rotations;
        // Rotation empties the journal down to its header.
        EXPECT_EQ(after, static_cast<int64_t>(kJournalHeaderBytes));
        EXPECT_EQ(static_cast<int64_t>(fs::file_size(JournalPath(dir))),
                  after);
      }
      // A journal past the threshold never outlives the tick that
      // crossed it.
      EXPECT_LE(after, kRotateBytes);
      before = after;
    }
    ASSERT_EQ(rotations, 2);
    EXPECT_EQ(shard.server.metrics().errors.load(), 0);
    // Leave a journal tail after the last rotation to replay.
    for (int i = 0; i < 3; ++i) shard.server.TickAll();
    EXPECT_GT(journal.bytes(), static_cast<int64_t>(kJournalHeaderBytes));
    expected_state = shard.server.FindRoom(2)->ExportState();
  }  // crash
  EXPECT_EQ(ListCheckpointRooms(dir), std::vector<int>{2});

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
  EXPECT_EQ(restarted.server.FindRoom(2)->ExportState(), expected_state);
}

TEST(DurabilityManagerTest, CrashBetweenReleaseJournalAndCheckpointDelete) {
  // The WAL-ordering window: the release record is journaled + synced,
  // then the process dies BEFORE fs::remove(checkpoint). The orphan
  // checkpoint must not resurrect the room.
  const std::string dir = ScratchDir("recover_orphan_ckpt");
  const Dataset dataset = SmallDataset();
  {
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/2);
    ASSERT_TRUE(shard.control.Assign(6, 3, "", /*primary=*/true).ok());
    for (int i = 0; i < 4; ++i) shard.server.TickAll();
    // Reproduce the crash window by hand: journal the release record the
    // way RecordRelease does, but "die" before the checkpoint delete.
    JournalRecord release;
    release.type = JournalRecord::Type::kRelease;
    release.room = 6;
    release.epoch = 4;
    ASSERT_TRUE(shard.durability->journal().Append(release).ok());
  }
  ASSERT_EQ(ListCheckpointRooms(dir).size(), 1u);  // the orphan survives

  DurableShard restarted(dataset, dir);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().empty()) << "orphan checkpoint resurrected";
  EXPECT_FALSE(restarted.control.Owns(6));
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
  EXPECT_EQ(restarted.server.FindRoom(2)->ExportState(),
            expected->ExportState());
}

TEST(DurabilityManagerTest, CorruptJournalHeaderIsDataLossNotACrash) {
  const std::string dir = ScratchDir("recover_bad_header");
  const Dataset dataset = SmallDataset();
  {
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/2);
    ASSERT_TRUE(shard.control.Assign(4, 1, "", /*primary=*/true).ok());
    for (int i = 0; i < 4; ++i) shard.server.TickAll();
  }
  std::fstream flip(JournalPath(dir),
                    std::ios::in | std::ios::out | std::ios::binary);
  flip.seekp(0);
  flip.put('X');
  flip.close();

  // Open survives (the corrupt journal is moved aside for post-mortem),
  // and recovery comes back empty: without the ownership ledger the
  // orphaned checkpoint cannot be trusted — counted as data loss, and
  // the router will re-grant the room fresh.
  DurableShard restarted(dataset, dir);
  EXPECT_TRUE(fs::exists(JournalPath(dir) + ".corrupt"));
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().empty());
  EXPECT_GE(restarted.server.metrics().data_loss_rooms.load(), 1);
}

TEST(DurabilityManagerTest, CorruptCheckpointFallsBackToFullReplay) {
  const std::string dir = ScratchDir("recover_bad_ckpt");
  const Dataset dataset = SmallDataset();
  std::string expected_state;
  {
    DurableShard shard(dataset, dir, /*checkpoint_every_ticks=*/3);
    ASSERT_TRUE(shard.control.Assign(8, 2, "", /*primary=*/true).ok());
    for (int i = 0; i < 7; ++i) shard.server.TickAll();
    expected_state = shard.server.FindRoom(8)->ExportState();
  }
  // Rot the checkpoint. The journal still holds every tick since the
  // (reset) assign, so recovery degrades to factory + full replay and
  // still lands bit-exact.
  Rng rng(5);
  ASSERT_TRUE(
      testing::FlipRandomByte(CheckpointPath(dir, 8), rng).ok());

  DurableShard restarted(dataset, dir, /*checkpoint_every_ticks=*/3);
  auto report = restarted.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().size(), 1u);
  EXPECT_EQ(report.value()[0].tick, 7);
  EXPECT_EQ(restarted.server.FindRoom(8)->ExportState(), expected_state);
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
    expected_state = middle.server.FindRoom(0)->ExportState();
  }
  DurableShard last(dataset, dir, /*checkpoint_every_ticks=*/1000);
  auto report = last.control.RecoverFromDurable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().size(), 1u);
  EXPECT_EQ(report.value()[0].tick, 7);
  EXPECT_EQ(last.server.FindRoom(0)->ExportState(), expected_state);
}

TEST(DurabilityManagerTest, FuzzedDurableDirNeverCrashesRecovery) {
  // The blanket robustness sweep: corrupt either durable file with
  // either fault, every trial from a pristine copy. Recovery must never
  // crash and never fabricate state — each report entry is either
  // bit-exact with some tick prefix of the original run or absent.
  const std::string dir = ScratchDir("recover_fuzz");
  const Dataset dataset = SmallDataset();
  std::vector<std::string> states_by_tick;  // ExportState per tick count
  {
    auto oracle = FactoryFor(&dataset)(1).value();
    states_by_tick.push_back(oracle->ExportState());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(oracle->Tick().ok());
      states_by_tick.push_back(oracle->ExportState());
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
    EXPECT_EQ(shard.server.FindRoom(1)->ExportState(), states_by_tick[tick])
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
      expected[room] = shards[assignment.copies[0]]
                           ->shard.server.FindRoom(room)
                           ->ExportState();
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
  // pre-crash primary last had (tick, positions, goals, window — the
  // whole ExportState blob).
  const auto assignment = router.AssignmentSnapshot();
  ASSERT_EQ(assignment.size(), static_cast<size_t>(kRooms));
  for (const auto& [room, entry] : assignment) {
    auto hosted = shards[entry.copies[0]]->shard.server.FindRoom(room);
    ASSERT_NE(hosted, nullptr) << "room " << room;
    EXPECT_EQ(hosted->ExportState(), expected.at(room)) << "room " << room;
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
