#include "serve/shard_control.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "partition_fleet.h"
#include "serve/codec.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/room.h"
#include "serve/router.h"
#include "serve/server.h"

namespace after {
namespace serve {
namespace {

// ---------------------------------------------------------------------------
// Room state: the tick frame a migration carries.

/// What a shard does with migrated bytes (ShardControl::Assign): decode
/// the frame, then restore it.
Status RestoreBytes(Room* room, std::string_view bytes) {
  Result<TickFrame> frame = DecodeTickFrame(bytes);
  if (!frame.ok()) return frame.status();
  return room->Restore(frame.value());
}

TEST(RoomStateTest, ExportApplyRoundTripIsBitExact) {
  const Dataset dataset = SmallDataset();
  const auto factory = FactoryFor(&dataset);
  auto donor = factory(3).value();
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(donor->Tick().ok());
  const std::string bytes = FrameBytes(*donor);
  // 12 header bytes, then 16 per position and 16 per goal.
  EXPECT_EQ(bytes.size(), 12u + 32u * donor->num_users());

  auto receiver = factory(3).value();
  const Status applied = RestoreBytes(receiver.get(), bytes);
  ASSERT_TRUE(applied.ok()) << applied.ToString();

  EXPECT_EQ(receiver->tick(), donor->tick());
  ExpectSamePositions(donor->snapshot()->positions(),
                      receiver->snapshot()->positions());
  EXPECT_EQ(FrameBytes(*receiver), bytes);  // goals included
}

TEST(RoomStateTest, MigratedRoomKeepsTickingAfterApply) {
  const Dataset dataset = SmallDataset();
  const auto factory = FactoryFor(&dataset);
  auto donor = factory(0).value();
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(donor->Tick().ok());

  auto receiver = factory(0).value();
  ASSERT_TRUE(receiver->Restore(donor->CurrentTickFrame()).ok());
  // The handoff is a resume point, not a freeze: the new owner keeps
  // simulating from the donor's state.
  ASSERT_TRUE(receiver->Tick().ok());
  EXPECT_EQ(receiver->tick(), 4);
  EXPECT_EQ(receiver->CurrentTickFrame().tick, 4);
}

TEST(RoomStateTest, RestoreIsAllOrNothing) {
  const Dataset dataset = SmallDataset();
  const auto factory = FactoryFor(&dataset);
  auto donor = factory(1).value();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(donor->Tick().ok());
  const std::string bytes = FrameBytes(*donor);

  auto receiver = factory(1).value();
  const std::vector<Vec2> fresh = receiver->snapshot()->positions();

  EXPECT_FALSE(RestoreBytes(receiver.get(), "not a tick frame").ok());
  // Every cut, down to the last byte, and one byte too many are refused
  // before any mutation happens.
  for (size_t cut = 0; cut < bytes.size(); ++cut)
    EXPECT_FALSE(
        RestoreBytes(receiver.get(), std::string_view(bytes).substr(0, cut))
            .ok())
        << "cut=" << cut;
  EXPECT_FALSE(RestoreBytes(receiver.get(), bytes + '\0').ok());

  EXPECT_EQ(receiver->tick(), 0);
  ExpectSamePositions(fresh, receiver->snapshot()->positions());

  // And the untouched room still accepts the intact frame.
  ASSERT_TRUE(RestoreBytes(receiver.get(), bytes).ok());
  EXPECT_EQ(receiver->tick(), donor->tick());
  EXPECT_EQ(FrameBytes(*receiver), bytes);
}

/// `frame` with one edit applied.
template <typename Edit>
TickFrame With(TickFrame frame, Edit edit) {
  edit(&frame);
  return frame;
}

TEST(RoomStateTest, ApplyStateRejectsWellFormedBlobsOfTheWrongShape) {
  const Dataset dataset = SmallDataset();  // 16 users, 8 steps
  auto live = FactoryFor(&dataset)(2).value();
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(live->Tick().ok());
  Room::Options replay_options;
  replay_options.id = 2;
  replay_options.mode = Room::Mode::kReplay;
  auto replay = Room::Create(replay_options, &dataset).value();
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(replay->Tick().ok());

  // Well-shaped frames one tick ahead, and variants that break one rule.
  // Each variant encodes and decodes cleanly, so only Room::Restore's
  // shape checks stand between the migrated bytes and the room.
  const TickFrame live_next =
      With(live->CurrentTickFrame(), [](TickFrame* f) { f->tick = 3; });
  const TickFrame replay_next =
      With(replay->CurrentTickFrame(), [](TickFrame* f) { f->tick = 3; });
  ASSERT_TRUE(replay_next.goals.empty());
  struct Case {
    Room* room;
    TickFrame frame;
    const char* error;
  };
  const std::vector<Case> cases = {
      {live.get(),
       With(live_next, [](TickFrame* f) { f->positions.push_back({}); }),
       "user count mismatch"},
      {live.get(),
       With(live_next, [](TickFrame* f) { f->positions.pop_back(); }),
       "user count mismatch"},
      {live.get(), With(live_next, [](TickFrame* f) { f->goals.clear(); }),
       "goal count mismatch"},
      {live.get(), With(live_next, [](TickFrame* f) { f->tick = -1; }),
       "negative tick"},
      {replay.get(),
       With(replay_next, [&](TickFrame* f) { f->goals = live_next.goals; }),
       "goal count mismatch"},
      {replay.get(), With(replay_next, [](TickFrame* f) { f->tick = -1; }),
       "negative tick"},
      {replay.get(),
       With(replay_next,
            [&](TickFrame* f) {
              f->tick = dataset.sessions.back().num_steps();
            }),
       "tick beyond the replay session"},
  };
  for (const Case& bad : cases) {
    const std::string before = FrameBytes(*bad.room);
    const Status status = RestoreBytes(bad.room, Encoded(bad.frame));
    EXPECT_EQ(status.code(), StatusCode::kInvalidData) << status.ToString();
    EXPECT_NE(status.message().find(bad.error), std::string::npos)
        << status.ToString();
    EXPECT_EQ(FrameBytes(*bad.room), before) << bad.error;
  }

  // Only the shape was wrong: the well-shaped frames still apply.
  ASSERT_TRUE(RestoreBytes(live.get(), Encoded(live_next)).ok());
  EXPECT_EQ(live->tick(), 3);
  ASSERT_TRUE(RestoreBytes(replay.get(), Encoded(replay_next)).ok());
  EXPECT_EQ(replay->tick(), 3);
}

TEST(RoomStateTest, ApplyTickFrameRejectsFramesOfTheWrongShape) {
  const Dataset dataset = SmallDataset();
  auto room = FactoryFor(&dataset)(1).value();
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(room->Tick().ok());
  const TickFrame current = room->CurrentTickFrame();
  ASSERT_EQ(current.tick, 2);
  const std::vector<Vec2> before = room->snapshot()->positions();

  const TickFrame next = With(current, [](TickFrame* f) { ++f->tick; });
  struct Case {
    TickFrame frame;
    const char* error;
  };
  const std::vector<Case> cases = {
      {With(next, [](TickFrame* f) { f->positions.pop_back(); }),
       "user count mismatch"},
      {With(next, [](TickFrame* f) { f->goals.push_back({1.0, 1.0}); }),
       "goal count mismatch"},
  };
  for (const Case& bad : cases) {
    const Status status = room->Restore(bad.frame);
    EXPECT_EQ(status.code(), StatusCode::kInvalidData) << status.ToString();
    EXPECT_NE(status.message().find(bad.error), std::string::npos)
        << status.ToString();
    EXPECT_EQ(room->tick(), 2);
    ExpectSamePositions(before, room->snapshot()->positions());
  }

  // The well-shaped frame one tick ahead applies, and so does one at an
  // earlier tick: Restore takes any tick (an overwritten standby can be
  // ahead of its donor).
  ASSERT_TRUE(room->Restore(next).ok());
  EXPECT_EQ(room->tick(), 3);
  ASSERT_TRUE(
      room->Restore(With(current, [](TickFrame* f) { f->tick = 1; })).ok());
  EXPECT_EQ(room->tick(), 1);
}

// ---------------------------------------------------------------------------
// ShardControl: the shard-side ownership ledger.

struct ControlHarness {
  explicit ControlHarness(const Dataset& dataset)
      : server({}, [] { return std::make_unique<NearestRecommender>(5); },
               TestServerOptions()),
        control(&server, FactoryFor(&dataset)) {}

  RecommendationServer server;
  ShardControl control;
};

TEST(ShardControlTest, AssignOwnReleaseLifecycle) {
  const Dataset dataset = SmallDataset();
  ControlHarness shard(dataset);

  EXPECT_FALSE(shard.control.Owns(7));
  EXPECT_EQ(shard.control.EpochFor(7), 0u);
  EXPECT_EQ(shard.server.FindRoom(7), nullptr);

  const Status assigned = shard.control.Assign(7, 1, "");
  ASSERT_TRUE(assigned.ok()) << assigned.ToString();
  EXPECT_TRUE(shard.control.Owns(7));
  EXPECT_EQ(shard.control.EpochFor(7), 1u);
  EXPECT_NE(shard.server.FindRoom(7), nullptr);
  ASSERT_EQ(shard.server.RoomIds().size(), 1u);
  EXPECT_EQ(shard.server.RoomIds()[0], 7);

  auto released = shard.control.Release(7, 2);
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_FALSE(released.value().empty());  // the encoded tick frame
  EXPECT_FALSE(shard.control.Owns(7));
  EXPECT_EQ(shard.server.FindRoom(7), nullptr);  // un-owned is unhosted
  EXPECT_EQ(shard.control.EpochFor(7), 2u);      // remembered past release

  // Releasing a room we no longer own is the shard saying kNotOwner.
  EXPECT_EQ(shard.control.Release(7, 3).status().code(),
            StatusCode::kNotOwner);
}

TEST(ShardControlTest, StaleEpochsAreFenced) {
  const Dataset dataset = SmallDataset();
  ControlHarness shard(dataset);

  ASSERT_TRUE(shard.control.Assign(7, 5, "").ok());
  // A reordered duplicate or older grant must not clobber ownership.
  EXPECT_FALSE(shard.control.Assign(7, 5, "").ok());
  EXPECT_FALSE(shard.control.Assign(7, 4, "").ok());
  EXPECT_TRUE(shard.control.Owns(7));
  // A release staler than the active grant is likewise rejected.
  EXPECT_FALSE(shard.control.Release(7, 3).ok());
  EXPECT_TRUE(shard.control.Owns(7));

  ASSERT_TRUE(shard.control.Release(7, 6).ok());
  // The fence survives release: the router already moved this room on,
  // so a late grant from before the move must not resurrect ownership.
  EXPECT_FALSE(shard.control.Assign(7, 6, "").ok());
  EXPECT_FALSE(shard.control.Owns(7));
  ASSERT_TRUE(shard.control.Assign(7, 7, "").ok());
  EXPECT_TRUE(shard.control.Owns(7));
}

TEST(ShardControlTest, MigrationBlobRestoresDonorStateOnTheNewOwner) {
  const Dataset dataset = SmallDataset();
  ControlHarness donor(dataset);
  ControlHarness receiver(dataset);

  ASSERT_TRUE(donor.control.Assign(2, 1, "").ok());
  auto room = donor.server.FindRoom(2);
  ASSERT_NE(room, nullptr);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(room->Tick().ok());
  const std::vector<Vec2> donor_positions = room->snapshot()->positions();

  auto frame = donor.control.Release(2, 2);
  ASSERT_TRUE(frame.ok());
  const Status assigned = receiver.control.Assign(2, 3, frame.value());
  ASSERT_TRUE(assigned.ok()) << assigned.ToString();

  auto hosted = receiver.server.FindRoom(2);
  ASSERT_NE(hosted, nullptr);
  EXPECT_EQ(hosted->tick(), 4);
  ExpectSamePositions(donor_positions, hosted->snapshot()->positions());
  EXPECT_EQ(FrameBytes(*hosted), frame.value());
}

TEST(ShardControlTest, CorruptMigrationBlobLeavesShardUnchanged) {
  const Dataset dataset = SmallDataset();
  ControlHarness shard(dataset);

  EXPECT_FALSE(shard.control.Assign(4, 1, "definitely not a blob").ok());
  // All-or-nothing at the shard level too: no ownership, no hosted room.
  EXPECT_FALSE(shard.control.Owns(4));
  EXPECT_EQ(shard.server.FindRoom(4), nullptr);
  // The failed grant still burned its epoch (the router will retry with
  // a fresh one, never replay an old number).
  EXPECT_FALSE(shard.control.Assign(4, 1, "").ok());
  EXPECT_TRUE(shard.control.Assign(4, 2, "").ok());
}

// ---------------------------------------------------------------------------
// Partitioned fleet: router-driven ownership over real TCP shards.

TEST(PartitionTest, EveryRoomIsServedAndOwnershipIsBalanced) {
  PartitionFleet fleet(/*num_shards=*/3, /*rooms=*/9, /*replication=*/0);

  const auto assignment = fleet.router->AssignmentSnapshot();
  ASSERT_EQ(assignment.size(), 9u);
  int hosted_total = 0;
  for (const auto& shard : fleet.shards)
    hosted_total += static_cast<int>(shard->server.RoomIds().size());
  // replication 0: every room lives on exactly one shard — the whole
  // point of partitioning (per-shard memory is rooms/N, not rooms).
  EXPECT_EQ(hosted_total, 9);
  for (const auto& [backend, primaries] : fleet.PrimaryCounts())
    EXPECT_EQ(primaries, 3) << "backend " << backend;

  for (int room = 0; room < 9; ++room) {
    const FriendResponse response = fleet.Route(room, room % 16);
    ASSERT_TRUE(response.status.ok())
        << "room " << room << ": " << response.status.ToString();
  }
  EXPECT_EQ(fleet.router->metrics().exhausted.load(), 0);
}

TEST(PartitionTest, ReplicationKeepsAWarmStandbyPerRoom) {
  PartitionFleet fleet(/*num_shards=*/3, /*rooms=*/6, /*replication=*/1);
  for (const auto& [room, assignment] : fleet.router->AssignmentSnapshot()) {
    ASSERT_EQ(assignment.copies.size(), 2u) << "room " << room;
    EXPECT_NE(assignment.copies[0], assignment.copies[1]) << "room " << room;
    // Both copies really are hosted on their shards.
    for (const int backend : assignment.copies) {
      EXPECT_TRUE(fleet.shards[backend]->control.Owns(room))
          << "room " << room << " backend " << backend;
      EXPECT_NE(fleet.shards[backend]->server.FindRoom(room), nullptr);
    }
  }
}

TEST(PartitionTest, NonOwnerAnswersNotOwnerOnTheWire) {
  PartitionFleet fleet(/*num_shards=*/2, /*rooms=*/4, /*replication=*/0);
  const auto assignment = fleet.router->AssignmentSnapshot();
  const int owner = assignment.at(0).copies[0];
  const int other = 1 - owner;

  auto client = NetClient::Connect("127.0.0.1", fleet.shards[other]->net->port());
  ASSERT_TRUE(client.ok());
  auto response =
      client.value()->Call({.room = 0, .user = 1, .deadline_ms = -1.0});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // A healthy shard asked for a room it does not own: kNotOwner travels
  // the wire as a first-class answer, not a transport failure.
  EXPECT_EQ(response.value().status.code(), StatusCode::kNotOwner);

  // The owner itself answers normally.
  auto direct = NetClient::Connect("127.0.0.1", fleet.shards[owner]->net->port());
  ASSERT_TRUE(direct.ok());
  auto owned = direct.value()->Call({.room = 0, .user = 1, .deadline_ms = -1.0});
  ASSERT_TRUE(owned.ok());
  EXPECT_TRUE(owned.value().status.ok()) << owned.value().status.ToString();
}

TEST(PartitionTest, RouterRedirectsNotOwnerToTheStandby) {
  PartitionFleet fleet(/*num_shards=*/2, /*rooms=*/4, /*replication=*/1);
  const auto assignment = fleet.router->AssignmentSnapshot();
  const int primary = assignment.at(0).copies[0];

  // Yank room 0 from its primary behind the router's back — the shard
  // now answers kNotOwner while the router's table still lists it first.
  ASSERT_TRUE(
      fleet.shards[primary]->control.Release(0, assignment.at(0).epoch + 1)
          .ok());

  const int64_t redirects_before = fleet.router->metrics().not_owner.load();
  const FriendResponse response = fleet.Route(0, 1);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_GE(fleet.router->metrics().not_owner.load(), redirects_before + 1);
  // Nobody was ejected: kNotOwner is an ownership miss, not a failure.
  EXPECT_EQ(fleet.router->metrics().ejections.load(), 0);
}

TEST(PartitionTest, RoomWithNoOwnerLeftIsRetriedThenUnavailable) {
  PartitionFleet fleet(/*num_shards=*/2, /*rooms=*/4, /*replication=*/0);
  const auto room0 = fleet.router->AssignmentSnapshot().at(0);
  PartitionShard& owner = *fleet.shards[room0.copies[0]];

  // Room 0's only owner drops it behind the router's back and nothing
  // repairs the table: every round finds its one owner answering
  // kNotOwner.
  ASSERT_TRUE(owner.control.Release(0, room0.epoch + 1).ok());

  // The router re-reads the table for a while, as it would for a
  // migration about to settle, then gives up; a healthy shard that only
  // disowned a room is not ejected.
  const FriendResponse response = fleet.Route(0, 1);
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable)
      << response.status.ToString();
  EXPECT_GT(fleet.router->metrics().not_owner.load(), 1);
  EXPECT_EQ(fleet.router->metrics().exhausted.load(), 1);
  EXPECT_EQ(fleet.router->metrics().ejections.load(), 0);
}

TEST(PartitionTest, AddBackendLiveRebalancesWithStateHandoff) {
  PartitionFleet fleet(/*num_shards=*/2, /*rooms=*/8, /*replication=*/0);

  // Advance every room a few ticks so a migrated room provably carries
  // state (a fresh rebuild would restart at tick 0).
  const auto before = fleet.router->AssignmentSnapshot();
  for (const auto& [room, assignment] : before) {
    auto hosted = fleet.shards[assignment.copies[0]]->server.FindRoom(room);
    ASSERT_NE(hosted, nullptr) << "room " << room;
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(hosted->Tick().ok());
  }

  auto newcomer = std::make_unique<PartitionShard>(fleet.dataset);
  auto added = fleet.router->AddBackendLive(newcomer->address());
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(added.value(), 2);

  // The newcomer took its share of primaries (ceil caps keep the spread
  // within one room of even) via release -> state -> assign handoffs.
  const auto counts = fleet.PrimaryCounts();
  EXPECT_GE(counts.at(2), 2);
  for (const auto& [backend, primaries] : counts) {
    EXPECT_LE(primaries, 3) << "backend " << backend;
    EXPECT_GE(primaries, 2) << "backend " << backend;
  }
  EXPECT_GT(fleet.router->metrics().migrations.load(), 0);

  // Every room still serves, from a replica that resumed at tick 3 —
  // migrated rooms inherited the donor's state, unmoved rooms kept it.
  fleet.shards.push_back(std::move(newcomer));
  for (const auto& [room, assignment] : fleet.router->AssignmentSnapshot()) {
    auto hosted = fleet.shards[assignment.copies[0]]->server.FindRoom(room);
    ASSERT_NE(hosted, nullptr) << "room " << room;
    EXPECT_EQ(hosted->tick(), 3) << "room " << room;
    const FriendResponse response = fleet.Route(room, 2);
    ASSERT_TRUE(response.status.ok())
        << "room " << room << ": " << response.status.ToString();
  }
}

TEST(PartitionTest, KilledPrimaryFailsOverToABitExactStandby) {
  PartitionFleet fleet(/*num_shards=*/3, /*rooms=*/6, /*replication=*/1);
  const auto assignment = fleet.router->AssignmentSnapshot();
  const int victim_room = 0;
  const int primary = assignment.at(victim_room).copies[0];
  const int standby = assignment.at(victim_room).copies[1];

  // Tick both replicas in lockstep (the fleet invariant: same factory
  // seed + same tick count => bit-identical rooms), then remember the
  // primary's scene.
  auto primary_room = fleet.shards[primary]->server.FindRoom(victim_room);
  auto standby_room = fleet.shards[standby]->server.FindRoom(victim_room);
  ASSERT_NE(primary_room, nullptr);
  ASSERT_NE(standby_room, nullptr);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(primary_room->Tick().ok());
    ASSERT_TRUE(standby_room->Tick().ok());
  }
  const std::vector<Vec2> last_served = primary_room->snapshot()->positions();

  fleet.shards[primary]->net->Shutdown();
  fleet.router->ProbeAll();
  EXPECT_GT(fleet.router->RepairPartition(), 0);

  // The standby was promoted in place: no state was sent, it keeps
  // serving its own replica — bit-exact with what the primary last had.
  const auto repaired = fleet.router->AssignmentSnapshot();
  EXPECT_EQ(repaired.at(victim_room).copies[0], standby);
  ExpectSamePositions(last_served, standby_room->snapshot()->positions());

  const FriendResponse response = fleet.Route(victim_room, 1);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_GE(fleet.router->metrics().repairs.load(), 1);
}

TEST(PartitionTest, RepairRebalancesTheSurvivors) {
  // Repair promotes a dead primary's standbys where they stand. Kill the
  // shard whose primaries' standbys sit most lopsidedly on the other
  // two: without a rebalance, one survivor would end up with most of
  // the primaries.
  // The ring hashes the shards' ephemeral ports, so the layout changes
  // from run to run, and in about one in three every shard's standbys
  // split evenly. Build fleets until one is lopsided.
  std::unique_ptr<PartitionFleet> owned;
  std::unordered_map<int, ShardRouter::RoomAssignment> before;
  int victim = 0, worst_skew = 0;
  for (int attempt = 0; attempt < 20 && worst_skew == 0; ++attempt) {
    owned = std::make_unique<PartitionFleet>(/*num_shards=*/3, /*rooms=*/12,
                                             /*replication=*/1);
    before = owned->router->AssignmentSnapshot();
    for (int s = 0; s < 3; ++s) {
      std::unordered_map<int, int> standbys;  // backend -> standby count
      for (const auto& [room, assignment] : before)
        if (assignment.copies[0] == s) ++standbys[assignment.copies[1]];
      const int skew =
          std::abs(standbys[(s + 1) % 3] - standbys[(s + 2) % 3]);
      if (skew > worst_skew) {
        worst_skew = skew;
        victim = s;
      }
    }
  }
  ASSERT_GT(worst_skew, 0) << "no lopsided layout in 20 fleets";
  PartitionFleet& fleet = *owned;
  // Tick both copies of every room in lockstep, so whichever replica
  // serves a room after the repair must resume at tick 3.
  for (const auto& [room, assignment] : before)
    for (const int backend : assignment.copies) {
      auto hosted = fleet.shards[backend]->server.FindRoom(room);
      ASSERT_NE(hosted, nullptr) << "room " << room;
      for (int i = 0; i < 3; ++i) ASSERT_TRUE(hosted->Tick().ok());
    }

  fleet.shards[victim]->net->Shutdown();
  fleet.router->ProbeAll();
  EXPECT_GT(fleet.router->RepairPartition(), 0);

  const auto counts = fleet.PrimaryCounts();
  EXPECT_EQ(counts.count(victim), 0u);
  int fewest = fleet.num_rooms, most = 0;
  for (int s = 0; s < 3; ++s) {
    if (s == victim) continue;
    const int primaries = counts.count(s) > 0 ? counts.at(s) : 0;
    fewest = std::min(fewest, primaries);
    most = std::max(most, primaries);
  }
  EXPECT_LE(most - fewest, 1) << "survivors hold " << fewest << ".." << most
                              << " primaries (victim " << victim
                              << ", standby skew " << worst_skew << ")";
  for (const auto& [room, assignment] : fleet.router->AssignmentSnapshot()) {
    auto hosted = fleet.shards[assignment.copies[0]]->server.FindRoom(room);
    ASSERT_NE(hosted, nullptr) << "room " << room;
    EXPECT_EQ(hosted->tick(), 3) << "room " << room;
    const FriendResponse response = fleet.Route(room, 2);
    EXPECT_TRUE(response.status.ok())
        << "room " << room << ": " << response.status.ToString();
  }
  // Every owner is healthy again, so the next sweep changes nothing.
  EXPECT_EQ(fleet.router->RepairPartition(), 0);
}

TEST(PartitionTest, ConcurrentRoutingSurvivesKillAndGrowth) {
  // The TSan target: many threads in Route() while one shard dies, the
  // table is repaired, and a newcomer triggers migrations — all at once.
  // replication 1 means every request must still be answered.
  RouterOptions options;
  options.ejection_ms = 100.0;
  options.client.connect_timeout_ms = 500.0;
  PartitionFleet fleet(/*num_shards=*/3, /*rooms=*/6, /*replication=*/1,
                       options);
  auto newcomer = std::make_unique<PartitionShard>(fleet.dataset);

  const int kThreads = 4, kPerThread = 40;
  std::atomic<int> ok{0}, failed{0};
  std::thread grower([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    // The racing kill below may land mid-migration, in which case a
    // grant aimed at the dying shard legitimately fails — zero request
    // loss (asserted at the bottom) is the invariant, not a clean add.
    fleet.router->AddBackendLive(newcomer->address());
  });
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    fleet.shards[0]->net->Shutdown();
    fleet.router->ProbeAll();
    fleet.router->RepairPartition();
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerThread; ++i) {
        const FriendResponse response =
            fleet.Route((c + i) % 6, (3 * c + i) % 16);
        if (response.status.ok())
          ok.fetch_add(1);
        else
          failed.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  grower.join();
  killer.join();

  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(failed.load(), 0);
  fleet.shards.push_back(std::move(newcomer));  // outlive the router
}

}  // namespace
}  // namespace serve
}  // namespace after
