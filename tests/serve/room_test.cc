#include "serve/room.h"

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace after {
namespace serve {
namespace {

Dataset SmallDataset(int num_users = 16, int num_steps = 8) {
  DatasetConfig config;
  config.num_users = num_users;
  config.num_steps = num_steps;
  config.num_sessions = 2;
  config.seed = 321;
  return GenerateTimikLike(config);
}

TEST(RoomTest, CreateValidatesInput) {
  EXPECT_FALSE(Room::Create(Room::Options{}, nullptr).ok());

  Dataset empty;
  EXPECT_FALSE(Room::Create(Room::Options{}, &empty).ok());

  const Dataset dataset = SmallDataset();
  Room::Options bad_session;
  bad_session.session = 99;
  EXPECT_FALSE(Room::Create(bad_session, &dataset).ok());

  // Utility matrices smaller than the session's user count.
  Dataset uncovered = SmallDataset();
  uncovered.preference = Matrix(4, 4);
  const auto small_matrices = Room::Create(Room::Options{}, &uncovered);
  EXPECT_EQ(small_matrices.status().code(), StatusCode::kInvalidData);

  EXPECT_TRUE(Room::Create(Room::Options{}, &dataset).ok());
}

TEST(RoomTest, ChurnHooksRefuseReplayRoomsAndUnknownUsers) {
  const Dataset dataset = SmallDataset();  // 16 users
  auto replay = Room::Create(Room::Options{}, &dataset).value();
  ASSERT_EQ(replay->mode(), Room::Mode::kReplay);
  // A replay room follows its recording; churn would fork it.
  EXPECT_EQ(replay->TeleportUser(0, Vec2{1.0, 1.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(replay->SetUserActive(0, false).code(),
            StatusCode::kInvalidArgument);

  Room::Options live_options;
  live_options.mode = Room::Mode::kLive;
  auto live = Room::Create(live_options, &dataset).value();
  for (const int user : {-1, 16}) {
    EXPECT_EQ(live->TeleportUser(user, Vec2{1.0, 1.0}).code(),
              StatusCode::kInvalidArgument)
        << "user " << user;
    EXPECT_EQ(live->SetUserActive(user, false).code(),
              StatusCode::kInvalidArgument)
        << "user " << user;
  }
  EXPECT_TRUE(live->TeleportUser(15, Vec2{1.0, 1.0}).ok());
  EXPECT_TRUE(live->SetUserActive(15, false).ok());
}

TEST(RoomTest, ReplayFollowsRecordedSessionAndExhausts) {
  const Dataset dataset = SmallDataset();
  Room::Options options;
  options.mode = Room::Mode::kReplay;
  options.session = -1;  // last session
  auto room = Room::Create(options, &dataset).value();
  const XrWorld& world = dataset.sessions.back();

  for (int t = 0; t < world.num_steps(); ++t) {
    auto snapshot = room->snapshot();
    ASSERT_EQ(snapshot->tick(), t);
    const auto& expected = world.PositionsAt(t);
    ASSERT_EQ(snapshot->positions().size(), expected.size());
    for (size_t u = 0; u < expected.size(); ++u) {
      EXPECT_DOUBLE_EQ(snapshot->positions()[u].x, expected[u].x);
      EXPECT_DOUBLE_EQ(snapshot->positions()[u].y, expected[u].y);
    }
    const Status status = room->Tick();
    if (t + 1 < world.num_steps()) {
      EXPECT_TRUE(status.ok());
    } else {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
      // The last snapshot stays published.
      EXPECT_EQ(room->tick(), world.num_steps() - 1);
    }
  }
}

TEST(RoomTest, SnapshotOcclusionIsBuiltOnceAndStable) {
  const Dataset dataset = SmallDataset();
  auto room = Room::Create(Room::Options{}, &dataset).value();
  auto snapshot = room->snapshot();
  const OcclusionGraph& first = snapshot->OcclusionFor(3);
  const OcclusionGraph& again = snapshot->OcclusionFor(3);
  EXPECT_EQ(&first, &again);  // cached, not rebuilt
  EXPECT_EQ(first.num_nodes(), snapshot->num_users());

  const StepContext context = snapshot->ContextFor(3);
  EXPECT_EQ(context.target, 3);
  EXPECT_EQ(context.t, snapshot->tick());
  EXPECT_EQ(context.occlusion, &first);
  EXPECT_EQ(context.positions, &snapshot->positions());
}

/// Hammer snapshots from reader threads while the main thread ticks a
/// live room. Run under AFTER_SANITIZE=thread this is the data-race
/// check for the publish/read path; the assertions themselves verify
/// that every reader observes an internally consistent snapshot.
TEST(RoomTest, SnapshotsStayConsistentUnderConcurrentTicks) {
  const Dataset dataset = SmallDataset(12, 4);
  Room::Options options;
  options.mode = Room::Mode::kLive;
  options.seed = 7;
  auto room = Room::Create(options, &dataset).value();
  const int n = room->num_users();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      unsigned state = 12345u + r;
      while (!stop.load(std::memory_order_relaxed)) {
        auto snapshot = room->snapshot();
        state = state * 1664525u + 1013904223u;
        const int target = static_cast<int>(state % n);
        const StepContext context = snapshot->ContextFor(target);
        if (static_cast<int>(context.positions->size()) != n ||
            context.occlusion->num_nodes() != n ||
            context.t != snapshot->tick())
          failures.fetch_add(1);
        for (const Vec2& p : *context.positions)
          if (!std::isfinite(p.x) || !std::isfinite(p.y))
            failures.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < 200; ++t) ASSERT_TRUE(room->Tick().ok());
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(room->tick(), 200);
}

}  // namespace
}  // namespace serve
}  // namespace after
