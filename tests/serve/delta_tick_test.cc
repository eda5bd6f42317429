#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "gtest/gtest.h"

#include "graph/mwis.h"
#include "serve/server.h"

namespace after {
namespace serve {
namespace {

Dataset SmallDataset(int num_users = 24, int num_steps = 6) {
  DatasetConfig config;
  config.num_users = num_users;
  config.num_steps = num_steps;
  config.num_sessions = 2;
  config.seed = 321;
  return GenerateTimikLike(config);
}

Room::Options LiveOptions(bool delta, double move_fraction = 0.25) {
  Room::Options options;
  options.mode = Room::Mode::kLive;
  options.seed = 11;
  options.delta_snapshots = delta;
  options.move_fraction = move_fraction;
  return options;
}

void ExpectPositionsBitExact(const RoomSnapshot& a, const RoomSnapshot& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  for (int u = 0; u < a.num_users(); ++u) {
    EXPECT_EQ(a.positions()[u].x, b.positions()[u].x) << "user " << u;
    EXPECT_EQ(a.positions()[u].y, b.positions()[u].y) << "user " << u;
  }
}

/// Every target's occlusion graph — adjacency arrays included — must be
/// indistinguishable from a from-scratch rebuild of the same frame.
void ExpectOcclusionBitExact(const RoomSnapshot& snapshot) {
  for (int target = 0; target < snapshot.num_users(); ++target) {
    const OcclusionGraph rebuilt = BuildOcclusionGraph(
        snapshot.positions(), target, snapshot.body_radius());
    ASSERT_TRUE(snapshot.OcclusionFor(target) == rebuilt)
        << "target " << target << " tick " << snapshot.tick();
  }
}

TEST(DeltaTickTest, DeltaRoomTracksScratchRoomBitExactly) {
  const Dataset dataset = SmallDataset();
  auto delta_room = Room::Create(LiveOptions(true), &dataset).value();
  auto scratch_room = Room::Create(LiveOptions(false), &dataset).value();

  for (int t = 0; t < 12; ++t) {
    ASSERT_TRUE(delta_room->Tick().ok());
    ASSERT_TRUE(scratch_room->Tick().ok());
    const auto a = delta_room->snapshot();
    const auto b = scratch_room->snapshot();
    ASSERT_EQ(a->tick(), b->tick());
    ExpectPositionsBitExact(*a, *b);
    ExpectOcclusionBitExact(*a);
  }
  // The two rooms really exercised different publish paths.
  EXPECT_GT(delta_room->delta_ticks(), 0u);
  EXPECT_EQ(scratch_room->delta_ticks(), 0u);
  EXPECT_GT(scratch_room->scratch_ticks(), 0u);
}

/// Downstream decode and eval metrics must agree too: same occlusion
/// graph + same weights => same MWIS selection and selection weight.
TEST(DeltaTickTest, FuzzMotionFractionsPreserveDecodeAndMetrics) {
  const Dataset dataset = SmallDataset();
  for (const double fraction : {0.1, 0.5, 1.0}) {
    auto delta_room = Room::Create(LiveOptions(true, fraction), &dataset)
                          .value();
    auto scratch_room = Room::Create(LiveOptions(false, fraction), &dataset)
                            .value();
    for (int t = 0; t < 8; ++t) {
      ASSERT_TRUE(delta_room->Tick().ok());
      ASSERT_TRUE(scratch_room->Tick().ok());
      const auto a = delta_room->snapshot();
      const auto b = scratch_room->snapshot();
      ExpectPositionsBitExact(*a, *b);
      for (const int target : {0, 7, 23}) {
        const OcclusionGraph& ga = a->OcclusionFor(target);
        const OcclusionGraph& gb = b->OcclusionFor(target);
        ASSERT_TRUE(ga == gb) << "fraction " << fraction << " tick " << t;
        std::vector<double> weights(dataset.num_users());
        for (int w = 0; w < dataset.num_users(); ++w)
          weights[w] = dataset.preference.At(target, w);
        const MwisResult ra = GreedyMwis(ga, weights);
        const MwisResult rb = GreedyMwis(gb, weights);
        ASSERT_EQ(ra.selected, rb.selected);
        ASSERT_EQ(SelectionWeight(ga, weights, ra.selected),
                  SelectionWeight(gb, weights, rb.selected));
      }
    }
  }
}

TEST(DeltaTickTest, ChurnedUsersStayBitExact) {
  const Dataset dataset = SmallDataset();
  auto delta_room = Room::Create(LiveOptions(true), &dataset).value();
  auto scratch_room = Room::Create(LiveOptions(false), &dataset).value();

  for (int t = 0; t < 10; ++t) {
    if (t == 2 || t == 5) {
      const Vec2 spot(0.5 * t, -1.0);
      ASSERT_TRUE(delta_room->TeleportUser(3, spot).ok());
      ASSERT_TRUE(scratch_room->TeleportUser(3, spot).ok());
    }
    if (t == 4) {
      ASSERT_TRUE(delta_room->SetUserActive(9, false).ok());
      ASSERT_TRUE(scratch_room->SetUserActive(9, false).ok());
    }
    if (t == 7) {
      ASSERT_TRUE(delta_room->SetUserActive(9, true).ok());
      ASSERT_TRUE(scratch_room->SetUserActive(9, true).ok());
    }
    ASSERT_TRUE(delta_room->Tick().ok());
    ASSERT_TRUE(scratch_room->Tick().ok());
    const auto a = delta_room->snapshot();
    ExpectPositionsBitExact(*a, *scratch_room->snapshot());
    ExpectOcclusionBitExact(*a);
  }
  EXPECT_GT(delta_room->delta_ticks(), 0u);
}

TEST(DeltaTickTest, RebuildFractionGatesTheDeltaPath) {
  const Dataset dataset = SmallDataset();
  // Threshold 0: every tick exceeds it, so each publish falls back to a
  // from-scratch snapshot even with deltas enabled.
  Room::Options always_rebuild = LiveOptions(true);
  always_rebuild.delta_rebuild_fraction = 0.0;
  auto room = Room::Create(always_rebuild, &dataset).value();
  for (int t = 0; t < 5; ++t) ASSERT_TRUE(room->Tick().ok());
  EXPECT_EQ(room->delta_ticks(), 0u);
  EXPECT_GE(room->scratch_ticks(), 5u);
  EXPECT_FALSE(room->snapshot()->built_by_delta());

  // Threshold 1: nothing short of everybody moving forces a rebuild.
  Room::Options always_delta = LiveOptions(true);
  always_delta.delta_rebuild_fraction = 1.0;
  auto delta_room = Room::Create(always_delta, &dataset).value();
  for (int t = 0; t < 5; ++t) ASSERT_TRUE(delta_room->Tick().ok());
  EXPECT_EQ(delta_room->delta_ticks(), 5u);
  EXPECT_TRUE(delta_room->snapshot()->built_by_delta());
}

TEST(DeltaTickTest, MigrationRebuildsThenResumesDeltaTicking) {
  const Dataset dataset = SmallDataset();
  auto donor = Room::Create(LiveOptions(true), &dataset).value();
  for (int t = 0; t < 6; ++t) ASSERT_TRUE(donor->Tick().ok());
  ASSERT_TRUE(donor->snapshot()->built_by_delta());

  auto receiver = Room::Create(LiveOptions(true), &dataset).value();
  ASSERT_TRUE(receiver->ApplyState(donor->ExportState()).ok());
  // A migrated room must never trust caches it did not build: the
  // published snapshot is from scratch, bit-exact vs a rebuild.
  const auto migrated = receiver->snapshot();
  EXPECT_FALSE(migrated->built_by_delta());
  ExpectPositionsBitExact(*migrated, *donor->snapshot());
  ExpectOcclusionBitExact(*migrated);

  // ...and the next tick re-enters the delta path, still bit-exact.
  ASSERT_TRUE(receiver->Tick().ok());
  EXPECT_TRUE(receiver->snapshot()->built_by_delta());
  ExpectOcclusionBitExact(*receiver->snapshot());
}

TEST(DeltaTickTest, JournalFrameReplayPublishesScratchThenDelta) {
  const Dataset dataset = SmallDataset();
  auto donor = Room::Create(LiveOptions(true), &dataset).value();
  for (int t = 0; t < 4; ++t) ASSERT_TRUE(donor->Tick().ok());
  const Room::TickFrame frame = donor->CurrentTickFrame();

  auto recovered = Room::Create(LiveOptions(true), &dataset).value();
  ASSERT_TRUE(recovered->ApplyTickFrame(frame).ok());
  EXPECT_EQ(recovered->tick(), frame.tick);
  EXPECT_FALSE(recovered->snapshot()->built_by_delta());
  ExpectPositionsBitExact(*recovered->snapshot(), *donor->snapshot());
  ExpectOcclusionBitExact(*recovered->snapshot());

  ASSERT_TRUE(recovered->Tick().ok());
  EXPECT_TRUE(recovered->snapshot()->built_by_delta());
  ExpectOcclusionBitExact(*recovered->snapshot());
}

/// Transparent recommender: recommends every candidate the blocklist
/// lets through, so a response reveals exactly which prune mask the
/// server attached.
class BlocklistEcho : public Recommender {
 public:
  std::string name() const override { return "blocklist-echo"; }
  bool thread_safe() const override { return true; }
  std::vector<bool> Recommend(const StepContext& context) override {
    std::vector<bool> out(context.positions->size(), true);
    out[context.target] = false;
    if (context.blocklist != nullptr) {
      for (size_t w = 0; w < out.size(); ++w)
        if ((*context.blocklist)[w]) out[w] = false;
    }
    return out;
  }
};

std::vector<std::unique_ptr<Room>> MakeTemporalRooms(const Dataset* dataset) {
  Room::Options options = LiveOptions(true);
  options.temporal_index = true;
  std::vector<std::unique_ptr<Room>> rooms;
  rooms.push_back(Room::Create(options, dataset).value());
  return rooms;
}

std::vector<bool> ExpectedTopK(const RoomSnapshot& snapshot, int user,
                               int k) {
  std::vector<bool> expected(snapshot.num_users(), false);
  const auto& view = snapshot.temporal_view();
  EXPECT_NE(view, nullptr);
  for (int c : view->TopCandidates(user, k)) expected[c] = true;
  return expected;
}

TEST(DeltaTickTest, ServerPrunesToTemporalTopK) {
  const Dataset dataset = SmallDataset();
  constexpr int kTopK = 5;
  ServerOptions options;
  options.num_threads = 2;
  options.default_deadline_ms = -1.0;  // never degrade to the fallback
  options.max_candidates = kTopK;
  RecommendationServer server(
      MakeTemporalRooms(&dataset),
      [] { return std::make_unique<BlocklistEcho>(); }, options);
  for (int t = 0; t < 5; ++t) ASSERT_TRUE(server.TickRoom(0).ok());

  const auto snapshot = server.FindRoom(0)->snapshot();
  for (const int user : {0, 5, 17}) {
    const FriendResponse response = server.Handle({.room = 0, .user = user});
    ASSERT_TRUE(response.status.ok());
    EXPECT_FALSE(response.used_fallback);
    EXPECT_EQ(response.recommended, ExpectedTopK(*snapshot, user, kTopK));
  }
  EXPECT_GT(server.metrics().pruned_requests.load(), 0);
}

TEST(DeltaTickTest, BatchedRequestsGetPerTargetPruneMasks) {
  const Dataset dataset = SmallDataset();
  constexpr int kTopK = 4;
  ServerOptions options;
  options.num_threads = 2;
  options.default_deadline_ms = -1.0;
  options.batch_requests = true;
  options.max_candidates = kTopK;
  RecommendationServer server(
      MakeTemporalRooms(&dataset),
      [] { return std::make_unique<BlocklistEcho>(); }, options);
  for (int t = 0; t < 5; ++t) ASSERT_TRUE(server.TickRoom(0).ok());
  const auto snapshot = server.FindRoom(0)->snapshot();

  const std::vector<int> users = {1, 4, 9, 16, 21};
  std::mutex mutex;
  std::condition_variable cv;
  size_t done = 0;
  std::vector<FriendResponse> responses(users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    server.Submit({.room = 0, .user = users[i]},
                  [&, i](const FriendResponse& response) {
                    std::lock_guard<std::mutex> lock(mutex);
                    responses[i] = response;
                    ++done;
                    cv.notify_all();
                  });
  }
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return done == users.size(); });

  for (size_t i = 0; i < users.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << "user " << users[i];
    EXPECT_FALSE(responses[i].used_fallback);
    // Distinct per-target masks prove the batcher attached each
    // context's own blocklist rather than sharing one.
    EXPECT_EQ(responses[i].recommended,
              ExpectedTopK(*snapshot, users[i], kTopK))
        << "user " << users[i];
  }
}

}  // namespace
}  // namespace serve
}  // namespace after
