// The acceptance check for the serving runtime: a 1-thread server
// replaying a recorded session on the primary that is served (a
// FrozenPoshgnn) must produce, request for request, the exact
// recommendations the offline evaluator computes for the same session.
// The oracle only means something if the answers it compares select
// somebody, so it also fails when too few of them are non-empty.
#include <map>
#include <memory>
#include <vector>

#include "core/evaluator.h"
#include "core/poshgnn.h"
#include "gtest/gtest.h"
#include "serve/server.h"

namespace after {
namespace serve {
namespace {

/// Delegates to a FrozenPoshgnn and records the raw output of every
/// Recommend() call, keyed by (session target, step order).
class RecordingRecommender : public Recommender {
 public:
  explicit RecordingRecommender(const Poshgnn& source) : inner_(source) {}
  std::string name() const override { return "Recording"; }
  void BeginSession(int num_users, int target) override {
    current_target_ = target;
    inner_.BeginSession(num_users, target);
  }
  std::vector<bool> Recommend(const StepContext& context) override {
    std::vector<bool> out = inner_.Recommend(context);
    recorded_[current_target_].push_back(out);
    return out;
  }
  const std::map<int, std::vector<std::vector<bool>>>& recorded() const {
    return recorded_;
  }

 private:
  FrozenPoshgnn inner_;
  int current_target_ = -1;
  std::map<int, std::vector<std::vector<bool>>> recorded_;
};

TEST(DeterminismTest, OneThreadServerMatchesOfflineEvaluator) {
  DatasetConfig config;
  config.num_users = 24;
  config.num_steps = 12;
  config.num_sessions = 2;
  config.seed = 777;
  const Dataset dataset = GenerateTimikLike(config);
  const XrWorld& world = dataset.sessions.back();
  const std::vector<int> targets = {3, 7, 11};

  // Offline pass: record the primary's raw per-step outputs. Untrained
  // weights, the same source on both sides.
  const Poshgnn source{PoshgnnConfig{}};
  RecordingRecommender recording(source);
  EvalOptions eval;
  eval.session = -1;
  eval.targets = targets;
  eval.beta = 0.5;
  auto offline = EvaluateRecommenderChecked(recording, dataset, eval);
  ASSERT_TRUE(offline.ok()) << offline.status().ToString();
  ASSERT_TRUE(offline.value().diagnostics.clean());
  for (int target : targets)
    ASSERT_EQ(recording.recorded().at(target).size(),
              static_cast<size_t>(world.num_steps()));

  // Online pass: single worker, replay room over the same session, no
  // deadline (so degradation can never kick in and mask a mismatch).
  Room::Options room_options;
  room_options.mode = Room::Mode::kReplay;
  room_options.session = -1;
  room_options.beta = eval.beta;
  std::vector<std::unique_ptr<Room>> rooms;
  rooms.push_back(Room::Create(room_options, &dataset).value());
  ServerOptions server_options;
  server_options.num_threads = 1;
  server_options.default_deadline_ms = -1.0;
  RecommendationServer server(
      std::move(rooms),
      [&source] { return std::make_unique<FrozenPoshgnn>(source); },
      server_options);

  int compared = 0, non_empty = 0;
  for (int t = 0; t < world.num_steps(); ++t) {
    for (int target : targets) {
      const FriendResponse response =
          server.Handle({.room = 0, .user = target});
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ASSERT_EQ(response.tick, t);
      ASSERT_FALSE(response.used_fallback);
      // The server clears the requester's own slot; mirror that on the
      // recorded raw output before comparing.
      std::vector<bool> expected = recording.recorded().at(target)[t];
      expected[target] = false;
      EXPECT_EQ(response.recommended, expected)
          << "diverged at tick " << t << " for target " << target;
      ++compared;
      for (bool selected : expected) {
        if (selected) {
          ++non_empty;
          break;
        }
      }
    }
    const Status status = server.TickRoom(0);
    if (t + 1 < world.num_steps()) {
      ASSERT_TRUE(status.ok());
    } else {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    }
  }
  EXPECT_EQ(compared, 36);
  EXPECT_GE(non_empty, 30) << "the oracle compared mostly empty answers";
  EXPECT_EQ(server.metrics().total_fallbacks(), 0);
  EXPECT_EQ(server.metrics().timeouts.load(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace after
