#include "serve/server.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/nearest_recommender.h"
#include "core/poshgnn.h"
#include "gtest/gtest.h"

namespace after {
namespace serve {
namespace {

Dataset SmallDataset(int num_users = 16, int num_steps = 8) {
  DatasetConfig config;
  config.num_users = num_users;
  config.num_steps = num_steps;
  config.num_sessions = 2;
  config.seed = 654;
  return GenerateTimikLike(config);
}

std::vector<std::unique_ptr<Room>> MakeRooms(const Dataset& dataset,
                                             int count,
                                             Room::Mode mode =
                                                 Room::Mode::kLive) {
  std::vector<std::unique_ptr<Room>> rooms;
  for (int r = 0; r < count; ++r) {
    Room::Options options;
    options.id = r;
    options.mode = mode;
    options.seed = 50 + r;
    rooms.push_back(Room::Create(options, &dataset).value());
  }
  return rooms;
}

/// Thread-safe primary that sleeps for a configurable time, then
/// returns a correct-size (empty) recommendation.
class SlowRecommender : public Recommender {
 public:
  explicit SlowRecommender(double sleep_ms) : sleep_ms_(sleep_ms) {}
  std::string name() const override { return "Slow"; }
  bool thread_safe() const override { return true; }
  std::vector<bool> Recommend(const StepContext& context) override {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(sleep_ms_));
    return std::vector<bool>(context.positions->size(), false);
  }

 private:
  double sleep_ms_;
};

/// Thread-safe primary that always returns a wrong-size vector.
class MisbehavingRecommender : public Recommender {
 public:
  std::string name() const override { return "Broken"; }
  bool thread_safe() const override { return true; }
  std::vector<bool> Recommend(const StepContext&) override { return {}; }
};

TEST(ServerTest, AnswersRequestsAgainstTheSnapshot) {
  const Dataset dataset = SmallDataset();
  ServerOptions options;
  options.num_threads = 2;
  options.default_deadline_ms = -1.0;  // no deadline
  RecommendationServer server(
      MakeRooms(dataset, 2),
      [] { return std::make_unique<NearestRecommender>(5); }, options);

  FriendRequest request;
  request.room = 1;
  request.user = 3;
  const FriendResponse response = server.Handle(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(static_cast<int>(response.recommended.size()),
            dataset.num_users());
  EXPECT_FALSE(response.recommended[3]);  // own slot cleared
  EXPECT_FALSE(response.used_fallback);
  EXPECT_EQ(response.tick, 0);
  int selected = 0;
  for (bool b : response.recommended) selected += b ? 1 : 0;
  EXPECT_EQ(selected, 5);
  EXPECT_EQ(server.metrics().responses_ok.load(), 1);
  EXPECT_GT(response.latency_ms, 0.0);
}

TEST(ServerTest, BadRoomAndUserAreErrors) {
  const Dataset dataset = SmallDataset();
  ServerOptions options;
  options.default_deadline_ms = -1.0;
  RecommendationServer server(
      MakeRooms(dataset, 1),
      [] { return std::make_unique<NearestRecommender>(5); }, options);

  EXPECT_EQ(server.Handle({.room = 7, .user = 0}).status.code(),
            StatusCode::kNotFound);
  EXPECT_EQ(server.Handle({.room = 0, .user = 999}).status.code(),
            StatusCode::kInvalidData);
  EXPECT_EQ(server.metrics().errors.load(), 2);
}

TEST(ServerTest, FullQueueShedsWithResourceExhausted) {
  const Dataset dataset = SmallDataset();
  ServerOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.default_deadline_ms = -1.0;
  RecommendationServer server(
      MakeRooms(dataset, 1),
      [] { return std::make_unique<SlowRecommender>(50.0); }, options);

  // Fire-and-record asynchronous submissions: the first occupies the
  // worker, the next fills the queue slot, and eventually one is shed.
  std::mutex mutex;
  std::condition_variable cv;
  int done = 0;
  bool saw_shed = false;
  const int total = 8;
  for (int i = 0; i < total; ++i) {
    server.Submit({.room = 0, .user = 1},
                  [&](const FriendResponse& response) {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (response.status.code() ==
                        StatusCode::kResourceExhausted)
                      saw_shed = true;
                    if (++done == total) cv.notify_one();
                  });
  }
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return done == total; });
  EXPECT_TRUE(saw_shed);
  EXPECT_GT(server.metrics().shed.load(), 0);
  EXPECT_EQ(server.metrics().requests_submitted.load(), total);
}

TEST(ServerTest, DeadlineExpiredInQueueReturnsTimeout) {
  const Dataset dataset = SmallDataset();
  ServerOptions options;
  options.num_threads = 1;
  options.queue_capacity = 16;
  options.default_deadline_ms = -1.0;
  RecommendationServer server(
      MakeRooms(dataset, 1),
      [] { return std::make_unique<SlowRecommender>(60.0); }, options);

  // Occupy the single worker with a no-deadline request, then enqueue a
  // request whose 1 ms budget must expire while it waits.
  std::mutex mutex;
  std::condition_variable cv;
  bool first_done = false;
  server.Submit({.room = 0, .user = 1, .deadline_ms = -1.0},
                [&](const FriendResponse&) {
                  std::lock_guard<std::mutex> lock(mutex);
                  first_done = true;
                  cv.notify_one();
                });
  const FriendResponse late =
      server.Handle({.room = 0, .user = 2, .deadline_ms = 1.0});
  EXPECT_EQ(late.status.code(), StatusCode::kTimeout);
  EXPECT_TRUE(late.recommended.empty());
  EXPECT_EQ(server.metrics().timeouts.load(), 1);
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return first_done; });
}

TEST(ServerTest, SlowPrimaryDegradesToNearestFallback) {
  const Dataset dataset = SmallDataset();
  ServerOptions options;
  options.num_threads = 1;
  options.fallback_k = 4;
  options.default_deadline_ms = -1.0;
  RecommendationServer server(
      MakeRooms(dataset, 1),
      [] { return std::make_unique<SlowRecommender>(30.0); }, options);

  const FriendResponse response =
      server.Handle({.room = 0, .user = 2, .deadline_ms = 10.0});
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.used_fallback);
  // The answer is the fallback's, not the slow primary's all-false one.
  int selected = 0;
  for (bool b : response.recommended) selected += b ? 1 : 0;
  EXPECT_EQ(selected, 4);
  EXPECT_EQ(server.metrics().fallbacks_deadline.load(), 1);
  EXPECT_EQ(server.metrics().timeouts.load(), 0);
}

TEST(ServerTest, MisbehavingPrimaryDegradesToNearestFallback) {
  const Dataset dataset = SmallDataset();
  ServerOptions options;
  options.default_deadline_ms = -1.0;
  options.fallback_k = 3;
  RecommendationServer server(
      MakeRooms(dataset, 1),
      [] { return std::make_unique<MisbehavingRecommender>(); }, options);

  const FriendResponse response = server.Handle({.room = 0, .user = 0});
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.used_fallback);
  EXPECT_EQ(server.metrics().fallbacks_misbehaved.load(), 1);
}

TEST(ServerTest, ThreadSafePrimaryIsBuiltOnceAndShared) {
  const Dataset dataset = SmallDataset();
  ServerOptions options;
  options.default_deadline_ms = -1.0;

  std::atomic<int> built{0};
  RecommendationServer server(
      MakeRooms(dataset, 2),
      [&built] {
        built.fetch_add(1);
        return std::make_unique<NearestRecommender>(5);
      },
      options);
  for (int user = 0; user < 6; ++user)
    ASSERT_TRUE(server.Handle({.room = user % 2, .user = user}).status.ok());
  // Only the construction-time call: one primary serves every room.
  EXPECT_EQ(built.load(), 1);
}

TEST(ServerDeathTest, StatefulPrimaryAbortsConstruction) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Dataset dataset = SmallDataset();
  EXPECT_DEATH(
      RecommendationServer(
          MakeRooms(dataset, 1),
          [] { return std::make_unique<Poshgnn>(PoshgnnConfig{}); },
          ServerOptions{}),
      "primary 'POSHGNN' is not thread-safe.*offline evaluator");
}

TEST(ServerTest, PerRoomCountersNoteOnlyHostedRooms) {
  const Dataset dataset = SmallDataset();
  for (const bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "batched" : "per-request");
    ServerOptions options;
    options.default_deadline_ms = -1.0;
    options.batch_requests = batch;
    RecommendationServer server(
        MakeRooms(dataset, 2),
        [] { return std::make_unique<NearestRecommender>(5); }, options);

    // Room ids straight off an untrusted wire: every one is answered
    // kNotFound and none of them grows the per-room map.
    for (int room = 1000; room < 2000; ++room)
      ASSERT_EQ(server.Handle({.room = room, .user = 0}).status.code(),
                StatusCode::kNotFound);
    EXPECT_TRUE(server.metrics().room_requests.Snapshot().empty());
    EXPECT_EQ(server.metrics().errors.load(), 1000);

    // Hosted rooms count every answered request, errors included.
    for (int user = 0; user < 6; ++user)
      ASSERT_TRUE(server.Handle({.room = user % 2, .user = user}).status.ok());
    EXPECT_EQ(server.Handle({.room = 0, .user = 999}).status.code(),
              StatusCode::kInvalidData);
    const std::unordered_map<int, int64_t> counts =
        server.metrics().room_requests.Snapshot();
    EXPECT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts.at(0), 4);
    EXPECT_EQ(counts.at(1), 3);
  }
}

TEST(ServerTest, ConcurrentLoadCompletesEveryAdmittedRequest) {
  const Dataset dataset = SmallDataset(20, 4);
  ServerOptions options;
  options.num_threads = 4;
  options.queue_capacity = 256;
  options.default_deadline_ms = -1.0;
  const Poshgnn source{PoshgnnConfig{}};
  RecommendationServer server(
      MakeRooms(dataset, 4),
      [&source] { return std::make_unique<FrozenPoshgnn>(source); },
      options);

  std::atomic<bool> stop{false};
  std::thread ticker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      server.TickAll();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const int kClients = 4, kPerClient = 25;
  std::atomic<int> completions{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const FriendResponse response = server.Handle(
            {.room = (c + i) % 4, .user = (7 * c + i) % 20});
        if (response.status.ok()) completions.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  stop.store(true);
  ticker.join();
  server.Shutdown();

  EXPECT_EQ(completions.load(), kClients * kPerClient);
  EXPECT_EQ(server.metrics().shed.load(), 0);
  EXPECT_EQ(server.metrics().queue_depth.load(), 0);
  EXPECT_EQ(server.metrics().responses_ok.load(), kClients * kPerClient);
}

}  // namespace
}  // namespace serve
}  // namespace after
