// Coverage for the fused f32 inference engine under the serving
// runtime: one FrozenPoshgnn shared lock-free by all worker threads
// across concurrent rooms, and its served answers against the f64
// reference. Registered under the serve/ ctest prefix so the TSan lane
// (scripts/check.sh tsan) race-checks the workspace pool and the const
// weight tensors.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/poshgnn.h"
#include "gtest/gtest.h"
#include "serve/server.h"

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
                                             int count) {
  std::vector<std::unique_ptr<Room>> rooms;
  for (int r = 0; r < count; ++r) {
    Room::Options options;
    options.id = r;
    options.mode = Room::Mode::kLive;
    options.seed = 50 + r;
    rooms.push_back(Room::Create(options, &dataset).value());
  }
  return rooms;
}

TEST(InferEngineServeTest, FusedEngineSharedAcrossConcurrentRooms) {
  const Dataset dataset = SmallDataset(20, 4);
  PoshgnnConfig config;
  config.hidden_dim = 8;
  config.seed = 13;
  Poshgnn source(config);
  ServerOptions options;
  options.num_threads = 4;
  options.queue_capacity = 256;
  options.batch_requests = true;
  options.default_deadline_ms = -1.0;
  RecommendationServer server(
      MakeRooms(dataset, 4),
      [&source] { return std::make_unique<FrozenPoshgnn>(source); },
      options);
  // The server shares its one primary: every worker drives the same
  // kernel tables and workspace pool concurrently.

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
        if (response.status.ok() && !response.recommended.empty())
          completions.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  stop.store(true);
  ticker.join();
  server.Shutdown();

  EXPECT_EQ(completions.load(), kClients * kPerClient);
  EXPECT_EQ(server.metrics().responses_ok.load(), kClients * kPerClient);
  EXPECT_EQ(server.metrics().errors.load(), 0);
}

TEST(InferEngineServeTest, ServedAnswersMatchSessionStartReference) {
  const Dataset dataset = SmallDataset(20, 4);
  PoshgnnConfig config;
  config.hidden_dim = 8;
  config.seed = 13;
  Poshgnn source(config);

  ServerOptions options;
  options.num_threads = 2;
  options.default_deadline_ms = -1.0;
  RecommendationServer server(
      MakeRooms(dataset, 1),
      [&source] { return std::make_unique<FrozenPoshgnn>(source); },
      options);
  // No ticker: every request reads this one snapshot.
  const std::shared_ptr<const RoomSnapshot> snapshot =
      server.FindRoom(0)->snapshot();
  for (int user = 0; user < dataset.num_users(); ++user) {
    const FriendResponse response = server.Handle({.room = 0, .user = user});
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    // The f64 reference: the mutable model's first step after
    // BeginSession, with the requester's own slot cleared as the server
    // clears it.
    source.BeginSession(dataset.num_users(), user);
    std::vector<bool> expected = source.Recommend(snapshot->ContextFor(user));
    expected[user] = false;
    EXPECT_EQ(response.recommended, expected) << "user " << user;
  }
}

}  // namespace
}  // namespace serve
}  // namespace after
