#include "serve/batcher.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
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

TickBatcher::Pending MakePending(int user) {
  TickBatcher::Pending pending;
  pending.request.room = 0;
  pending.request.user = user;
  pending.done =
      std::make_shared<std::function<void(const FriendResponse&)>>(
          [](const FriendResponse&) {});
  return pending;
}

TEST(TickBatcherTest, FirstEnqueueSchedulesLaterOnesPark) {
  TickBatcher batcher;
  int scheduled = 0;
  auto schedule = [&scheduled] {
    ++scheduled;
    return true;
  };
  EXPECT_EQ(batcher.Enqueue(0, MakePending(1), schedule),
            TickBatcher::Admit::kQueuedAndScheduled);
  EXPECT_EQ(batcher.Enqueue(0, MakePending(2), schedule),
            TickBatcher::Admit::kQueued);
  EXPECT_EQ(batcher.Enqueue(0, MakePending(3), schedule),
            TickBatcher::Admit::kQueued);
  EXPECT_EQ(scheduled, 1);
  EXPECT_EQ(batcher.pending(0), 3);

  // The drain takes everything in FIFO order...
  const std::vector<TickBatcher::Pending> batch = batcher.TakeBatch(0);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].request.user, 1);
  EXPECT_EQ(batch[2].request.user, 3);
  EXPECT_EQ(batcher.pending(0), 0);

  // ...and an empty TakeBatch releases ownership: the next Enqueue must
  // schedule a fresh drain task.
  EXPECT_TRUE(batcher.TakeBatch(0).empty());
  EXPECT_EQ(batcher.Enqueue(0, MakePending(4), schedule),
            TickBatcher::Admit::kQueuedAndScheduled);
  EXPECT_EQ(scheduled, 2);
}

TEST(TickBatcherTest, FailedScheduleRejectsAndUnparks) {
  TickBatcher batcher;
  EXPECT_EQ(batcher.Enqueue(0, MakePending(1), [] { return false; }),
            TickBatcher::Admit::kRejected);
  EXPECT_EQ(batcher.pending(0), 0);
  // A later enqueue with a healthy pool starts clean.
  EXPECT_EQ(batcher.Enqueue(0, MakePending(2), [] { return true; }),
            TickBatcher::Admit::kQueuedAndScheduled);
}

TEST(TickBatcherTest, RoomsAreIndependent) {
  TickBatcher batcher;
  auto ok = [] { return true; };
  EXPECT_EQ(batcher.Enqueue(0, MakePending(1), ok),
            TickBatcher::Admit::kQueuedAndScheduled);
  EXPECT_EQ(batcher.Enqueue(1, MakePending(2), ok),
            TickBatcher::Admit::kQueuedAndScheduled);
  EXPECT_EQ(batcher.pending(0), 1);
  EXPECT_EQ(batcher.pending(1), 1);
  EXPECT_EQ(batcher.TakeBatch(0).size(), 1u);
  EXPECT_EQ(batcher.pending(1), 1);
}

/// Thread-safe primary that blocks every inference call until Release()
/// and signals when a call has entered — lets a test park requests in a
/// *known* batch window: submit one request, wait for its drain to block
/// inside the model, pile more requests up, then release the gate.
class GatedRecommender : public Recommender {
 public:
  std::string name() const override { return "Gated"; }
  bool thread_safe() const override { return true; }
  std::vector<bool> Recommend(const StepContext& context) override {
    Wait();
    return std::vector<bool>(context.positions->size(), false);
  }
  void WaitForEntries(int count) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this, count] { return entries_ >= count; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    gated_ = false;
    cv_.notify_all();
  }

 private:
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++entries_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !gated_; });
  }
  std::mutex mutex_;
  std::condition_variable cv_;
  int entries_ = 0;
  bool gated_ = true;
};

TEST(BatchedServerTest, QueuedRequestsCoalesceIntoOneJob) {
  const Dataset dataset = SmallDataset();
  ServerOptions options;
  options.num_threads = 1;
  options.batch_requests = true;
  options.default_deadline_ms = -1.0;
  auto owned = std::make_unique<GatedRecommender>();
  GatedRecommender* gate = owned.get();  // the server owns it
  RecommendationServer server(
      MakeRooms(dataset, 1), [&owned] { return std::move(owned); }, options);

  std::mutex mutex;
  std::condition_variable cv;
  int done = 0;
  int ok = 0;
  const auto record = [&](const FriendResponse& response) {
    std::lock_guard<std::mutex> lock(mutex);
    if (response.status.ok()) ++ok;
    ++done;
    cv.notify_one();
  };

  // The first request's drain task blocks inside the gated model with a
  // batch of exactly one; only then pile up the second window: three
  // requests for user 5 plus one each for users 7 and 9. The single
  // worker is occupied, so all five are parked when the gate opens.
  server.Submit({.room = 0, .user = 1}, record);
  gate->WaitForEntries(1);
  for (int user : {5, 5, 5, 7, 9})
    server.Submit({.room = 0, .user = user}, record);
  gate->Release();
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done == 6; });
  }
  server.Shutdown();

  const ServerMetrics& m = server.metrics();
  EXPECT_EQ(ok, 6);
  // Two drains for six requests: {1} and {5,5,5,7,9}, where the
  // duplicate user-5 requests collapse into one forward pass.
  EXPECT_EQ(m.batches.load(), 2);
  EXPECT_EQ(m.batched_requests.load(), 6);
  EXPECT_EQ(m.coalesced.load(), 2);
  EXPECT_EQ(m.queue_depth.load(), 0);
}

TEST(BatchedServerTest, HonorsDeadlinesAndValidatesUsersPerRequest) {
  const Dataset dataset = SmallDataset();
  ServerOptions options;
  options.num_threads = 1;
  options.batch_requests = true;
  options.default_deadline_ms = -1.0;
  auto owned = std::make_unique<GatedRecommender>();
  GatedRecommender* gate = owned.get();  // the server owns it
  RecommendationServer server(
      MakeRooms(dataset, 1), [&owned] { return std::move(owned); }, options);

  // Bad room is rejected synchronously, before batching.
  EXPECT_EQ(server.Handle({.room = 9, .user = 0}).status.code(),
            StatusCode::kNotFound);

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<Status> statuses;
  const auto record = [&](const FriendResponse& response) {
    std::lock_guard<std::mutex> lock(mutex);
    statuses.push_back(response.status);
    cv.notify_one();
  };

  // Hold the worker in a gated batch, then park one request whose 1 ms
  // budget expires in the queue and one with an out-of-range user. The
  // batch path must answer both individually before any model work.
  server.Submit({.room = 0, .user = 1}, record);
  gate->WaitForEntries(1);
  server.Submit({.room = 0, .user = 2, .deadline_ms = 1.0}, record);
  server.Submit({.room = 0, .user = 999}, record);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate->Release();
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return statuses.size() == 3u; });
  }
  server.Shutdown();

  int ok = 0, timeouts = 0, invalid = 0;
  for (const Status& status : statuses) {
    if (status.ok()) ++ok;
    if (status.code() == StatusCode::kTimeout) ++timeouts;
    if (status.code() == StatusCode::kInvalidData) ++invalid;
  }
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(invalid, 1);
  EXPECT_EQ(server.metrics().timeouts.load(), 1);
}

TEST(BatchedServerTest, FrozenPoshgnnUnderConcurrentLoad) {
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
  EXPECT_EQ(server.metrics().shed.load(), 0);
  EXPECT_EQ(server.metrics().responses_ok.load(), kClients * kPerClient);
  EXPECT_EQ(server.metrics().batched_requests.load(), kClients * kPerClient);
  EXPECT_GE(server.metrics().batches.load(), 1);
  EXPECT_EQ(server.metrics().queue_depth.load(), 0);
}

}  // namespace
}  // namespace serve
}  // namespace after
