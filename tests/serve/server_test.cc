#include "serve/server.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
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

/// Thread-safe primary that always returns a wrong-size vector and
/// counts its calls.
class MisbehavingRecommender : public Recommender {
 public:
  std::string name() const override { return "Broken"; }
  bool thread_safe() const override { return true; }
  std::vector<bool> Recommend(const StepContext&) override {
    calls_.fetch_add(1);
    return {};
  }
  int calls() const { return calls_.load(); }

 private:
  std::atomic<int> calls_{0};
};

/// Primary budget of the answer-slot tests: below the fallback's, so a
/// primary answer and a fallback answer select different counts.
constexpr int kPrimaryK = 3;

/// Thread-safe primary that counts its calls and answers as a
/// NearestRecommender, so equal answers compare a nonempty selection.
class CountingNearest : public Recommender {
 public:
  std::string name() const override { return "CountingNearest"; }
  bool thread_safe() const override { return true; }
  std::vector<bool> Recommend(const StepContext& context) override {
    calls_.fetch_add(1);
    return nearest_.Recommend(context);
  }
  int calls() const { return calls_.load(); }

 private:
  NearestRecommender nearest_{kPrimaryK};
  std::atomic<int> calls_{0};
};

/// Thread-safe primary that blocks every inference call until Release()
/// and counts the calls that entered, so a test can hold workers inside
/// the model and see how many of them got there. Answers as a
/// NearestRecommender.
class GatedRecommender : public Recommender {
 public:
  std::string name() const override { return "Gated"; }
  bool thread_safe() const override { return true; }
  std::vector<bool> Recommend(const StepContext& context) override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++entries_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !gated_; });
    return nearest_.Recommend(context);
  }
  /// True once `count` calls have entered; false after `timeout`.
  bool WaitForEntries(int count, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout,
                        [this, count] { return entries_ >= count; });
  }
  int entries() {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    gated_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  NearestRecommender nearest_{kPrimaryK};
  int entries_ = 0;
  bool gated_ = true;
};

int Selected(const std::vector<bool>& recommended) {
  int selected = 0;
  for (bool b : recommended) selected += b ? 1 : 0;
  return selected;
}

/// Collects asynchronous responses by submission index.
class Responses {
 public:
  explicit Responses(int count) : responses_(count) {}
  std::function<void(const FriendResponse&)> Slot(int index) {
    return [this, index](const FriendResponse& response) {
      std::lock_guard<std::mutex> lock(mutex_);
      responses_[index] = response;
      ++done_;
      cv_.notify_all();
    };
  }
  const std::vector<FriendResponse>& WaitAll() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] {
      return done_ == static_cast<int>(responses_.size());
    });
    return responses_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<FriendResponse> responses_;
  int done_ = 0;
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

  EXPECT_FALSE(server.HasRoom(7));
  EXPECT_EQ(server.Handle({.room = 7, .user = 0}).status.code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(server.HasRoom(0));
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
  options.default_deadline_ms = -1.0;
  // The budget is one no queue wait reaches, and the primary takes
  // twice as long: the request is degraded, never timed out in queue.
  RecommendationServer server(
      MakeRooms(dataset, 1),
      [] { return std::make_unique<SlowRecommender>(500.0); }, options);

  const FriendResponse response =
      server.Handle({.room = 0, .user = 2, .deadline_ms = 250.0});
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.used_fallback);
  // The answer is the fallback's, not the slow primary's all-false one.
  int selected = 0;
  for (bool b : response.recommended) selected += b ? 1 : 0;
  EXPECT_EQ(selected, RecommendationServer::kFallbackK);
  EXPECT_EQ(server.metrics().fallbacks_deadline.load(), 1);
  EXPECT_EQ(server.metrics().timeouts.load(), 0);
}

TEST(ServerTest, MisbehavingPrimaryDegradesToNearestFallback) {
  const Dataset dataset = SmallDataset();
  ServerOptions options;
  options.default_deadline_ms = -1.0;
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
  ServerOptions options;
  options.default_deadline_ms = -1.0;
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

TEST(ServerTest, OneRoomRunsOnEveryFreeWorker) {
  const Dataset dataset = SmallDataset();
  ServerOptions options;
  options.num_threads = 2;
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

  // Two requests for the same room are two pool tasks, so both workers
  // enter the model while the gate is shut. A scheduler that ran a
  // room's requests on one worker would hold the second one back until
  // the first returned, and the bounded wait below would fail.
  server.Submit({.room = 0, .user = 1}, record);
  server.Submit({.room = 0, .user = 2}, record);
  const bool both_entered =
      gate->WaitForEntries(2, std::chrono::milliseconds(5000));
  gate->Release();  // either way, so a failing run still drains
  EXPECT_TRUE(both_entered) << "the second request never reached the model";
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done == 2; });
  }
  server.Shutdown();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(server.metrics().queue_depth.load(), 0);
}

TEST(ServerTest, AnswerSlotCallsThePrimaryOncePerTargetPerTick) {
  const Dataset dataset = SmallDataset();
  ServerOptions options;
  options.num_threads = 2;
  options.default_deadline_ms = -1.0;
  auto owned = std::make_unique<CountingNearest>();
  CountingNearest* primary = owned.get();  // the server owns it
  RecommendationServer server(
      MakeRooms(dataset, 1), [&owned] { return std::move(owned); }, options);

  constexpr int kRepeats = 5;
  std::vector<bool> first;
  for (int i = 0; i < kRepeats; ++i) {
    const FriendResponse response = server.Handle({.room = 0, .user = 4});
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_FALSE(response.used_fallback);
    EXPECT_EQ(response.tick, 0);
    if (i == 0) first = response.recommended;
    EXPECT_EQ(response.recommended, first) << "request " << i;
  }
  EXPECT_EQ(Selected(first), kPrimaryK);
  EXPECT_EQ(primary->calls(), 1);
  // Every request but the one that filled the slot shared it.
  EXPECT_EQ(server.metrics().answers_shared.load(), kRepeats - 1);

  // Another target on the same snapshot fills its own slot.
  ASSERT_TRUE(server.Handle({.room = 0, .user = 5}).status.ok());
  EXPECT_EQ(primary->calls(), 2);
  EXPECT_EQ(server.metrics().answers_shared.load(), kRepeats - 1);

  // The next tick publishes a snapshot with empty slots.
  ASSERT_TRUE(server.TickRoom(0).ok());
  for (int i = 0; i < kRepeats; ++i) {
    const FriendResponse response = server.Handle({.room = 0, .user = 4});
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.tick, 1);
  }
  EXPECT_EQ(primary->calls(), 3);
  EXPECT_EQ(server.metrics().answers_shared.load(), 2 * (kRepeats - 1));
  EXPECT_EQ(server.metrics().responses_ok.load(), 2 * kRepeats + 1);
}

TEST(ServerTest, ConcurrentRequestsForOneTargetShareOneCall) {
  const Dataset dataset = SmallDataset();
  constexpr int kRequests = 8;
  ServerOptions options;
  options.num_threads = kRequests;
  options.default_deadline_ms = -1.0;
  auto owned = std::make_unique<GatedRecommender>();
  GatedRecommender* gate = owned.get();  // the server owns it
  RecommendationServer server(
      MakeRooms(dataset, 1), [&owned] { return std::move(owned); }, options);

  Responses responses(kRequests);
  for (int i = 0; i < kRequests; ++i)
    server.Submit({.room = 0, .user = 6}, responses.Slot(i));
  const bool entered = gate->WaitForEntries(1, std::chrono::seconds(5));
  // The other requests wait on the slot the first one is filling; any
  // that get there after the release read the filled slot instead.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate->Release();
  ASSERT_TRUE(entered) << "no request reached the model";
  const std::vector<FriendResponse>& answered = responses.WaitAll();
  server.Shutdown();

  EXPECT_EQ(gate->entries(), 1);
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(answered[i].status.ok()) << answered[i].status.ToString();
    EXPECT_FALSE(answered[i].used_fallback);
    EXPECT_EQ(answered[i].recommended, answered[0].recommended)
        << "request " << i;
  }
  EXPECT_EQ(Selected(answered[0].recommended), kPrimaryK);
  EXPECT_EQ(server.metrics().answers_shared.load(), kRequests - 1);
}

TEST(ServerTest, RequestPastItsDeadlineOnTheSlotGetsTheFallback) {
  const Dataset dataset = SmallDataset();
  ServerOptions options;
  options.num_threads = 2;
  options.default_deadline_ms = -1.0;
  auto owned = std::make_unique<GatedRecommender>();
  GatedRecommender* gate = owned.get();  // the server owns it
  RecommendationServer server(
      MakeRooms(dataset, 1), [&owned] { return std::move(owned); }, options);

  // The first request fills the slot and is held in the model. The
  // second one, for the same target, has a budget no queue wait
  // reaches, and waits on the slot for twice that.
  Responses responses(2);
  server.Submit({.room = 0, .user = 6, .deadline_ms = -1.0},
                responses.Slot(0));
  const bool entered = gate->WaitForEntries(1, std::chrono::seconds(5));
  server.Submit({.room = 0, .user = 6, .deadline_ms = 250.0},
                responses.Slot(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  gate->Release();
  ASSERT_TRUE(entered) << "the first request never reached the model";
  const std::vector<FriendResponse>& answered = responses.WaitAll();

  ASSERT_TRUE(answered[0].status.ok()) << answered[0].status.ToString();
  EXPECT_FALSE(answered[0].used_fallback);
  EXPECT_EQ(Selected(answered[0].recommended), kPrimaryK);
  ASSERT_TRUE(answered[1].status.ok()) << answered[1].status.ToString();
  EXPECT_TRUE(answered[1].used_fallback);
  EXPECT_EQ(Selected(answered[1].recommended),
            RecommendationServer::kFallbackK);
  EXPECT_EQ(server.metrics().fallbacks_deadline.load(), 1);
  EXPECT_EQ(server.metrics().timeouts.load(), 0);

  // The slot kept the primary's answer for the next request.
  const FriendResponse next = server.Handle({.room = 0, .user = 6});
  ASSERT_TRUE(next.status.ok()) << next.status.ToString();
  EXPECT_FALSE(next.used_fallback);
  EXPECT_EQ(next.recommended, answered[0].recommended);
  EXPECT_EQ(gate->entries(), 1);
  EXPECT_EQ(server.metrics().answers_shared.load(), 2);
}

TEST(ServerTest, WrongSizePrimaryDegradesEveryRequestOnTheSlot) {
  const Dataset dataset = SmallDataset();
  ServerOptions options;
  options.default_deadline_ms = -1.0;
  auto owned = std::make_unique<MisbehavingRecommender>();
  MisbehavingRecommender* primary = owned.get();  // the server owns it
  RecommendationServer server(
      MakeRooms(dataset, 1), [&owned] { return std::move(owned); }, options);

  constexpr int kRepeats = 3;
  for (int i = 0; i < kRepeats; ++i) {
    const FriendResponse response = server.Handle({.room = 0, .user = 2});
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.used_fallback) << "request " << i;
    EXPECT_EQ(Selected(response.recommended),
              RecommendationServer::kFallbackK);
  }
  EXPECT_EQ(primary->calls(), 1);
  EXPECT_EQ(server.metrics().fallbacks_misbehaved.load(), kRepeats);
  EXPECT_EQ(server.metrics().answers_shared.load(), kRepeats - 1);
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
