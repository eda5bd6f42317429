#include "serve/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/nearest_recommender.h"
#include "gtest/gtest.h"
#include "serve/net_client.h"
#include "serve/server.h"
#include "serve/wire.h"

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

/// Thread-safe primary that sleeps, then answers correct-size all-false.
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

/// One in-process "shard": RecommendationServer + NetServer front.
struct TestShard {
  explicit TestShard(const Dataset& dataset, ServerOptions server_options,
                     RecommenderFactory factory, int rooms = 2)
      : server(MakeRooms(dataset, rooms), std::move(factory),
               server_options) {
    NetServerOptions net_options;  // ephemeral port
    net = std::make_unique<NetServer>(NetServer::HandlerFor(&server),
                                      net_options);
    const Status started = net->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~TestShard() { net->Shutdown(); }

  RecommendationServer server;
  std::unique_ptr<NetServer> net;
};

ServerOptions NoDeadlineOptions() {
  ServerOptions options;
  options.num_threads = 2;
  options.default_deadline_ms = -1.0;
  return options;
}

/// Raw TCP connect for protocol-abuse tests that NetClient (which only
/// speaks well-formed frames) cannot express.
int RawConnect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

/// Reads until EOF or timeout; returns everything received.
std::string RawReadUntilClose(int fd, int timeout_ms) {
  std::string received;
  char chunk[512];
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) break;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    received.append(chunk, static_cast<size_t>(n));
  }
  return received;
}

void AppendU32(uint32_t value, std::string* out) {
  for (int i = 0; i < 4; ++i)
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xff));
}

TEST(NetServerTest, CallRoundTripsAndMatchesInProcessHandle) {
  const Dataset dataset = SmallDataset();
  TestShard shard(dataset, NoDeadlineOptions(),
                  [] { return std::make_unique<NearestRecommender>(5); });

  auto client = NetClient::Connect("127.0.0.1", shard.net->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  FriendRequest request;
  request.room = 1;
  request.user = 3;
  request.deadline_ms = -1.0;
  auto over_wire = client.value()->Call(request);
  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
  ASSERT_TRUE(over_wire.value().status.ok())
      << over_wire.value().status.ToString();

  // Nearest is stateless and no ticker runs, so the in-process answer
  // against the same snapshot must be bit-identical.
  const FriendResponse direct = shard.server.Handle(request);
  EXPECT_EQ(over_wire.value().recommended, direct.recommended);
  EXPECT_EQ(over_wire.value().tick, direct.tick);
  EXPECT_FALSE(over_wire.value().used_fallback);
  EXPECT_EQ(shard.net->connections_accepted(), 1);
}

TEST(NetServerTest, PingPongWorks) {
  const Dataset dataset = SmallDataset();
  TestShard shard(dataset, NoDeadlineOptions(),
                  [] { return std::make_unique<NearestRecommender>(5); });
  auto client = NetClient::Connect("127.0.0.1", shard.net->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->Ping().ok());
  EXPECT_TRUE(client.value()->Ping().ok());  // connection survives
}

TEST(NetServerTest, ServerErrorsTravelTheWire) {
  const Dataset dataset = SmallDataset();
  TestShard shard(dataset, NoDeadlineOptions(),
                  [] { return std::make_unique<NearestRecommender>(5); });
  auto client = NetClient::Connect("127.0.0.1", shard.net->port());
  ASSERT_TRUE(client.ok());

  auto bad_room = client.value()->Call({.room = 7, .user = 0});
  ASSERT_TRUE(bad_room.ok());  // transport fine; app status carries it
  EXPECT_EQ(bad_room.value().status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(bad_room.value().status.message().empty());

  auto bad_user = client.value()->Call({.room = 0, .user = 999});
  ASSERT_TRUE(bad_user.ok());
  EXPECT_EQ(bad_user.value().status.code(), StatusCode::kInvalidData);
  EXPECT_FALSE(client.value()->broken());
}

TEST(NetServerTest, DegradationLadderTravelsTheWire) {
  const Dataset dataset = SmallDataset();
  ServerOptions options = NoDeadlineOptions();
  options.num_threads = 1;
  TestShard shard(dataset, options,
                  [] { return std::make_unique<SlowRecommender>(500.0); });
  auto client = NetClient::Connect("127.0.0.1", shard.net->port());
  ASSERT_TRUE(client.ok());

  // Slow primary misses the 250 ms budget, which no queue wait reaches:
  // the shard degrades to the nearest-neighbour fallback and the flag
  // must survive serialization.
  auto response =
      client.value()->Call({.room = 0, .user = 2, .deadline_ms = 250.0});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response.value().status.ok())
      << response.value().status.ToString();
  EXPECT_TRUE(response.value().used_fallback);
  int selected = 0;
  for (bool b : response.value().recommended) selected += b ? 1 : 0;
  EXPECT_EQ(selected, RecommendationServer::kFallbackK);
}

TEST(NetServerTest, ShedTravelsTheWire) {
  const Dataset dataset = SmallDataset();
  ServerOptions options = NoDeadlineOptions();
  options.num_threads = 1;
  options.queue_capacity = 1;
  TestShard shard(dataset, options,
                  [] { return std::make_unique<SlowRecommender>(50.0); });

  const int kCallers = 6;
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      auto client = NetClient::Connect("127.0.0.1", shard.net->port());
      ASSERT_TRUE(client.ok());
      auto response =
          client.value()->Call({.room = 0, .user = c, .deadline_ms = -1.0});
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      if (response.value().status.ok())
        ok.fetch_add(1);
      else if (response.value().status.code() ==
               StatusCode::kResourceExhausted)
        shed.fetch_add(1);
      else
        other.fetch_add(1);
    });
  }
  for (auto& caller : callers) caller.join();
  // One in the worker + one queued; with six simultaneous callers at
  // least one must be shed, and the shed answer crosses the wire as
  // kResourceExhausted — not as a dropped connection.
  EXPECT_EQ(ok.load() + shed.load(), kCallers);
  EXPECT_GE(shed.load(), 1);
  EXPECT_EQ(other.load(), 0);
}

TEST(NetServerTest, GarbageBytesCloseTheConnection) {
  const Dataset dataset = SmallDataset();
  TestShard shard(dataset, NoDeadlineOptions(),
                  [] { return std::make_unique<NearestRecommender>(5); });

  const int fd = RawConnect(shard.net->port());
  const std::string junk = "this is definitely not a wire frame";
  ASSERT_EQ(::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(junk.size()));
  // The server must hang up (framing is unrecoverable), not answer.
  EXPECT_TRUE(RawReadUntilClose(fd, 2000).empty());
  ::close(fd);
  EXPECT_GE(shard.net->frames_rejected(), 1);

  // And the listener must still be healthy for the next client.
  auto client = NetClient::Connect("127.0.0.1", shard.net->port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client.value()->Ping().ok());
}

TEST(NetServerTest, WellFramedBadPayloadIsAnsweredInvalidArgument) {
  const Dataset dataset = SmallDataset();
  TestShard shard(dataset, NoDeadlineOptions(),
                  [] { return std::make_unique<NearestRecommender>(5); });

  // Hand-build a correctly framed kRequest whose payload is 10 bytes —
  // a valid id plus junk, too short to be a FriendRequest.
  std::string bytes;
  AppendU32(wire::kMagic, &bytes);
  bytes.push_back(static_cast<char>(wire::kProtocolVersion));
  bytes.push_back(static_cast<char>(wire::MessageType::kRequest));
  bytes.push_back(0);
  bytes.push_back(0);  // reserved
  AppendU32(10, &bytes);
  const uint64_t id = 4242;
  for (int i = 0; i < 8; ++i)
    bytes.push_back(static_cast<char>((id >> (8 * i)) & 0xff));
  bytes.push_back('x');
  bytes.push_back('y');

  const int fd = RawConnect(shard.net->port());
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
  const std::string reply = RawReadUntilClose(fd, 2000);
  ::close(fd);

  wire::Frame frame;
  size_t consumed = 0;
  ASSERT_TRUE(wire::ExtractFrame(reply, &frame, &consumed).ok());
  ASSERT_EQ(frame.type, wire::MessageType::kResponse);
  auto decoded = wire::DecodeResponse(frame.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().id, id);  // correlation id echoed back
  EXPECT_EQ(decoded.value().response.status.code(),
            StatusCode::kInvalidArgument);
}

TEST(NetServerTest, ShutdownBreaksClientsWithUnavailable) {
  const Dataset dataset = SmallDataset();
  auto shard = std::make_unique<TestShard>(
      dataset, NoDeadlineOptions(),
      [] { return std::make_unique<NearestRecommender>(5); });
  auto client = NetClient::Connect("127.0.0.1", shard->net->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->Ping().ok());

  shard->net->Shutdown();
  auto response =
      client.value()->Call({.room = 0, .user = 1, .deadline_ms = -1.0});
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(client.value()->broken());
}

TEST(NetServerTest, ConcurrentClientsAllComplete) {
  const Dataset dataset = SmallDataset(20, 4);
  ServerOptions options = NoDeadlineOptions();
  options.num_threads = 4;
  options.queue_capacity = 256;
  TestShard shard(dataset, options,
                  [] { return std::make_unique<NearestRecommender>(5); },
                  /*rooms=*/4);

  const int kClients = 4, kPerClient = 40;
  std::atomic<int> completions{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = NetClient::Connect("127.0.0.1", shard.net->port());
      ASSERT_TRUE(client.ok());
      for (int i = 0; i < kPerClient; ++i) {
        auto response = client.value()->Call(
            {.room = (c + i) % 4, .user = (7 * c + i) % 20,
             .deadline_ms = -1.0});
        if (response.ok() && response.value().status.ok())
          completions.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(completions.load(), kClients * kPerClient);
  EXPECT_EQ(shard.net->connections_accepted(), kClients);
  EXPECT_EQ(shard.net->frames_rejected(), 0);
}

/// A connection's parked requests and their completions, held by a test
/// handler that decides when (and whether) each one is answered.
struct Parked {
  std::mutex mutex;
  std::vector<FriendRequest> requests;
  std::vector<std::function<void(const FriendResponse&)>> done;
};

TEST(NetClientTest, PipelinedBurstComesBackIndexAligned) {
  // The handler parks the whole burst, then answers it last request
  // first from another thread, through the in-process server, so every
  // response leaves the shard out of order. One request names a user
  // the room does not have.
  constexpr int kBurst = 10, kBadSlot = 6;
  const Dataset dataset = SmallDataset();
  RecommendationServer server(
      MakeRooms(dataset, 2),
      [] { return std::make_unique<NearestRecommender>(5); },
      NoDeadlineOptions());
  Parked parked;
  std::thread answerer;
  NetServer net(
      [&](const FriendRequest& request,
          std::function<void(const FriendResponse&)> done) {
        std::lock_guard<std::mutex> lock(parked.mutex);
        parked.requests.push_back(request);
        parked.done.push_back(std::move(done));
        if (static_cast<int>(parked.requests.size()) < kBurst) return;
        answerer = std::thread([&] {
          for (int i = kBurst - 1; i >= 0; --i)
            parked.done[i](server.Handle(parked.requests[i]));
        });
      },
      NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());

  std::vector<FriendRequest> burst;
  for (int i = 0; i < kBurst; ++i)
    burst.push_back({.room = i % 2,
                     .user = i == kBadSlot ? 999 : i,
                     .deadline_ms = -1.0});
  auto client = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const std::vector<Result<FriendResponse>> results =
      client.value()->CallPipelined(burst);
  // Read before the shutdown below, which ends the connection.
  EXPECT_FALSE(client.value()->broken());
  net.Shutdown();
  if (answerer.joinable()) answerer.join();

  ASSERT_EQ(results.size(), burst.size());
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(results[i].ok()) << "slot " << i << ": "
                                 << results[i].status().ToString();
    const FriendResponse& got = results[i].value();
    if (i == kBadSlot) {
      EXPECT_EQ(got.status.code(), StatusCode::kInvalidData) << "slot " << i;
      continue;
    }
    ASSERT_TRUE(got.status.ok()) << "slot " << i << ": "
                                 << got.status.ToString();
    // Every slot holds its own request's answer: the targets differ, so
    // a response filed under the wrong index would not match.
    EXPECT_EQ(got.recommended, server.Handle(burst[i]).recommended)
        << "slot " << i;
  }
}

TEST(NetClientTest, TwoThreadsBurstOverOneClientAndEachGetsItsOwnAnswers) {
  // Two threads share one client, each with a pipelined burst. The
  // handler parks both bursts, then answers every request last first,
  // so the two bursts' responses interleave on the one connection. The
  // threads ask about different users, so an answer filed under the
  // other thread's burst, or under the wrong index, would not match.
  constexpr int kBurst = 6, kThreads = 2;
  const Dataset dataset = SmallDataset();
  RecommendationServer server(
      MakeRooms(dataset, 2),
      [] { return std::make_unique<NearestRecommender>(5); },
      NoDeadlineOptions());
  Parked parked;
  std::thread answerer;
  NetServer net(
      [&](const FriendRequest& request,
          std::function<void(const FriendResponse&)> done) {
        std::lock_guard<std::mutex> lock(parked.mutex);
        parked.requests.push_back(request);
        parked.done.push_back(std::move(done));
        if (static_cast<int>(parked.requests.size()) < kThreads * kBurst)
          return;
        answerer = std::thread([&] {
          for (int i = kThreads * kBurst - 1; i >= 0; --i)
            parked.done[i](server.Handle(parked.requests[i]));
        });
      },
      NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::vector<std::vector<FriendRequest>> bursts(kThreads);
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kBurst; ++i)
      bursts[t].push_back(
          {.room = t, .user = t * kBurst + i, .deadline_ms = -1.0});
  std::vector<std::vector<Result<FriendResponse>>> results(kThreads);
  std::vector<std::thread> senders;
  for (int t = 0; t < kThreads; ++t)
    senders.emplace_back(
        [&, t] { results[t] = client.value()->CallPipelined(bursts[t]); });
  for (std::thread& sender : senders) sender.join();
  EXPECT_FALSE(client.value()->broken());
  net.Shutdown();
  if (answerer.joinable()) answerer.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), bursts[t].size()) << "thread " << t;
    for (int i = 0; i < kBurst; ++i) {
      ASSERT_TRUE(results[t][i].ok())
          << "thread " << t << " slot " << i << ": "
          << results[t][i].status().ToString();
      const FriendResponse& got = results[t][i].value();
      ASSERT_TRUE(got.status.ok()) << "thread " << t << " slot " << i
                                   << ": " << got.status.ToString();
      EXPECT_EQ(got.recommended, server.Handle(bursts[t][i]).recommended)
          << "thread " << t << " slot " << i;
    }
  }
}

TEST(NetClientTest, PeerClosingMidCollectFailsTheUnansweredSlots) {
  // The handler answers users 0-2 at once and parks the rest; once the
  // whole burst has arrived, another thread shuts the server down, so
  // the client reads three responses and then the peer's close.
  constexpr int kBurst = 8, kAnswered = 3;
  Parked parked;
  std::promise<void> all_arrived;
  NetServer net(
      [&](const FriendRequest& request,
          std::function<void(const FriendResponse&)> done) {
        if (request.user < kAnswered) {
          FriendResponse response;
          response.tick = 1000 + request.user;
          done(response);
        } else {
          std::lock_guard<std::mutex> lock(parked.mutex);
          parked.done.push_back(std::move(done));
        }
        if (request.user == kBurst - 1) all_arrived.set_value();
      },
      NetServerOptions{});
  ASSERT_TRUE(net.Start().ok());
  std::vector<FriendRequest> burst;
  for (int i = 0; i < kBurst; ++i)
    burst.push_back({.room = 0, .user = i, .deadline_ms = -1.0});
  auto client = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::thread closer([&net, arrived = all_arrived.get_future()] {
    arrived.wait_for(std::chrono::seconds(5));  // bounded: never hang
    net.Shutdown();
  });
  const std::vector<Result<FriendResponse>> results =
      client.value()->CallPipelined(burst);
  closer.join();

  ASSERT_EQ(results.size(), burst.size());
  for (int i = 0; i < kBurst; ++i) {
    if (i < kAnswered) {
      ASSERT_TRUE(results[i].ok()) << "slot " << i << ": "
                                   << results[i].status().ToString();
      EXPECT_EQ(results[i].value().tick, 1000 + i);
    } else {
      EXPECT_EQ(results[i].status().code(), StatusCode::kUnavailable)
          << "slot " << i;
    }
  }
  EXPECT_TRUE(client.value()->broken());
  // A broken client fails fast instead of writing to a dead socket.
  EXPECT_EQ(client.value()->Ping().code(), StatusCode::kUnavailable);
}

TEST(NetServerTest, DialBurstWhileTheReactorStallsConnectsAtOnce) {
  // A dial the kernel's accept queue cannot hold has its SYN dropped and
  // waits out a 1 s retransmit. A handler that stalls the reactor for
  // 400 ms stands in for a reactor that falls behind a C10k dial: every
  // dial that lands meanwhile must complete its handshake within 500 ms.
  constexpr int kDials = 300;
  int somaxconn = 0;
  std::ifstream("/proc/sys/net/core/somaxconn") >> somaxconn;
  if (somaxconn > 0 && somaxconn <= kDials)
    GTEST_SKIP() << "net.core.somaxconn=" << somaxconn
                 << " caps the accept queue below the burst";

  std::atomic<bool> stalled{false};
  NetServerOptions options;
  options.max_connections = 2 * kDials;
  NetServer net(
      [&stalled](const FriendRequest&,
                 std::function<void(const FriendResponse&)> done) {
        stalled.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        done(FriendResponse{});
      },
      options);
  ASSERT_TRUE(net.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::thread caller([&client] {
    (void)client.value()->Call({.room = 0, .user = 0, .deadline_ms = -1.0});
  });
  while (!stalled.load()) std::this_thread::yield();

  const auto start = std::chrono::steady_clock::now();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(net.port()));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::vector<pollfd> pending;
  for (int i = 0; i < kDials; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    ASSERT_GE(fd, 0) << std::strerror(errno);
    const int rc =
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    ASSERT_TRUE(rc == 0 || errno == EINPROGRESS) << std::strerror(errno);
    pending.push_back({fd, POLLOUT, 0});
  }
  std::vector<int> dialed;
  for (const pollfd& dial : pending) dialed.push_back(dial.fd);

  int connected = 0;
  while (!pending.empty()) {
    const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    const int budget_ms = 500 - static_cast<int>(waited.count());
    if (budget_ms <= 0 ||
        ::poll(pending.data(), pending.size(), budget_ms) <= 0)
      break;
    std::vector<pollfd> still;
    for (const pollfd& dial : pending) {
      if (dial.revents == 0) {
        still.push_back({dial.fd, POLLOUT, 0});
        continue;
      }
      int error = 0;
      socklen_t len = sizeof(error);
      ::getsockopt(dial.fd, SOL_SOCKET, SO_ERROR, &error, &len);
      if (error == 0) ++connected;
    }
    pending = std::move(still);
  }
  EXPECT_EQ(connected, kDials);
  for (const int fd : dialed) ::close(fd);
  caller.join();
  net.Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace after
