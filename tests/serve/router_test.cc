#include "serve/router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "partition_fleet.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/server.h"

namespace after {
namespace serve {
namespace {

std::vector<BackendAddress> FakeBackends(int count) {
  std::vector<BackendAddress> backends;
  for (int i = 0; i < count; ++i)
    backends.push_back({"10.0.0." + std::to_string(i + 1), 7000 + i});
  return backends;
}

/// A loopback peer that speaks no protocol. It accepts one connection
/// and waits for the first byte of the caller's frame. A resetting peer
/// then resets the connection (SO_LINGER 0): the caller's send has
/// completed by then, so the reset reaches the link's reader as a recv
/// error, not as EOF. A silent peer keeps reading and never answers,
/// until the caller closes the connection.
class MutePeer {
 public:
  enum class Mode { kReset, kSilent };

  explicit MutePeer(Mode mode) {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(listener_, reinterpret_cast<sockaddr*>(&addr), len), 0);
    EXPECT_EQ(::listen(listener_, 4), 0);
    ::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    peer_ = std::thread([this, mode] {
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) return;  // the listener was shut down
      char chunk[4096];
      if (mode == Mode::kSilent) {
        while (::recv(fd, chunk, sizeof(chunk), 0) > 0) {
        }
      } else {
        (void)::recv(fd, chunk, 1, 0);
        const linger reset{1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
      }
      ::close(fd);
    });
  }
  ~MutePeer() {
    ::shutdown(listener_, SHUT_RDWR);  // wakes an accept nobody dialed
    peer_.join();
    ::close(listener_);
  }

  int port() const { return port_; }

 private:
  int listener_ = -1;
  int port_ = 0;
  std::thread peer_;
};

TEST(RouterTest, HashIsStableAcrossRouterInstances) {
  // ShardFor never dials, so fake addresses are fine here.
  RouterOptions options;
  ShardRouter first(FakeBackends(5), options);
  ShardRouter second(FakeBackends(5), options);
  for (int room = 0; room < 500; ++room)
    ASSERT_EQ(first.ShardFor(room), second.ShardFor(room)) << room;
}

TEST(RouterTest, HashSpreadsRoomsOverEveryBackend) {
  RouterOptions options;
  ShardRouter router(FakeBackends(5), options);
  std::set<int> used;
  for (int room = 0; room < 500; ++room) used.insert(router.ShardFor(room));
  EXPECT_EQ(used.size(), 5u);
}

TEST(RouterTest, AddingABackendMovesOnlyAFractionOfRooms) {
  // The consistent-hashing contract: growing the fleet from N to N+1
  // should move ~1/(N+1) of rooms, not reshuffle everything.
  RouterOptions options;
  ShardRouter before(FakeBackends(4), options);
  ShardRouter after_grow(FakeBackends(5), options);
  const int kRooms = 1000;
  int moved = 0;
  for (int room = 0; room < kRooms; ++room) {
    if (before.ShardFor(room) != after_grow.ShardFor(room)) ++moved;
  }
  EXPECT_GT(moved, 0);              // the new backend does take rooms
  EXPECT_LT(moved, kRooms / 2);     // but nowhere near a full reshuffle
}

TEST(RouterTest, RoutesToThePrimary) {
  PartitionFleet fleet(/*num_shards=*/2, /*rooms=*/4, /*replication=*/1);
  const auto assignment = fleet.router->AssignmentSnapshot();
  for (int room = 0; room < 4; ++room) {
    const int primary = assignment.at(room).copies[0];
    const int64_t before = fleet.shards[primary]->answered();
    const FriendResponse response = fleet.Route(room, 1);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(fleet.shards[primary]->answered(), before + 1)
        << "room " << room << " not served by its primary " << primary;
  }
  EXPECT_EQ(fleet.router->metrics().retried.load(), 0);
  EXPECT_EQ(fleet.router->metrics().exhausted.load(), 0);
}

TEST(RouterTest, RoomOutsideThePartitionIsNotFoundWithoutABackendHop) {
  PartitionFleet fleet(/*num_shards=*/2, /*rooms=*/4, /*replication=*/1);
  std::vector<int64_t> submitted, not_owner;
  for (auto& shard : fleet.shards) {
    submitted.push_back(shard->server.metrics().requests_submitted.load());
    not_owner.push_back(shard->net->not_owner_replies());
  }
  for (const int room : {fleet.num_rooms, -1}) {
    const FriendResponse response = fleet.Route(room, 1);
    EXPECT_EQ(response.status.code(), StatusCode::kNotFound)
        << "room " << room << ": " << response.status.ToString();
  }
  for (size_t s = 0; s < fleet.shards.size(); ++s) {
    EXPECT_EQ(fleet.shards[s]->server.metrics().requests_submitted.load(),
              submitted[s])
        << "shard " << s;
    EXPECT_EQ(fleet.shards[s]->net->not_owner_replies(), not_owner[s])
        << "shard " << s;
  }
  EXPECT_EQ(fleet.router->metrics().retried.load(), 0);
  EXPECT_EQ(fleet.router->metrics().exhausted.load(), 0);
}

TEST(RouterTest, MuxLinksAreReusedAcrossCalls) {
  PartitionFleet fleet(/*num_shards=*/1, /*rooms=*/2, /*replication=*/0);
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(fleet.Route(i % 2, i).status.ok());
  EXPECT_GE(fleet.router->metrics().link_reuse.load(), 8);
  EXPECT_LE(fleet.router->metrics().connects.load(), 2);
}

TEST(RouterTest, FailoverOnADeadBackendLosesNothing) {
  PartitionFleet fleet(/*num_shards=*/2, /*rooms=*/4, /*replication=*/1);
  // Kill room 0's primary after warming a mux link to it, so the failure
  // is discovered mid-call. No repair runs: the standby must answer.
  const int victim_room = 0;
  const auto assignment = fleet.router->AssignmentSnapshot();
  const int victim = assignment.at(victim_room).copies[0];
  const int standby = assignment.at(victim_room).copies[1];
  ASSERT_TRUE(fleet.Route(victim_room, 1).status.ok());

  fleet.shards[victim]->net->Shutdown();

  const int64_t standby_before = fleet.shards[standby]->answered();
  const FriendResponse response = fleet.Route(victim_room, 2);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(fleet.shards[standby]->answered(), standby_before + 1);
  EXPECT_GE(fleet.router->metrics().retried.load(), 1);
  EXPECT_GE(fleet.router->metrics().ejections.load(), 1);
  EXPECT_FALSE(fleet.router->backend_healthy(victim));
  EXPECT_EQ(fleet.router->metrics().exhausted.load(), 0);

  // While ejected, requests for the victim's rooms go straight to the
  // standby without paying a connect attempt to the dead backend.
  const int64_t retried_before = fleet.router->metrics().retried.load();
  ASSERT_TRUE(fleet.Route(victim_room, 3).status.ok());
  EXPECT_EQ(fleet.router->metrics().retried.load(), retried_before);
}

TEST(RouterTest, AllBackendsDeadYieldsUnavailableNotAHang) {
  RouterOptions options;
  options.client.connect_timeout_ms = 200.0;
  PartitionFleet fleet(/*num_shards=*/2, /*rooms=*/2, /*replication=*/1,
                       options);
  fleet.shards[0]->net->Shutdown();
  fleet.shards[1]->net->Shutdown();
  const FriendResponse response = fleet.Route(0, 1);
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
  EXPECT_GE(fleet.router->metrics().exhausted.load(), 1);
}

TEST(RouterTest, ServerStatusesPassThroughWithoutRetry) {
  PartitionFleet fleet(/*num_shards=*/2, /*rooms=*/2, /*replication=*/1);
  // A degradation decision (here: invalid user) is the server's answer,
  // not a transport failure — retrying it on another shard would just
  // repeat the work and hide the error.
  const FriendResponse response = fleet.Route(0, 999);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidData);
  EXPECT_EQ(fleet.router->metrics().retried.load(), 0);
  EXPECT_EQ(fleet.router->metrics().ejections.load(), 0);
}

TEST(RouterTest, ProbeAllSeesDeadAndAliveBackends) {
  PartitionFleet fleet(/*num_shards=*/2, /*rooms=*/2, /*replication=*/0);
  fleet.router->ProbeAll();
  EXPECT_TRUE(fleet.router->backend_healthy(0));
  EXPECT_TRUE(fleet.router->backend_healthy(1));
  fleet.shards[0]->net->Shutdown();
  fleet.router->ProbeAll();
  EXPECT_FALSE(fleet.router->backend_healthy(0));
  EXPECT_TRUE(fleet.router->backend_healthy(1));
}

TEST(RouterTest, ProbeEjectsABackendThatResetsTheLink) {
  // The dial succeeds, so the ejection comes from the failed ping on a
  // live link, not from a refused connect.
  MutePeer peer(MutePeer::Mode::kReset);
  ShardRouter router({{"127.0.0.1", peer.port()}}, RouterOptions{});
  router.ProbeAll();
  EXPECT_EQ(router.metrics().connects.load(), 1);
  EXPECT_EQ(router.metrics().ejections.load(), 1);
  EXPECT_FALSE(router.backend_healthy(0));
}

TEST(MuxLinkTest, AResetLinkFailsEveryLaterCallWithoutSending) {
  MutePeer peer(MutePeer::Mode::kReset);
  auto link = NetClient::Connect("127.0.0.1", peer.port());
  ASSERT_TRUE(link.ok()) << link.status().ToString();
  const Status reset = link.value()->Ping();
  EXPECT_EQ(reset.code(), StatusCode::kUnavailable);
  EXPECT_NE(reset.message().find("recv"), std::string::npos)
      << reset.ToString();
  EXPECT_TRUE(link.value()->broken());

  // The reader failed the link for every caller: a later call fails
  // before it sends or waits.
  const Status later = link.value()->Ping();
  EXPECT_EQ(later.code(), StatusCode::kUnavailable);
  EXPECT_NE(later.message().find("already broken"), std::string::npos)
      << later.ToString();
}

TEST(MuxLinkTest, APeerThatNeverAnswersTimesOutEveryCall) {
  // Declared before the link, so the link closes the connection (and
  // ends the peer's read loop) before the peer is joined.
  MutePeer peer(MutePeer::Mode::kSilent);
  using Clock = std::chrono::steady_clock;
  NetClientOptions options;
  options.io_timeout_ms = 100.0;
  auto link = NetClient::Connect("127.0.0.1", peer.port(), options);
  ASSERT_TRUE(link.ok()) << link.status().ToString();
  NetClient& mux = *link.value();

  // The first call times out on its own. The second, sent 50 ms later,
  // is failed with the link (FailAll) before its own 100 ms run out.
  const auto started = Clock::now();
  Status first, second;
  Clock::duration second_waited{};
  std::thread first_call(
      [&] { first = mux.Call({.room = 0, .user = 1}).status(); });
  while (mux.inflight() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread second_call([&] {
    const auto sent = Clock::now();
    second = mux.Call({.room = 0, .user = 2}).status();
    second_waited = Clock::now() - sent;
  });
  first_call.join();
  second_call.join();
  EXPECT_LT(Clock::now() - started, std::chrono::seconds(2));
  EXPECT_EQ(first.code(), StatusCode::kUnavailable) << first.ToString();
  EXPECT_NE(first.message().find("response timed out"), std::string::npos)
      << first.ToString();
  EXPECT_EQ(second.code(), StatusCode::kUnavailable) << second.ToString();
  EXPECT_LT(second_waited, std::chrono::milliseconds(100));
  EXPECT_TRUE(mux.broken());

  // A third call fails before it sends.
  const Status third = mux.Call({.room = 0, .user = 3}).status();
  EXPECT_EQ(third.code(), StatusCode::kUnavailable);
  EXPECT_NE(third.message().find("already broken"), std::string::npos)
      << third.ToString();

  // A pipelined burst to a second silent peer waits out one budget for
  // all of its slots, not one per slot (ten would take a second).
  MutePeer burst_peer(MutePeer::Mode::kSilent);
  auto burst_link = NetClient::Connect("127.0.0.1", burst_peer.port(),
                                       options);
  ASSERT_TRUE(burst_link.ok()) << burst_link.status().ToString();
  std::vector<FriendRequest> burst;
  for (int user = 0; user < 10; ++user)
    burst.push_back({.room = 0, .user = user});
  const auto sent = Clock::now();
  const std::vector<Result<FriendResponse>> results =
      burst_link.value()->CallPipelined(burst);
  EXPECT_LT(Clock::now() - sent, std::chrono::milliseconds(500));
  ASSERT_EQ(results.size(), burst.size());
  for (size_t slot = 0; slot < results.size(); ++slot) {
    EXPECT_EQ(results[slot].status().code(), StatusCode::kUnavailable)
        << "slot " << slot;
    EXPECT_NE(results[slot].status().message().find("response timed out"),
              std::string::npos)
        << "slot " << slot << ": " << results[slot].status().ToString();
  }
  EXPECT_TRUE(burst_link.value()->broken());
}

TEST(RouterTest, ProberPromotesTheStandbyWithoutAManualSweep) {
  // Every other fleet test calls ProbeAll and RepairPartition by hand.
  // Here the router's own prober must find the dead primary and promote
  // the standby. Two shards with one standby each: the survivor holds a
  // copy of every room, so no rebalance can move the room elsewhere.
  using Clock = std::chrono::steady_clock;
  RouterOptions options;
  options.ejection_ms = 200.0;
  options.health_check_interval_ms = 20.0;
  PartitionFleet fleet(/*num_shards=*/2, /*rooms=*/4, /*replication=*/1,
                       options);
  const int victim_room = 0;
  const auto assignment = fleet.router->AssignmentSnapshot();
  const int victim = assignment.at(victim_room).copies[0];
  const int standby = assignment.at(victim_room).copies[1];

  const auto promoted = [&] {
    return fleet.router->AssignmentSnapshot().at(victim_room).copies[0] ==
           standby;
  };
  fleet.shards[victim]->net->Shutdown();
  const auto killed = Clock::now();
  while (!promoted() && Clock::now() - killed < std::chrono::seconds(5))
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(promoted()) << "no promotion 5 s after the kill";
  // A repair is counted before the table shows it.
  EXPECT_GE(fleet.router->metrics().repairs.load(), 1);
  EXPECT_FALSE(fleet.router->backend_healthy(victim));

  // The promoted standby answers as primary, with no retry through the
  // dead backend.
  const int64_t answered = fleet.shards[standby]->answered();
  const int64_t retried = fleet.router->metrics().retried.load();
  ASSERT_TRUE(fleet.Route(victim_room, 1).status.ok());
  EXPECT_EQ(fleet.shards[standby]->answered(), answered + 1);
  EXPECT_EQ(fleet.router->metrics().retried.load(), retried);

  // The prober sleeps in short slices, so Shutdown joins it promptly.
  const auto stopping = Clock::now();
  fleet.router->Shutdown();
  EXPECT_LT(Clock::now() - stopping, std::chrono::seconds(1));
}

TEST(RouterTest, ConcurrentClientsSurviveAShardDeath) {
  // The TSan target: many threads in Route() while a backend dies and
  // gets ejected under them. Every request must come back answered —
  // with two shards and one standby per room, shard 1 holds a copy of
  // every room, so no thread may observe a lost request.
  RouterOptions options;
  options.ejection_ms = 100.0;
  options.client.connect_timeout_ms = 500.0;
  PartitionFleet fleet(/*num_shards=*/2, /*rooms=*/4, /*replication=*/1,
                       options);

  const int kThreads = 4, kPerThread = 50;
  std::atomic<int> ok{0}, unavailable{0}, other{0};
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fleet.shards[0]->net->Shutdown();
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerThread; ++i) {
        const FriendResponse response =
            fleet.Route((c + i) % 4, (3 * c + i) % 16);
        if (response.status.ok())
          ok.fetch_add(1);
        else if (response.status.code() == StatusCode::kUnavailable)
          unavailable.fetch_add(1);
        else
          other.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  killer.join();

  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_EQ(unavailable.load(), 0);
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(fleet.router->metrics().routed.load(), kThreads * kPerThread);
}

}  // namespace
}  // namespace serve
}  // namespace after
