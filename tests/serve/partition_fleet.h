#ifndef AFTER_TESTS_SERVE_PARTITION_FLEET_H_
#define AFTER_TESTS_SERVE_PARTITION_FLEET_H_

// The in-process fleet the router, partition and durability tests share:
// shards that start empty and host what a router grants them over real
// loopback TCP, the shape of tools/serve_shard, addressable from a test.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/nearest_recommender.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "serve/codec.h"
#include "serve/net_server.h"
#include "serve/room.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/shard_control.h"

namespace after {
namespace serve {

inline Dataset SmallDataset(int num_users = 16, int num_steps = 8) {
  DatasetConfig config;
  config.num_users = num_users;
  config.num_steps = num_steps;
  config.num_sessions = 2;
  config.seed = 654;
  return GenerateTimikLike(config);
}

/// The same deterministic per-room factory every shard in a fleet uses
/// (tools/serve_shard): identical seeds mean a fresh replica of room r
/// is bit-exact with any other shard's fresh replica of room r until
/// their tick counts diverge.
inline RoomFactory FactoryFor(const Dataset* dataset) {
  return [dataset](int r) -> Result<std::unique_ptr<Room>> {
    Room::Options options;
    options.id = r;
    options.mode = Room::Mode::kLive;
    options.seed = 900 + r;
    return Room::Create(options, dataset);
  };
}

inline ServerOptions TestServerOptions() {
  ServerOptions options;
  options.num_threads = 2;
  options.default_deadline_ms = -1.0;
  return options;
}

/// A frame as a migration and the journal encode it: equal bytes mean a
/// bit-exact tick, positions and goals.
inline std::string Encoded(const TickFrame& frame) {
  std::string bytes;
  AppendTickFrame(frame, &bytes);
  return bytes;
}

/// The room's state, encoded.
inline std::string FrameBytes(const Room& room) {
  return Encoded(room.CurrentTickFrame());
}

inline void ExpectSamePositions(const std::vector<Vec2>& want,
                                const std::vector<Vec2>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].x, got[i].x) << "user " << i;  // bit-exact, not near
    EXPECT_EQ(want[i].y, got[i].y) << "user " << i;
  }
}

/// One shard worker: starts owning nothing; the router grants rooms over
/// the wire.
struct PartitionShard {
  explicit PartitionShard(const Dataset& dataset)
      : server({}, [] { return std::make_unique<NearestRecommender>(5); },
               TestServerOptions()),
        control(&server, FactoryFor(&dataset)) {
    net = std::make_unique<NetServer>(NetServer::HandlerFor(&server),
                                      NetServerOptions{});
    net->set_room_control(NetServer::ControlFor(&control));
    const Status started = net->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
  ~PartitionShard() { net->Shutdown(); }

  BackendAddress address() const { return {"127.0.0.1", net->port()}; }
  int64_t answered() { return server.metrics().responses_ok.load(); }

  RecommendationServer server;
  ShardControl control;
  std::unique_ptr<NetServer> net;
};

/// Shards plus a router that has partitioned rooms [0, rooms) over them.
struct PartitionFleet {
  PartitionFleet(int num_shards, int rooms, int replication,
                 RouterOptions options = [] {
                   RouterOptions defaults;
                   defaults.ejection_ms = 200.0;
                   return defaults;
                 }())
      : dataset(SmallDataset()), num_rooms(rooms) {
    std::vector<BackendAddress> addresses;
    for (int s = 0; s < num_shards; ++s) {
      shards.push_back(std::make_unique<PartitionShard>(dataset));
      addresses.push_back(shards.back()->address());
    }
    options.replication_factor = replication;
    router = std::make_unique<ShardRouter>(addresses, options);
    const Status enabled = router->EnablePartition(rooms);
    EXPECT_TRUE(enabled.ok()) << enabled.ToString();
  }
  ~PartitionFleet() { router->Shutdown(); }

  FriendResponse Route(int room, int user) {
    return router->Route({.room = room, .user = user, .deadline_ms = -1.0});
  }

  /// Primary-room count per backend index, from the router's table.
  std::unordered_map<int, int> PrimaryCounts() const {
    std::unordered_map<int, int> counts;
    for (const auto& [room, assignment] : router->AssignmentSnapshot()) {
      EXPECT_FALSE(assignment.copies.empty()) << "room " << room;
      if (!assignment.copies.empty()) counts[assignment.copies[0]]++;
    }
    return counts;
  }

  Dataset dataset;
  int num_rooms;
  std::vector<std::unique_ptr<PartitionShard>> shards;
  std::unique_ptr<ShardRouter> router;
};

}  // namespace serve
}  // namespace after

#endif  // AFTER_TESTS_SERVE_PARTITION_FLEET_H_
