#ifndef AFTER_BENCH_FLEET_HARNESS_H_
#define AFTER_BENCH_FLEET_HARNESS_H_

// Self-contained serving fleet for the macro benchmarks: N shard
// servers plus a consistent-hash router front, all over real loopback
// sockets in one process. Extracted from bench/net_throughput.cc so the
// world-scale scenario driver (bench/world_sim.cc) shares one battle-
// tested harness instead of growing a second, subtly different fleet.
//
// The harness is deliberately policy-free about room contents: callers
// supply a FleetRoomFactory, so net_throughput builds uniform rooms
// from one dataset while world_sim builds Zipf-skewed room sizes from a
// per-size dataset pool. Everything else — partitioned ownership,
// replication standbys, durability replay, mid-run shard adds, and the
// cold-restart drill's rebuild path — is common machinery.

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "core/poshgnn.h"
#include "serve/checkpoint.h"
#include "serve/net_server.h"
#include "serve/room.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/shard_control.h"
#include "serve/thread_pool.h"

namespace after {
namespace bench {

/// Builds one room for the self-contained fleet. Called for every room
/// id a shard pre-builds (full replication) or is granted / rebuilds
/// (partitioned serving, cold restart). Must be deterministic per room
/// id: a standby or recovered copy has to be built from the same recipe
/// as the primary it replaces. Whatever the factory captures (datasets,
/// options) must outlive the fleet, including mid-run AddShard calls.
using FleetRoomFactory =
    std::function<Result<std::unique_ptr<serve::Room>>(int room)>;

/// Self-contained fleet: N shard servers plus a router front.
struct LocalFleet {
  /// Room recipe shared by every shard (see FleetRoomFactory).
  FleetRoomFactory room_factory;
  /// Guards the three shard vectors: AddShard (mid-run fleet growth)
  /// races the ticker thread otherwise.
  std::mutex mutex;
  /// Declared before the servers that borrow them, so destruction
  /// (reverse order) tears the servers down first.
  std::vector<std::unique_ptr<serve::DurabilityManager>> durabilities;
  /// One durable dir per durable shard, in shard order — the restart
  /// half of the cold-restart drill reopens exactly these.
  std::vector<std::string> durable_dirs;
  std::vector<std::unique_ptr<serve::RecommendationServer>> shards;
  std::vector<std::unique_ptr<serve::ShardControl>> controls;
  std::vector<std::unique_ptr<serve::NetServer>> shard_nets;
  std::unique_ptr<serve::ShardRouter> router;
  std::unique_ptr<serve::ThreadPool> router_pool;
  std::unique_ptr<serve::NetServer> router_net;
  std::atomic<bool> stop{false};
  std::thread ticker;

  ~LocalFleet();
};

/// Starts one shard worker and appends it to the fleet. Partitioned
/// shards start empty and host whatever the router grants them (same
/// room recipe via fleet->room_factory); full-replication shards
/// pre-build rooms 0..rooms-1. A non-empty `durable_dir` attaches a
/// journal + checkpoint subsystem there and replays whatever durable
/// state the dir already holds before the shard starts serving.
/// Returns false (with a message on stderr) on failure.
bool AddShard(LocalFleet* fleet, int rooms, int threads, bool partitioned,
              const std::string& durable_dir, serve::BackendAddress* address);

serve::RouterOptions FleetRouterOptions(int replication);

/// Builds the router's thread pool + TCP front over fleet->router.
/// `port` 0 picks an ephemeral port; the cold-restart drill passes the
/// pre-crash port so closed-loop clients reconnect transparently.
/// `max_connections` sizes the front for idle swarms / reconnect storms
/// on top of the closed-loop clients.
bool StartRouterFront(LocalFleet* fleet, int threads, int port,
                      int max_connections);

/// Ticker thread: advances every shard's rooms every ~10 ms until
/// fleet->stop. Restartable (the cold-restart drill stops and restarts
/// it around the rebuild).
void StartTicker(LocalFleet* fleet);

/// Durable-dir layout helper: "" stays "", otherwise base + "/shard-N".
std::string ShardDurableDir(const std::string& base, int shard);

struct FleetConfig {
  int shards = 2;
  /// Partitioned: rooms 0..rooms-1 are granted across the shards.
  /// Full replication: every shard pre-builds all of them.
  int rooms = 2;
  /// Worker threads per shard and for the router front pool.
  int threads = 2;
  bool partitioned = false;
  /// Warm standbys per room (partitioned only).
  int replication = 0;
  /// Non-empty: every shard gets a durability subsystem under
  /// base + "/shard-N".
  std::string durable_base;
  /// Connection cap for the router front.
  int front_max_connections = 256;
};

/// Builds and starts the whole fleet (shards, router, front, ticker).
/// Null on failure (details on stderr).
std::unique_ptr<LocalFleet> StartLocalFleet(const FleetConfig& config,
                                            FleetRoomFactory room_factory);

}  // namespace bench
}  // namespace after

#endif  // AFTER_BENCH_FLEET_HARNESS_H_
