#ifndef AFTER_BENCH_FLEET_HARNESS_H_
#define AFTER_BENCH_FLEET_HARNESS_H_

// Self-contained serving fleet for the macro driver (bench/world_sim.cc):
// N shard servers that own the rooms a router front grants them, all
// over real loopback sockets in one process.
//
// The harness is deliberately policy-free about room contents: the
// caller supplies a FleetRoomFactory (world_sim builds each room from a
// per-size dataset pool, so a uniform plan and a Zipf-skewed one run on
// the same fleet). Everything else — room ownership, replication
// standbys, durability replay, mid-run shard adds, and the cold-restart
// drill — is common machinery.

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
/// id a shard is granted or rebuilds (cold restart). Must be
/// deterministic per room id: a standby or recovered copy has to be
/// built from the same recipe as the primary it replaces. Whatever the factory captures (datasets,
/// options) must outlive the fleet, including mid-run AddShard calls.
using FleetRoomFactory =
    std::function<Result<std::unique_ptr<serve::Room>>(int room)>;

struct FleetConfig {
  int shards = 2;
  /// Rooms 0..rooms-1 are granted across the shards.
  int rooms = 2;
  /// Worker threads per shard and for the router front pool.
  int threads = 2;
  /// Warm standbys per room.
  int replication = 0;
  /// Non-empty: every shard gets a durability subsystem under
  /// base + "/shard-N".
  std::string durable_base;
  /// Connection cap for the router front.
  int front_max_connections = 256;
};

/// Self-contained fleet: N shard servers plus a router front.
struct LocalFleet {
  /// The config it was started with (ColdRestart rebuilds from it).
  FleetConfig config;
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

/// Starts one shard worker and appends it to the fleet. The shard starts
/// empty and hosts whatever the router grants it (same room recipe via
/// fleet->room_factory). A non-empty `durable_dir` attaches a journal
/// there and replays whatever durable state it already holds before the
/// shard starts serving. Returns false
/// (with a message on stderr) on failure.
bool AddShard(LocalFleet* fleet, int threads, const std::string& durable_dir,
              serve::BackendAddress* address);

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

/// Builds and starts the whole fleet (shards, router, front, ticker).
/// Null on failure (details on stderr).
std::unique_ptr<LocalFleet> StartLocalFleet(const FleetConfig& config,
                                            FleetRoomFactory room_factory);

/// What a cold restart found. `completed` is false when the rebuild
/// itself failed (details on stderr); the counts cover the rooms it
/// checked before that.
struct RestartReport {
  bool completed = false;
  long long expected = 0;    // rooms with a live primary before the crash
  long long recovered = 0;   // rooms the router's recovery phase won
  long long discarded = 0;   // stale replicas it released
  long long lost = 0;        // expected rooms with no primary after it
  long long mismatched = 0;  // recovered rooms whose state differs
};

/// The cold-restart drill on a durable fleet: stops the ticker, captures
/// every room's state from its primary, tears down every shard and the
/// router, rebuilds them from the durable dirs alone, reconciles them
/// through the router's recovery phase (kRoomRecover), and compares each
/// recovered room with its pre-crash capture before ticking resumes. The
/// new front listens on the old port, so reconnecting clients find it.
RestartReport ColdRestart(LocalFleet* fleet);

}  // namespace bench
}  // namespace after

#endif  // AFTER_BENCH_FLEET_HARNESS_H_
