#ifndef AFTER_PERFBENCH_WORLD_H_
#define AFTER_PERFBENCH_WORLD_H_

// Workload definitions and the serving system each one runs against:
// either the partitioned TCP fleet (router front + shard fronts over
// loopback, replication_factor 1, a DurabilityManager on every shard) or
// one in-process RecommendationServer.
// The world (datasets, room simulators, hot sets) is fixed per workload;
// the run seed draws the request stream and tick phase on top of it, so
// runs with different seeds measure the same scene under fresh traffic.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/poshgnn.h"
#include "data/dataset.h"
#include "perfbench/trace.h"
#include "serve/checkpoint.h"
#include "serve/net_server.h"
#include "serve/room.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/shard_control.h"
#include "serve/thread_pool.h"

namespace after {
namespace perfbench {

/// Seed of everything in the world that is not traffic.
inline constexpr uint64_t kWorldSeed = 4242;

struct WorkloadSpec {
  std::string name;
  /// Client -> router -> durable shards over loopback TCP; false = one
  /// in-process server with no sockets and no durability.
  bool tcp = true;
  /// Rooms are picked uniformly.
  std::vector<int> room_sizes;
  /// Zipf exponent of target choice within a room (0 = uniform).
  double user_zipf = 0.0;
  /// Distinct targets per room (0 = every user); see TargetSampler.
  int user_support = 0;
  double move_fraction = 1.0;
  /// > 0: rooms keep the temporal index and requests are pruned to this
  /// many candidates (ServerOptions::max_candidates).
  int max_candidates = 0;
  /// Offered open-loop load and the sender lanes (threads, and for TCP
  /// connections) that carry it. One lane: the fewer threads the load
  /// adds to the host, the less the run measures the scheduler.
  double rate_rps = 1000.0;
  int lanes = 1;
  /// Every hosted room copy ticks once per period.
  double tick_period_ms = 10.0;
  /// Answers slower than this do not count as goodput. Loose on
  /// purpose: goodput catches failing or overloaded serving, while the
  /// latency percentiles carry the speed. A busy shared host pushes the
  /// fleet's p99 to 60 ms, so a tighter limit would gate the host.
  double latency_limit_ms = 100.0;
};

/// The workloads; null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// One hosted room copy the ticker drives.
struct TickTarget {
  serve::RecommendationServer* server = nullptr;
  int room = 0;
};

/// A built serving system plus everything it borrows. Destruction stops
/// the fronts, the router and the shards in dependency order.
class World {
 public:
  ~World();

  /// Builds datasets, freezes the model, starts the shards (and for TCP
  /// the router front, with partition grants pushed). `tracer` non-null
  /// wraps the handlers and the primary for span recording. `work_dir`
  /// holds durable state; it must be empty or absent.
  static std::unique_ptr<World> Build(const WorkloadSpec& spec,
                                      Tracer* tracer,
                                      const std::string& work_dir);

  const WorkloadSpec& spec() const { return spec_; }
  /// TCP: router front address.
  int router_port() const;
  /// In-process: the request entry point (shard handler, maybe traced).
  const serve::RequestHandler& local_handler() const { return local_handler_; }
  /// Every hosted room copy (primaries and standbys).
  const std::vector<TickTarget>& tick_targets() const { return ticks_; }
  /// The server hosting the primary copy of `room`.
  serve::RecommendationServer* PrimaryFor(int room) const;
  /// A fresh frozen copy of the served model (the correctness oracle).
  std::unique_ptr<FrozenPoshgnn> FreezeOracle() const;

  const std::vector<std::unique_ptr<serve::RecommendationServer>>& shards()
      const {
    return shards_;
  }
  const std::vector<std::unique_ptr<serve::NetServer>>& shard_nets() const {
    return shard_nets_;
  }
  const serve::NetServer* router_net() const { return router_net_.get(); }
  const serve::ShardRouter* router() const { return router_.get(); }

 private:
  World() = default;
  Result<std::unique_ptr<serve::Room>> MakeRoom(int room) const;

  WorkloadSpec spec_;
  std::map<int, Dataset> datasets_;  // by room size; stable addresses
  std::shared_ptr<const Poshgnn> source_;
  std::vector<std::unique_ptr<serve::DurabilityManager>> durabilities_;
  std::vector<std::unique_ptr<serve::RecommendationServer>> shards_;
  std::vector<std::unique_ptr<serve::ShardControl>> controls_;
  std::vector<std::unique_ptr<serve::NetServer>> shard_nets_;
  std::unique_ptr<serve::ShardRouter> router_;
  std::unique_ptr<serve::ThreadPool> router_pool_;
  std::unique_ptr<serve::NetServer> router_net_;
  serve::RequestHandler local_handler_;
  std::vector<TickTarget> ticks_;
  /// room -> index into shards_ of its primary copy.
  std::vector<int> primary_;
};

}  // namespace perfbench
}  // namespace after

#endif  // AFTER_PERFBENCH_WORLD_H_
