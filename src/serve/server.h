#ifndef AFTER_SERVE_SERVER_H_
#define AFTER_SERVE_SERVER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "baselines/nearest_recommender.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/recommender.h"
#include "serve/batcher.h"
#include "serve/metrics.h"
#include "serve/room.h"
#include "serve/server_types.h"
#include "serve/thread_pool.h"

namespace after {
namespace serve {

class DurabilityManager;

struct ServerOptions {
  int num_threads = 4;
  /// Bound of the request queue; admissions beyond it are shed with
  /// kResourceExhausted.
  int queue_capacity = 1024;
  /// Deadline applied when FriendRequest::deadline_ms == 0; <= 0 means
  /// no default deadline.
  double default_deadline_ms = 50.0;
  /// Display budget of the NearestRecommender degradation fallback.
  int fallback_k = 10;
  /// In-tick request batching (serve/batcher.h): park requests per room
  /// and answer each room's whole queue in one drain against a single
  /// snapshot, with duplicate targets sharing one forward pass.
  /// Deadlines are still honored per request (expired entries are
  /// answered kTimeout before model work, and entries whose deadline
  /// passes during the batch get the fallback answer). Off by default:
  /// one pool task per request remains the latency-optimal choice for
  /// idle rooms; batching is the throughput choice under load. Both
  /// answer through the same degradation ladder.
  bool batch_requests = false;
  /// Temporal candidate pruning (docs/ticking.md): when > 0 and the
  /// room maintains a temporal index (Room::Options::temporal_index),
  /// each request's StepContext carries a blocklist keeping only the
  /// target's `max_candidates` most-recently co-present candidates, so
  /// the primary ranks a capped set in large rooms. 0 = off. Accuracy
  /// contract: ranking among the surviving candidates is exactly the
  /// unpruned ranking restricted to them — pruning changes who is
  /// considered, never how the considered are ordered.
  int max_candidates = 0;
};

/// In-process online serving runtime: shards N conference rooms across a
/// bounded worker pool and answers FriendRequests against each room's
/// current snapshot.
///
/// Degradation ladder (docs/serving.md), implemented once in
/// ProcessBatch for both the per-request path (a batch of one) and the
/// batcher's drains:
///  1. queue full at admission            -> shed, kResourceExhausted
///  2. deadline expired while queued      -> kTimeout, no work done
///  3. primary misses deadline/misbehaves -> NearestRecommender answer,
///                                           OK with used_fallback=true
///  4. otherwise                          -> primary answer, OK
///
/// One primary serves everything: the constructor builds it once and
/// every room and worker shares it lock-free, so it must report
/// Recommender::thread_safe(). Stateful models (the mutable POSHGNN,
/// the recurrent baselines, COMURNet) belong to the offline evaluator;
/// serve FrozenPoshgnn instead.
class RecommendationServer {
 public:
  /// Rooms are keyed by Room::id(); ids need not be contiguous, and the
  /// initial set may be empty (a partitioned shard starts bare and is
  /// granted rooms by the router, serve/shard_control.h). Calls
  /// `primary_factory` once and aborts unless the primary it returns is
  /// thread-safe.
  RecommendationServer(std::vector<std::unique_ptr<Room>> rooms,
                       RecommenderFactory primary_factory,
                       const ServerOptions& options);
  ~RecommendationServer();

  RecommendationServer(const RecommendationServer&) = delete;
  RecommendationServer& operator=(const RecommendationServer&) = delete;

  /// Asynchronous path: admits the request (or sheds it) and invokes
  /// `done` exactly once — on a worker thread on completion, or inline
  /// when shed.
  void Submit(const FriendRequest& request,
              std::function<void(const FriendResponse&)> done);

  /// Synchronous convenience wrapper: Submit + wait.
  FriendResponse Handle(const FriendRequest& request);

  /// Advances one room / every room one tick (simulation or replay).
  Status TickRoom(int room);
  void TickAll();

  /// Room registry (thread-safe; rooms churn under partitioned serving).
  /// AddRoom fails with kInvalidArgument if the id is already hosted.
  /// RemoveRoom unhosts the room and returns it (so a migration can
  /// still ExportState after removal) or nullptr when absent; in-flight
  /// requests that already resolved the room finish against their
  /// shared_ptr and drain normally. FindRoom returns nullptr when the
  /// room is not hosted here.
  Status AddRoom(std::unique_ptr<Room> room);
  std::shared_ptr<Room> RemoveRoom(int id);
  std::shared_ptr<Room> FindRoom(int id) const;
  bool HasRoom(int id) const;
  std::vector<int> RoomIds() const;
  int num_rooms() const;

  ServerMetrics& metrics() { return metrics_; }

  /// Attaches the shard's durability subsystem (serve/checkpoint.h):
  /// every successful TickRoom journals the published frame and runs the
  /// checkpoint / rotation budgets. Null detaches. The manager is
  /// borrowed and must outlive tick traffic; set it before the ticker
  /// starts.
  void set_durability(DurabilityManager* durability) {
    durability_ = durability;
  }
  DurabilityManager* durability() const { return durability_; }

  /// Stops admissions, drains in-flight requests, joins workers.
  /// Idempotent; also run by the destructor.
  void Shutdown();

 private:
  /// Batched path (options_.batch_requests): Submit parks the request in
  /// the TickBatcher; DrainRoom loops ProcessBatch over whatever queued.
  void SubmitBatched(
      const FriendRequest& request, const Deadline& deadline,
      std::shared_ptr<std::function<void(const FriendResponse&)>> done);
  void DrainRoom(int room);
  /// The degradation ladder for requests that all name `room`: answers
  /// every one of them exactly once, calling the primary once per
  /// distinct target.
  void ProcessBatch(int room, std::vector<TickBatcher::Pending> batch);

  ServerOptions options_;
  /// Hosted rooms keyed by id. shared_ptr so RemoveRoom can unhost while
  /// requests already processing against the room drain safely.
  std::unordered_map<int, std::shared_ptr<Room>> rooms_;
  mutable std::mutex rooms_mutex_;
  /// Thread-safe, shared lock-free by every room and worker.
  std::unique_ptr<Recommender> primary_;
  NearestRecommender fallback_;
  ServerMetrics metrics_;
  DurabilityManager* durability_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;
  /// Present iff options_.batch_requests.
  std::unique_ptr<TickBatcher> batcher_;
};

}  // namespace serve
}  // namespace after

#endif  // AFTER_SERVE_SERVER_H_
