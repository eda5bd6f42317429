#ifndef AFTER_SERVE_ROUTER_H_
#define AFTER_SERVE_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "serve/net_client.h"
#include "serve/server_types.h"

namespace after {
namespace serve {

struct BackendAddress {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string ToString() const;
};

struct RouterOptions {
  /// How long a backend stays ejected (skipped by routing) after a
  /// transport failure. Passive recovery: once the cooldown lapses the
  /// next request tries it again.
  double ejection_ms = 1000.0;
  /// > 0 starts a background prober that pings every backend at this
  /// interval, lifting ejections early when a backend comes back and
  /// ejecting quietly-dead ones before a request has to find out.
  double health_check_interval_ms = 0.0;
  /// Warm standby copies per room beyond the primary. 0 = primary only
  /// (cheapest, but a room's state dies with its shard); 1 = one
  /// standby, so a killed shard fails over with no request loss while
  /// RepairPartition rebuilds headroom. It lives here, not on
  /// ServerOptions, because placement is the router's decision.
  int replication_factor = 0;
  NetClientOptions client;
};

/// Routes FriendRequests across a fleet of shard workers
/// (tools/serve_shard), each of which hosts only the rooms the router
/// grants it (docs/serving.md), so per-process memory and tick cost
/// scale with a shard's share of the fleet, not the whole conference.
/// The router is the ownership authority: it grants rooms with
/// kRoomAssign, revokes with kRoomRelease (the ack carries the room's
/// final state, forwarded to the new owner), keeps replication_factor
/// warm standbys per room, and repairs the assignment when backends join
/// or die. Placement follows a consistent-hash ring on the room id
/// (stable as backends join/leave: only ~1/N of rooms move), capped so
/// primaries stay balanced.
///
/// Route() reads only the ownership table and tries a room's owners in
/// priority order, primary first. A transport failure ejects the backend
/// and moves on to the next owner; an ownership miss (a racing
/// migration) moves on without ejecting anyone. Server-side statuses
/// (shed / timeout / fallback) pass through untouched: the router never
/// retries a degradation decision.
///
/// Thread-safe: Route() may be called from many connection threads;
/// calls to one backend multiplex over a few persistent NetClients
/// (request-id correlation, serve/net_client.h) behind a per-backend
/// mutex that guards only link selection and health state — never the
/// wire I/O itself.
class ShardRouter {
 public:
  /// Ring points per backend. More points = smoother key spread and
  /// smaller movement when the backend set changes.
  static constexpr int kVirtualNodes = 64;
  /// Persistent multiplexed links (NetClients, serve/net_client.h) kept
  /// per backend. All in-flight calls to a shard share these links,
  /// correlated by request id — C10k client fan-in collapses onto
  /// backends x kMuxLinks shard-side sockets. The first link is dialed
  /// on demand; extras are added only when the chosen link already has
  /// calls in flight.
  static constexpr int kMuxLinks = 2;

  ShardRouter(std::vector<BackendAddress> backends,
              const RouterOptions& options);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// The ring's first pick for a room (ignoring health and load caps) —
  /// stable across router instances with the same backend list.
  int ShardFor(int room) const;

  /// Routes one request to the room's owners in priority order. A room
  /// outside the partition is answered kNotFound without a backend hop.
  /// A transport failure (kUnavailable) ejects the backend and moves on
  /// to the next owner; a kNotOwner answer, or kNotFound from a shard
  /// that drained the room, moves on without ejecting anyone, briefly
  /// retrying the refreshed table before giving up. Always returns a
  /// response; when every owner failed, status kUnavailable.
  FriendResponse Route(const FriendRequest& request);

  /// Partitions rooms [0, num_rooms) over the fleet: computes a
  /// balanced, hash-affine assignment of every room to 1 +
  /// replication_factor distinct backends and pushes kRoomAssign grants
  /// (empty state: shards build fresh rooms) to each owner. Every
  /// backend must serve with room control attached, as every
  /// tools/serve_shard does. Once-only (and exclusive with
  /// RecoverPartition); until one of them runs, every room is outside
  /// the partition. Fails fast on the first grant a backend rejects.
  Status EnablePartition(int num_rooms);

  /// Adds a backend to the live fleet: extends the hash ring and, once
  /// the partition exists, rebalances — rooms whose primary moves are
  /// migrated with a release -> state -> assign handoff so the new owner
  /// resumes from the old owner's exact tick frame.
  /// Returns the new backend's index.
  Result<int> AddBackendLive(const BackendAddress& address);

  /// Re-derives the assignment over currently-healthy backends: rooms
  /// with copies on ejected backends get standbys promoted and fresh
  /// copies granted elsewhere (a room whose every copy died is rebuilt
  /// from scratch — state is lost, which replication_factor >= 1
  /// prevents). When the promotions leave the healthy backends' primary
  /// counts more than one room apart, it then rebalances as
  /// AddBackendLive does, live primaries handing their state over.
  /// Returns the number of owner-set changes it made (0, without any
  /// control traffic, when every owner is healthy). The background
  /// prober calls this after each probe sweep.
  int RepairPartition();

  /// Cold-restart recovery (docs/durability.md): instead of granting
  /// fresh rooms like EnablePartition, first asks every backend to
  /// replay its durable state (kRoomRecover) and reconciles the reports
  /// — per room the newest replica wins (primary role, then epoch, then
  /// tick; lowest backend index breaks exact ties deterministically),
  /// stale replicas are released with their state discarded — then seeds
  /// the ownership table with the winners and rebalances onto the
  /// current fleet. Rooms in [0, num_rooms) that no backend recovered
  /// (first boot, or data loss) are granted fresh. Epochs resume above
  /// the highest recovered epoch, so pre-crash grants can never fence
  /// out post-recovery ones. Once-only, like EnablePartition.
  Status RecoverPartition(int num_rooms);

  /// One room's owner set: `copies` in priority order (primary first)
  /// and the epoch of its latest grant.
  struct RoomAssignment {
    std::vector<int> copies;
    uint64_t epoch = 0;
  };
  std::unordered_map<int, RoomAssignment> AssignmentSnapshot() const;

  /// Pings every backend once (over an existing mux link or a fresh
  /// one), updating health state. The background prober calls this on
  /// its interval; tests and tools may call it directly.
  void ProbeAll();

  int num_backends() const;
  bool backend_healthy(int index) const;

  /// Monotonic counters, one relaxed add per event (serve/metrics.h
  /// style).
  struct Metrics {
    std::atomic<int64_t> routed{0};        // requests entering Route()
    std::atomic<int64_t> retried{0};       // attempts beyond the first
    std::atomic<int64_t> ejections{0};     // backend marked unhealthy
    std::atomic<int64_t> exhausted{0};     // all attempts kUnavailable
    std::atomic<int64_t> link_reuse{0};    // calls served by a live mux link
    std::atomic<int64_t> connects{0};      // fresh links dialed
    std::atomic<int64_t> not_owner{0};     // kNotOwner answers re-routed
    std::atomic<int64_t> migrations{0};    // rooms moved with state handoff
    std::atomic<int64_t> repairs{0};       // rooms re-owned by repair
    std::atomic<int64_t> recovered_rooms{0};     // rooms won at recovery
    std::atomic<int64_t> discarded_replicas{0};  // stale replicas released
  };
  const Metrics& metrics() const { return metrics_; }

  /// Stops the health prober and drops every mux link.
  void Shutdown();

 private:
  using Clock = std::chrono::steady_clock;

  struct Backend {
    BackendAddress address;
    std::mutex mutex;
    /// Persistent multiplexed links, round-robined across calls; broken
    /// links are pruned on the next acquire. Grows on demand up to
    /// kMuxLinks.
    std::vector<std::shared_ptr<NetClient>> links;
    size_t next_link = 0;
    Clock::time_point ejected_until = Clock::time_point::min();
  };

  /// Backends in ring order starting at the room's hash point,
  /// deduplicated: the placement preference for that room. Caller holds
  /// topology_mutex_.
  std::vector<int> RingOrderLocked(int room) const;
  void RebuildRingLocked();

  /// Picks a live link for the backend (pruning broken ones), dialing a
  /// fresh link when none exist or the round-robin choice is busy and
  /// the per-backend cap has headroom. `*reused` reports whether an
  /// existing link served the call (feeds metrics.link_reuse). Null on
  /// connect failure.
  std::shared_ptr<NetClient> AcquireLink(Backend& backend, bool* reused);
  void Eject(Backend& backend);
  bool Ejected(Backend& backend) const;

  /// Balanced, hash-affine owner sets for every room over `active`
  /// backend indices: each room's copies follow its ring order, subject
  /// to per-backend load caps (ceil-based) that keep the primary spread
  /// within one room of even. Pure function of the current ring.
  std::unordered_map<int, std::vector<int>> ComputeAssignment(
      const std::vector<int>& active, int num_rooms) const;

  /// Control-plane sends, multiplexed over the backend's links like data
  /// traffic (each blocks for its ack, so migration steps stay ordered).
  /// Held locks: none — callers must not hold partition_mutex_.
  Status SendAssign(int backend, int room, uint64_t epoch,
                    const std::string& state, bool primary);
  Result<std::string> SendRelease(int backend, int room, uint64_t epoch);
  Result<std::vector<wire::RecoveredRoom>> SendRecover(int backend);

  /// Diffs `target` against the current table and drives the
  /// release -> state -> assign migration per changed room. Returns the
  /// number of rooms whose owner set changed; a non-null `counter` is
  /// bumped for each of them before the table shows its new owners.
  int ApplyAssignment(const std::unordered_map<int, std::vector<int>>& target,
                      Status* first_error,
                      std::atomic<int64_t>* counter = nullptr);

  std::vector<int> ActiveBackends() const;

  RouterOptions options_;
  /// Guards backends_ growth and ring_ rebuilds (AddBackendLive);
  /// routing takes it shared. Backend objects themselves are stable
  /// (owned by unique_ptr, never erased) so Backend* survives unlock.
  mutable std::shared_mutex topology_mutex_;
  std::vector<std::unique_ptr<Backend>> backends_;
  /// Sorted (hash point, backend index) ring; rebuilt under
  /// topology_mutex_ when the fleet grows.
  std::vector<std::pair<uint64_t, int>> ring_;

  /// The ownership table; guarded by partition_mutex_. Control-plane
  /// I/O never runs under this mutex, so routing reads stay wait-free
  /// during migrations. partition_rooms_ is 0 until EnablePartition or
  /// RecoverPartition runs.
  mutable std::mutex partition_mutex_;
  int partition_rooms_ = 0;
  uint64_t next_epoch_ = 0;
  std::unordered_map<int, RoomAssignment> assignment_;

  Metrics metrics_;
  std::atomic<bool> stop_{false};
  std::thread prober_;
};

}  // namespace serve
}  // namespace after

#endif  // AFTER_SERVE_ROUTER_H_
