#ifndef AFTER_SERVE_ROOM_H_
#define AFTER_SERVE_ROOM_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/recommender.h"
#include "data/dataset.h"
#include "graph/occlusion_converter.h"
#include "graph/occlusion_graph.h"
#include "graph/temporal_index.h"
#include "sim/crowd_simulator.h"
#include "sim/xr_world.h"

namespace after {
namespace serve {

/// Immutable view of one room at one tick, shared (via shared_ptr) by
/// every request answered during that tick. This replaces the offline
/// evaluator's per-request StepContext reconstruction: positions,
/// interfaces and utility matrices are fixed once when the tick is
/// published; each target's static occlusion graph (Definition 4) is
/// built lazily on first demand (std::call_once) and then reused by all
/// concurrent requests for that target.
///
/// Snapshots are persistent structures updated by deltas
/// (docs/ticking.md): the delta constructor carries the predecessor's
/// built occlusion state forward, re-testing only arc pairs that touch
/// a moved agent and rewriting only the rows those tests change, into
/// fresh CSR graphs whose ascending rows are bit-identical to a
/// from-scratch build — so order-sensitive consumers (MIA tie-breaks,
/// POSHGNN aggregation) cannot tell the difference.
class RoomSnapshot {
 public:
  RoomSnapshot(int tick, std::vector<Vec2> positions,
               const std::vector<Interface>* interfaces,
               const Matrix* preference, const Matrix* social_presence,
               double beta, double body_radius,
               std::shared_ptr<const TemporalView> temporal = nullptr);

  /// Delta constructor: `moved` (sorted ascending) lists every user
  /// whose position/goal/active state changed since `previous` was
  /// published. Targets the predecessor had built and that did not
  /// themselves move get their occlusion graph delta-updated eagerly
  /// (UpdateOcclusionGraph, O(n + |moved| * n + the changed rows'
  /// degrees) plus one block copy of the unchanged rows, each); moved or
  /// never-built targets stay lazy. The predecessor is
  /// only read during construction — no reference is retained, so
  /// snapshots never chain.
  RoomSnapshot(int tick, std::vector<Vec2> positions,
               const RoomSnapshot& previous, std::vector<int> moved,
               std::shared_ptr<const TemporalView> temporal);

  int tick() const { return tick_; }
  int num_users() const { return static_cast<int>(positions_.size()); }
  const std::vector<Vec2>& positions() const { return positions_; }
  double beta() const { return beta_; }
  double body_radius() const { return body_radius_; }

  /// The target's static occlusion graph at this tick. Thread-safe:
  /// concurrent first calls for the same target build it exactly once.
  const OcclusionGraph& OcclusionFor(int target) const;

  /// A StepContext viewing this snapshot (valid while the snapshot
  /// lives). Field-for-field identical to what core/evaluator builds for
  /// the same scene, which is what makes a 1-thread server reproduce the
  /// offline replay bit-exactly (tests/serve/determinism_test.cc).
  StepContext ContextFor(int target) const;

  /// Temporal recency view attached at publish (null when the room's
  /// temporal index is off).
  const std::shared_ptr<const TemporalView>& temporal_view() const {
    return temporal_;
  }

  /// Fills `mask` as a StepContext::blocklist keeping only the target's
  /// top-`max_candidates` candidates by temporal recency. Returns false
  /// (mask untouched) when there is no temporal view or nothing would
  /// be pruned (max_candidates <= 0 or >= n-1). Ranking among surviving
  /// candidates is exactly the unpruned ranking restricted to them.
  bool PruneCandidates(int target, int max_candidates,
                       std::vector<bool>* mask) const;

  /// Introspection for tests, metrics, and the stale-cache drill.
  bool built_by_delta() const { return built_by_delta_; }
  /// Size of the moved set this snapshot was delta-built from; -1 for
  /// from-scratch snapshots.
  int num_moved() const { return num_moved_; }
  /// Number of targets whose occlusion state was carried forward from
  /// the predecessor by the delta constructor.
  int delta_carried() const { return delta_carried_; }
  /// Whether `target`'s occlusion graph is materialized right now.
  bool occlusion_built(int target) const {
    return occlusion_built_[target].load(std::memory_order_acquire);
  }

 private:
  int tick_;
  std::vector<Vec2> positions_;
  const std::vector<Interface>* interfaces_;
  const Matrix* preference_;
  const Matrix* social_presence_;
  double beta_;
  double body_radius_;
  mutable std::vector<OcclusionGraph> occlusion_;
  /// Per-target view arcs cached alongside the graph so successor
  /// snapshots can delta-update instead of recomputing O(n) trig.
  mutable std::vector<std::vector<ViewArc>> arcs_;
  std::unique_ptr<std::once_flag[]> occlusion_once_;
  /// True once occlusion_[t]/arcs_[t] are fully built (release store;
  /// readers acquire). Lets the delta constructor read the
  /// predecessor's hot set without touching its once_flags.
  std::unique_ptr<std::atomic<bool>[]> occlusion_built_;
  std::shared_ptr<const TemporalView> temporal_;
  bool built_by_delta_ = false;
  int num_moved_ = -1;
  int delta_carried_ = 0;
};

/// Published frames retained for migration handoff: the room keeps the
/// last kTrajectoryWindowFrames position frames (including the current
/// one) so a migrated room resumes with the same short-term trajectory
/// history the temporal models were fed on the old owner.
inline constexpr int kTrajectoryWindowFrames = 8;

/// One sharded conference room: the live scene state plus the currently
/// published snapshot. Two modes:
///  - kReplay walks a recorded session tick-by-tick (deterministic;
///    used to cross-check the server against the offline evaluator);
///  - kLive owns a CrowdSimulator seeded from the session's first frame
///    and advances it forever (the load-bench workload).
/// Tick() mutates simulator state under the room mutex and publishes a
/// fresh immutable snapshot; request threads only ever touch snapshots,
/// so recommendation never blocks simulation and vice versa.
class Room {
 public:
  enum class Mode { kReplay, kLive };

  struct Options {
    int id = 0;
    Mode mode = Mode::kReplay;
    /// Session index into Dataset::sessions; -1 = last.
    int session = -1;
    /// Preference / social-presence trade-off passed to recommenders.
    double beta = 0.5;
    /// Live mode: waypoint RNG seed, walking speed, and the square side
    /// length agents wander within.
    uint64_t seed = 99;
    double max_speed = 1.2;
    double room_side = 10.0;
    /// Delta ticks (docs/ticking.md): Tick() diffs the new frame
    /// against the previous one and publishes a snapshot that carries
    /// the predecessor's occlusion state forward for unchanged targets.
    /// Off = every tick publishes a from-scratch snapshot.
    bool delta_snapshots = true;
    /// Full-rebuild fallback: when more than this fraction of users
    /// moved in one tick, a delta would re-test nearly everything, so
    /// Tick() publishes a from-scratch snapshot instead.
    double delta_rebuild_fraction = 0.35;
    /// Live mode: fraction of agents walking at any moment. 1.0 keeps
    /// the historical everybody-walks behavior; below 1.0 the room uses
    /// a walker-swap model — exactly round(move_fraction * n) agents
    /// walk, the rest are held bit-exactly stationary (SetHold), and an
    /// arriving walker parks and wakes a random parked agent.
    double move_fraction = 1.0;
    /// Maintain the temporal recency index (graph/temporal_index.h) and
    /// attach a view to every published snapshot so the server can cap
    /// POSHGNN's candidate set (ServerOptions::max_candidates).
    bool temporal_index = false;
    /// Co-presence distance for the temporal index.
    double co_presence_radius = 2.0;
  };

  /// Validates the dataset/session (mirroring the evaluator's checks)
  /// and publishes the tick-0 snapshot. `dataset` is borrowed and must
  /// outlive the room.
  static Result<std::unique_ptr<Room>> Create(const Options& options,
                                              const Dataset* dataset);

  int id() const { return options_.id; }
  int num_users() const { return num_users_; }
  Mode mode() const { return options_.mode; }

  /// Tick of the currently published snapshot.
  int tick() const { return tick_.load(std::memory_order_acquire); }

  /// Advances the room one step and publishes a fresh snapshot. Replay
  /// rooms return kResourceExhausted once the recorded session is
  /// exhausted (the last snapshot stays published); live rooms never
  /// exhaust. Thread-safe (serialized on the room mutex).
  Status Tick();

  /// The current snapshot; never null after Create().
  std::shared_ptr<const RoomSnapshot> snapshot() const;

  /// Churn hooks (live mode; kFailedPrecondition in replay, whose only
  /// trajectory source is the recording). Both mark the user dirty so
  /// the next Tick()'s moved set includes them even when the position
  /// is bitwise unchanged; the published snapshot changes at that tick.
  Status TeleportUser(int user, const Vec2& position);
  Status SetUserActive(int user, bool active);

  /// Snapshot-kind counters: ticks published via the delta constructor
  /// vs from-scratch (includes fallback rebuilds, excludes the
  /// non-Tick publishes from Create/ApplyState/ApplyTickFrame).
  uint64_t delta_ticks() const {
    return delta_ticks_.load(std::memory_order_relaxed);
  }
  uint64_t scratch_ticks() const {
    return scratch_ticks_.load(std::memory_order_relaxed);
  }

  /// Serializes the room's migratable state — tick, current positions,
  /// live-mode goals, and the trajectory window — as an nn/serialize
  /// parameter-block text blob (precision 17, so doubles round-trip
  /// bit-exactly). The receiving shard passes the blob to ApplyState().
  /// Waypoint RNG internals are deliberately not migrated: the new owner
  /// continues with its own stream, which only perturbs *future* random
  /// waypoints, never already-committed positions/goals.
  std::string ExportState() const;

  /// Applies a blob produced by ExportState() on a room created from the
  /// same dataset/session (same user count and mode). All-or-nothing:
  /// the blob is fully validated before any mutation, and a non-OK
  /// return leaves the room exactly as it was. On success the migrated
  /// tick is published and serving resumes from the donor's state.
  Status ApplyState(const std::string& blob);

  /// Copy of the retained frames, oldest first; the last entry is always
  /// the currently published positions. Test hook for bit-exactness.
  std::vector<std::vector<Vec2>> trajectory_window() const;

  /// One published tick as the durability journal records it: the tick
  /// number, the published positions, and the live-mode waypoint goals
  /// (empty in replay mode, where the recorded session is the only
  /// trajectory source). Captured under the tick mutex, so the three
  /// fields are from the same publish.
  struct TickFrame {
    int tick = 0;
    std::vector<Vec2> positions;
    std::vector<Vec2> goals;
  };
  TickFrame CurrentTickFrame() const;

  /// Replays one journaled tick: teleports live-mode agents to the
  /// recorded positions, restores their goals, and publishes the frame —
  /// the exact state evolution Tick() + Publish() produced originally,
  /// without re-running the simulator (whose waypoint RNG stream is
  /// deliberately not persisted). The frame must advance the tick and
  /// match the room's user count; kInvalidData otherwise, with the room
  /// untouched (all-or-nothing, like ApplyState).
  Status ApplyTickFrame(const TickFrame& frame);

 private:
  Room(const Options& options, const Dataset* dataset, const XrWorld* world);

  /// From-scratch publish (Create / ApplyState / ApplyTickFrame): drops
  /// dirty state, rebuilds the temporal index (recovered and migrated
  /// rooms must never trust inherited caches), publishes a scratch
  /// snapshot.
  void Publish(std::vector<Vec2> positions, int tick);
  /// Tick-path publish: computes the moved set against the previous
  /// frame (bitwise position diff + churn-dirtied users), incrementally
  /// updates the temporal index, and publishes a delta snapshot unless
  /// the moved fraction crosses delta_rebuild_fraction (or deltas are
  /// off). Caller holds tick_mutex_.
  void PublishTick(std::vector<Vec2> positions, int tick);
  /// Live partial motion: held/walking bookkeeping around sim_->Step().
  void StepLive();
  /// Re-derives the walker set from goal distances after a state
  /// teleport (migration / recovery) when move_fraction < 1.
  void RederiveWalkers();
  Vec2 RandomWaypoint();

  Options options_;
  const Dataset* dataset_;
  const XrWorld* world_;
  int num_users_ = 0;

  /// Live-mode state, all guarded by tick_mutex_.
  std::unique_ptr<CrowdSimulator> sim_;
  Rng rng_;
  /// Walker-swap bookkeeping (move_fraction < 1): walking_[u] iff u is
  /// currently un-held and navigating to a waypoint.
  std::vector<bool> walking_;
  /// Users churned (teleported / [de]activated) since the last publish;
  /// folded into the next moved set. Guarded by tick_mutex_.
  std::vector<int> dirty_;
  /// Temporal recency index (present iff options_.temporal_index);
  /// mutated under tick_mutex_, published views are immutable.
  std::unique_ptr<TemporalIndex> temporal_;

  mutable std::mutex tick_mutex_;
  /// Last <= kTrajectoryWindowFrames published frames, oldest first;
  /// appended by Publish(), guarded by tick_mutex_.
  std::deque<std::vector<Vec2>> window_;
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const RoomSnapshot> snapshot_;
  std::atomic<int> tick_{0};
  std::atomic<uint64_t> delta_ticks_{0};
  std::atomic<uint64_t> scratch_ticks_{0};
};

}  // namespace serve
}  // namespace after

#endif  // AFTER_SERVE_ROOM_H_
