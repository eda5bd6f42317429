#ifndef AFTER_SERVE_ROOM_H_
#define AFTER_SERVE_ROOM_H_

#include <atomic>
#include <memory>
#include <mutex>
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
#include "serve/codec.h"
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
/// a moved agent. A graph in which no row changes is shared with the
/// predecessor; otherwise only the changed rows are rewritten, into a
/// fresh CSR graph. Either way its ascending rows are bit-identical to a
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
  /// (UpdateOcclusionGraph, O(n + |moved| * n) each, plus the changed
  /// rows' degrees and one block copy of the unchanged rows when a row
  /// changed); moved or never-built targets stay lazy. The predecessor
  /// is only read during construction. No reference to it is retained,
  /// so snapshots never chain; two consecutive snapshots may share an
  /// immutable graph.
  RoomSnapshot(int tick, std::vector<Vec2> positions,
               const RoomSnapshot& previous, std::vector<int> moved,
               std::shared_ptr<const TemporalView> temporal);

  int tick() const { return tick_; }
  int num_users() const { return static_cast<int>(positions_.size()); }
  const std::vector<Vec2>& positions() const { return positions_; }
  double beta() const { return beta_; }
  double body_radius() const { return body_radius_; }

  /// The target's static occlusion graph at this tick, valid while the
  /// snapshot lives. Thread-safe: concurrent first calls for the same
  /// target build it exactly once.
  const OcclusionGraph& OcclusionFor(int target) const;

  /// A StepContext viewing this snapshot (valid while the snapshot
  /// lives). Field-for-field identical to what core/evaluator builds for
  /// the same scene, which is what makes a 1-thread server reproduce the
  /// offline replay bit-exactly (tests/serve/determinism_test.cc). The
  /// one addition, `arcs`, points at the target's cached view arcs,
  /// whose values the evaluator's path recomputes bit for bit.
  StepContext ContextFor(int target) const;

  /// What the serving primary answered for one target on this snapshot.
  struct TargetAnswer {
    std::vector<bool> recommended;
    /// Whether the primary ranked a temporally pruned candidate set
    /// (ServerOptions::max_candidates).
    bool pruned = false;
  };

  /// The target's answer slot, next to its occlusion slot: the first
  /// call runs `fill` and keeps what it returns; every other call,
  /// concurrent or later, waits for that and returns the same answer.
  /// Thread-safe (std::call_once, as OcclusionFor). Nothing invalidates
  /// a slot: a tick publishes a new snapshot with empty slots, and a
  /// slot dies with its snapshot. Sharing is only sound when `fill` is
  /// a pure function of the snapshot and the target, which the serving
  /// primary's contract guarantees (Recommender::thread_safe).
  template <typename Fill>
  const TargetAnswer& AnswerFor(int target, Fill&& fill) const {
    std::call_once(answer_once_[target],
                   [&] { answers_[target] = fill(); });
    return answers_[target];
  }

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
  /// Number of carried targets whose graph had no row change, so this
  /// snapshot shares it with the predecessor (<= delta_carried()).
  int delta_shared() const { return delta_shared_; }
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
  mutable std::vector<std::shared_ptr<const OcclusionGraph>> occlusion_;
  /// Per-target view arcs cached alongside the graph so successor
  /// snapshots can delta-update instead of recomputing O(n) trig.
  mutable std::vector<std::vector<ViewArc>> arcs_;
  std::unique_ptr<std::once_flag[]> occlusion_once_;
  /// True once occlusion_[t]/arcs_[t] are fully built (release store;
  /// readers acquire). Lets the delta constructor read the
  /// predecessor's hot set without touching its once_flags.
  std::unique_ptr<std::atomic<bool>[]> occlusion_built_;
  /// One answer slot per target (AnswerFor).
  mutable std::vector<TargetAnswer> answers_;
  std::unique_ptr<std::once_flag[]> answer_once_;
  std::shared_ptr<const TemporalView> temporal_;
  bool built_by_delta_ = false;
  int num_moved_ = -1;
  int delta_carried_ = 0;
  int delta_shared_ = 0;
};

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
    /// Live mode: waypoint RNG seed.
    uint64_t seed = 99;
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
  /// non-Tick publishes from Create/Restore).
  uint64_t delta_ticks() const {
    return delta_ticks_.load(std::memory_order_relaxed);
  }
  uint64_t scratch_ticks() const {
    return scratch_ticks_.load(std::memory_order_relaxed);
  }

  /// The room's state (serve/codec.h): the published tick and positions
  /// and the live-mode waypoint goals, captured under the tick mutex so
  /// the three are from the same publish. Migration hands it over, and
  /// the journal records it per tick.
  TickFrame CurrentTickFrame() const;

  /// Makes `frame` the room's state: teleports live-mode agents to its
  /// positions, restores their goals and publishes it from scratch — the
  /// exact state the frame was captured from, without re-running the
  /// simulator. One call applies a migrated frame, a recovery base and
  /// every replayed journal tick. All-or-nothing: a frame whose user
  /// count differs, whose goals do not match the mode (n for a live
  /// room, none for a replay room), whose tick is negative, or whose
  /// replay tick lies past the session is kInvalidData, with the room
  /// untouched. Any other tick is accepted, earlier ones included: an
  /// overwritten standby can be ahead of its donor.
  Status Restore(const TickFrame& frame);

 private:
  Room(const Options& options, const Dataset* dataset, const XrWorld* world);

  /// From-scratch publish (Create / Restore): drops dirty state,
  /// rebuilds the temporal index (recovered and migrated rooms must never
  /// trust inherited caches), publishes a scratch snapshot.
  void Publish(std::vector<Vec2> positions, int tick);
  /// Tick-path publish: computes the moved set against the published
  /// snapshot (bitwise position diff + churn-dirtied users), incrementally
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
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const RoomSnapshot> snapshot_;
  std::atomic<int> tick_{0};
  std::atomic<uint64_t> delta_ticks_{0};
  std::atomic<uint64_t> scratch_ticks_{0};
};

}  // namespace serve
}  // namespace after

#endif  // AFTER_SERVE_ROOM_H_
