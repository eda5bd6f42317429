#ifndef AFTER_BENCH_SCENARIO_H_
#define AFTER_BENCH_SCENARIO_H_

// Scenario generators for the world-scale macro-driver
// (bench/world_sim.cc): everything here is pure computation — no
// sockets, no clocks, no threads — so tests/bench/scenario_test.cc can
// pin the distributions and the determinism contract directly.
//
// The generated artifact is a WorldPlan: Zipf-skewed room sizes, a
// diurnal request curve over discrete time slices, flash-crowd weight
// boosts, cross-room population churn, the full base request schedule
// (room, user) per slice, and the fleet drills as events at
// answered-request indices. The plan depends only on WorldConfig, and
// its FNV-1a fingerprint is the bit-reproducibility gate: same config
// => same fingerprint, byte for byte.
//
// Co-evolution (SocialGraphEvolution) deliberately lives OUTSIDE the
// fingerprint: it reacts to live server responses (which recommendation
// was shown), so it rewires the request stream on top of the base
// schedule without perturbing the reproducible plan underneath.
// Its own determinism contract — same observation sequence => same
// graph, bit for bit — is what the unit tests pin.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace after {
namespace bench {

/// The fleet drills a plan can schedule (docs/world_sim.md): kill shard
/// 0, add a shard live, or cold-restart the whole fleet from disk.
enum class EventKind { kKill, kAdd, kRestart };

const char* EventKindName(EventKind kind);

/// `at` for an event that fires at the first request of the peak slice.
constexpr int kAtPeak = -1;

/// One scenario event, keyed on logical time: it fires once the clients
/// have answered `at` requests, whatever the wall clock says.
struct ScenarioEvent {
  EventKind kind = EventKind::kKill;
  int at = 0;
};

struct WorldConfig {
  int rooms = 12;
  /// Rank-size law: room at popularity rank r holds
  /// clamp(round(max_room_users * (r+1)^-zipf_exponent),
  ///       min_room_users, max_room_users) users.
  int max_room_users = 48;
  int min_room_users = 6;
  double zipf_exponent = 1.0;
  /// Diurnal curve: `slices` discrete time slices whose request weights
  /// follow a raised cosine with peak/trough ratio `diurnal_ratio`.
  int slices = 8;
  double diurnal_ratio = 4.0;
  /// Total closed-loop requests, apportioned across the slices by the
  /// diurnal weights (largest-remainder, so the sum is exact).
  int total_requests = 2000;
  /// Flash crowd: during [flash_start, flash_end) the `flash_rooms`
  /// SMALLEST rooms get their sampling weight multiplied by
  /// flash_boost — the "suddenly hot back-room" shape. Negative
  /// start/end default to just the peak slice.
  int flash_rooms = 2;
  double flash_boost = 8.0;
  int flash_start = -1;
  int flash_end = -1;
  /// Cross-room churn: each slice, this fraction of every room's
  /// current population relocates to other rooms (weighted by their
  /// populations), shifting future load. Room user-id ranges are
  /// unaffected — churn moves load, not dataset rows.
  double churn_fraction = 0.05;
  uint64_t seed = 1;
  /// Fleet drills, in any order; `at` is an index below total_requests
  /// or kAtPeak.
  std::vector<ScenarioEvent> events;
  /// The fleet the plan runs on. Only event validation reads these: every
  /// drill needs the self-contained fleet, and a restart a durable one.
  bool self_contained = true;
  bool durable = false;
};

/// One scheduled request: room id plus a user index valid for that
/// room's native user range [0, room_size).
struct SliceRequest {
  int room = 0;
  int user = 0;
};

struct WorldPlan {
  /// Per-room user counts (rank-size Zipf; room id == popularity rank).
  std::vector<int> room_sizes;
  /// Per-slice diurnal weights (unnormalised) and exact request counts.
  std::vector<double> diurnal_weights;
  std::vector<int> slice_totals;
  int peak_slice = 0;
  /// Room populations entering each slice (after churn), per slice —
  /// kept for inspection/tests; the schedule below already folds them
  /// in.
  std::vector<std::vector<int>> populations;
  /// The full base request schedule, slice-major.
  std::vector<std::vector<SliceRequest>> schedule;
  /// The config's events with kAtPeak resolved, ordered by index (then
  /// kind): the order in which they fire.
  std::vector<ScenarioEvent> events;
  /// FNV-1a 64 over sizes, weights (quantised), totals, populations,
  /// every scheduled (room, user) pair and, when there are any, the
  /// events. The reproducibility gate.
  uint64_t fingerprint = 0;
};

/// Rank-size Zipf room sizes (deterministic, no sampling).
std::vector<int> ZipfRoomSizes(int rooms, int max_users, int min_users,
                               double exponent);

/// Raised-cosine diurnal weights: w_t in [1, ratio], peak mid-window.
std::vector<double> DiurnalWeights(int slices, double ratio);

/// Largest-remainder apportionment of `total` across `weights`;
/// the returned counts sum to exactly `total`.
std::vector<int> ApportionRequests(const std::vector<double>& weights,
                                   int total);

/// Splits `total_connections` into consecutive reconnect-storm waves,
/// each of size <= max_concurrent (> 0). The sum is exactly
/// `total_connections` — no wave ever exceeds the front's budget.
std::vector<int> ReconnectStormWaves(int total_connections,
                                     int max_concurrent);

/// Builds the whole plan (sizes, curve, churned populations, schedule,
/// events, fingerprint) from the config alone. kInvalidArgument for a
/// config with no rooms, slices or requests, or with an event that can
/// never fire (an index at or past total_requests) or cannot run on the
/// configured fleet.
Result<WorldPlan> BuildWorldPlan(const WorldConfig& config);

/// FNV-1a 64 streaming hasher — the fingerprint primitive.
class Fnv1a {
 public:
  void Mix(uint64_t value);
  void Mix(int value) { Mix(static_cast<uint64_t>(static_cast<int64_t>(value))); }
  /// Doubles are quantised (round(value * 1e9)) so the fingerprint is a
  /// stable function of the math, not of a printf format.
  void MixDouble(double value);
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;  // FNV offset basis
};

/// Recommendation–network co-evolution for one room (PAPERS.md: the
/// co-evolution framework; GASim's accept/ignore feedback). The served
/// recommendation stream drives edge dynamics: an accepted suggestion
/// adds/strengthens the (user, candidate) edge, an ignored one decays
/// it. Acceptance is a deterministic hash of (seed, user, candidate,
/// per-pair exposure count) against accept_prob — no global RNG state,
/// so the evolution is bit-reproducible for a fixed observation
/// sequence regardless of how calls interleave with other rooms.
class SocialGraphEvolution {
 public:
  SocialGraphEvolution(int num_users, uint64_t seed,
                       double accept_prob = 0.35, double edge_add = 1.0,
                       double ignore_decay = 0.9);

  /// Feeds one served recommendation (`candidate` was shown to `user`).
  /// Returns true if the deterministic accept model accepted it.
  bool Observe(int user, int candidate);

  /// Feedback into the request stream: remaps `user` to the
  /// highest-degree user among a small deterministic probe set
  /// containing `user` itself — evolved hubs attract traffic, the
  /// preferential-attachment half of co-evolution.
  int BiasUser(int user) const;

  /// L1 mass of the evolved graph (it starts empty, so this is the
  /// drift from the initial state).
  double DriftL1() const;
  long long accepts() const { return accepts_; }
  long long ignores() const { return ignores_; }
  int num_users() const { return num_users_; }
  /// Fingerprint of the evolved weights (quantised), for the
  /// bit-reproducibility test and the JSON drift report.
  uint64_t Fingerprint() const;

 private:
  double& weight(int a, int b);
  double weight_at(int a, int b) const;

  int num_users_;
  uint64_t seed_;
  double accept_prob_;
  double edge_add_;
  double ignore_decay_;
  std::vector<double> weights_;      // n x n, row-major
  std::vector<uint32_t> exposures_;  // per-pair counter feeding the hash
  std::vector<double> degree_;       // per-user weighted degree cache
  long long accepts_ = 0;
  long long ignores_ = 0;
};

}  // namespace bench
}  // namespace after

#endif  // AFTER_BENCH_SCENARIO_H_
