#ifndef AFTER_CORE_RECOMMENDER_H_
#define AFTER_CORE_RECOMMENDER_H_

#include <string>
#include <vector>

#include "common/geometry.h"
#include "graph/occlusion_graph.h"
#include "nn/guard.h"
#include "sim/xr_world.h"
#include "tensor/matrix.h"

namespace after {

struct Dataset;

/// Everything an AFTER recommender may consult at one time step for one
/// target user (Definition 1: F_t(v) -> 2^V).
struct StepContext {
  int t = 0;
  int target = 0;
  /// Positions of every user at time t.
  const std::vector<Vec2>* positions = nullptr;
  /// Static occlusion graph for the target at time t (Definition 4).
  const OcclusionGraph* occlusion = nullptr;
  /// Interface (MR/VR) of every user.
  const std::vector<Interface>* interfaces = nullptr;
  /// Global preference matrix p(v, w).
  const Matrix* preference = nullptr;
  /// Global social presence matrix s(v, w).
  const Matrix* social_presence = nullptr;
  /// Importance of social presence relative to preference (Definition 2).
  double beta = 0.5;
  /// Body radius used by the occlusion model.
  double body_radius = 0.25;
  /// Length scale (meters) of MIA's distance normalization:
  /// p̂ = p / (1 + (d / distance_scale)²). Keeps the normalization from
  /// drowning preference in distance (Sec. IV-A: the model should focus
  /// on preference and social presence rather than relative distance).
  double distance_scale = 5.0;
  /// Optional per-target blocklist (paper footnote 8: "an inter-user
  /// blocklist or allowlist could easily be achieved by a slight
  /// modification of the MIA mask"). blocklist[w] == true means user w
  /// must never be rendered for the target; MIA zeroes its mask slot and
  /// utilities. nullptr = no blocklist.
  ///
  /// The serving runtime reuses this channel for temporal candidate
  /// pruning (ServerOptions::max_candidates, docs/ticking.md): the mask
  /// blocks everyone outside the target's top-k recently co-present
  /// candidates. Implementations must therefore treat the blocklist as
  /// a hard candidate filter with no side effects on the survivors —
  /// the scores/ordering of unblocked users must be identical to an
  /// unpruned call (that is what makes the "exact ranking within the
  /// pruned set" contract hold end to end).
  const std::vector<bool>* blocklist = nullptr;
};

/// Options controlling offline training of learned recommenders.
struct TrainOptions {
  int epochs = 12;
  /// Target users sampled per training epoch.
  int targets_per_epoch = 4;
  /// Sessions (by index into Dataset::sessions) used for training; the
  /// evaluation harness holds out the last session. Empty = all but last.
  std::vector<int> train_sessions;
  double learning_rate = 1e-2;
  uint64_t seed = 7;
  /// If true, prints the loss once per epoch.
  bool verbose = false;
  /// NaN/Inf guarding and degradation policy for the optimizer loop
  /// (see nn/guard.h). Guarding is on by default; set
  /// robustness.guard_training = false for the historical fail-fast
  /// behavior.
  RobustnessConfig robustness;
};

/// Abstract AFTER recommender (Definition 1). Implementations are
/// stateful across a session rollout (BeginSession resets recurrent
/// state); Recommend must be callable at 'real time', i.e., it is the
/// code path whose latency the benchmarks measure.
class Recommender {
 public:
  virtual ~Recommender() = default;

  virtual std::string name() const = 0;

  /// Called before replaying a session for a given target user.
  virtual void BeginSession(int num_users, int target) {
    (void)num_users;
    (void)target;
  }

  /// Capability bit consulted by the online serving runtime
  /// (serve/server.h): true means Recommend() is logically const and
  /// re-entrant — it mutates no member state, so one instance may serve
  /// concurrent requests for arbitrary targets without synchronization.
  /// The runtime requires it: it builds one primary and shares it across
  /// every room and worker. Defaults to false (the safe answer):
  /// session-stateful models (POSHGNN / TGCN / DCRNN carry recurrent
  /// state, COMURNet carries its staleness pipeline, Random/Oracle
  /// mutate an RNG or the previous selection) belong to the offline
  /// evaluator, which replays them one target session at a time. Purely
  /// functional models (Nearest, FrozenPoshgnn, and MvAGC / GraFrank
  /// after training) override this to true.
  virtual bool thread_safe() const { return false; }

  /// Returns the set of users rendered for the target at this step
  /// (true = recommended). The target's own slot must be false.
  virtual std::vector<bool> Recommend(const StepContext& context) = 0;

  /// Answers many targets of the *same scene* in one call; returns one
  /// Recommend-shaped vector per context, in order. The default loops
  /// Recommend, and nothing in src/ overrides or calls it: the serving
  /// runtime, batcher included, calls Recommend once per distinct
  /// target. It stays for decorators that forward it (perfbench's
  /// TracedRecommender).
  virtual std::vector<std::vector<bool>> RecommendBatch(
      const std::vector<StepContext>& contexts) {
    std::vector<std::vector<bool>> out;
    out.reserve(contexts.size());
    for (const StepContext& context : contexts)
      out.push_back(Recommend(context));
    return out;
  }
};

/// A recommender with an offline training phase (POSHGNN, DCRNN, TGCN,
/// GraFrank).
class TrainableRecommender : public Recommender {
 public:
  virtual void Train(const Dataset& dataset, const TrainOptions& options) = 0;
};

}  // namespace after

#endif  // AFTER_CORE_RECOMMENDER_H_
