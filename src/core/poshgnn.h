#ifndef AFTER_CORE_POSHGNN_H_
#define AFTER_CORE_POSHGNN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/lwp.h"
#include "core/mia.h"
#include "core/pdr.h"
#include "core/recommender.h"
#include "nn/artifact.h"

namespace after {

namespace infer {
class PoshgnnInferEngine;
}  // namespace infer

/// Configuration of the POSHGNN framework (Sec. IV). The `use_*` flags
/// realize the Table V ablations: Full = both true; "PDR w/ MIA" =
/// use_lwp false; "Only PDR" = both false (raw features, no Δ, no mask
/// beyond the target, no distance normalization).
struct PoshgnnConfig {
  int hidden_dim = 8;
  /// Trade-off between preference and social presence (Definition 2).
  double beta = 0.5;
  /// Occlusion penalty weight in the POSHGNN loss (Definition 7).
  double alpha = 0.01;
  bool use_mia = true;
  bool use_lwp = true;
  /// A user is recommended when its final probability exceeds this.
  double threshold = 0.5;
  /// Display budget: at most this many users are rendered per step (the
  /// highest-probability ones above the threshold). Rendering cost and
  /// cognitive load bound the set size in a real XR client; every method
  /// in the benches shares the same budget for fairness.
  int max_recommendations = 10;
  uint64_t seed = 42;
};

/// POSHGNN: the paper's deep temporal graph-learning recommender.
/// MIA fuses multi-modal inputs into an attributed occlusion graph, PDR
/// produces a prototype de-occlusion recommendation, and LWP gates how
/// much of the previous recommendation to preserve.
class Poshgnn : public TrainableRecommender {
 public:
  /// Result of one recurrent step on the autograd tape.
  struct StepResult {
    Variable recommendation;  // r_t (n x 1)
    Variable hidden;          // h_t (n x hidden_dim)
  };

  explicit Poshgnn(const PoshgnnConfig& config);

  std::string name() const override;
  void BeginSession(int num_users, int target) override;
  /// NOT thread-safe (thread_safe() stays false): Recommend advances the
  /// detached recurrent state and MIA's previous-step adjacency, both
  /// keyed to one target's session. The offline evaluator replays it one
  /// target session at a time; the serving runtime serves FrozenPoshgnn.
  std::vector<bool> Recommend(const StepContext& context) override;
  void Train(const Dataset& dataset, const TrainOptions& options) override;

  /// One differentiable step given MIA output and previous-state
  /// variables; used by the trainer (BPTT) and by Recommend (detached).
  StepResult StepOnTape(const MiaOutput& mia, const Variable& r_prev,
                        const Variable& h_prev) const;

  /// Builds MIA output for a step, honoring the use_mia ablation flag.
  MiaOutput Aggregate(const StepContext& context);

  /// Session-start aggregation that touches no member state: a fresh MIA
  /// (no remembered previous adjacency, so Δ_t = [1 | 0 | 0]) or the raw
  /// ablation path. Const and safe to call concurrently. With StepOnTape
  /// at zero state it is the f64 reference forward of a session-start
  /// step, which the fused engine's tests and micro gate compare against.
  MiaOutput AggregateFresh(const StepContext& context) const;

  std::vector<Variable> Parameters() const;

  /// Persists / restores trained weights (see nn/serialize.h). Loading
  /// requires a model constructed with the same architecture flags.
  bool SaveWeights(const std::string& path) const;
  bool LoadWeights(const std::string& path);

  /// Wraps the current weights and architecture into the versioned,
  /// checksummed artifact container (kind "POSHGNN"; header fields
  /// documented in docs/model_artifacts.md). Callers may add
  /// provenance fields (dataset fingerprint, training config) to the
  /// returned artifact before saving it.
  ModelArtifact ToArtifact() const;

  /// Loads weights from an artifact, validating kind and architecture
  /// header fields against this model's config before touching any
  /// parameter. kInvalidData on any mismatch; parameters are untouched
  /// on failure.
  Status LoadArtifact(const ModelArtifact& artifact);

  const PoshgnnConfig& config() const { return config_; }

  /// Average training loss of the last Train() call's final epoch.
  double last_training_loss() const { return last_training_loss_; }

  /// Outcome of the last Train() call: OK on success (possibly with
  /// skipped/rolled-back steps under the robustness policy), kInvalidData
  /// for an untrainable dataset, kNumericalError when the guard gave up.
  /// Parameters are finite in every case.
  const Status& last_train_status() const { return last_train_status_; }

  /// Guard counters from the last Train() call (0 on a clean run).
  int train_steps_skipped() const { return train_steps_skipped_; }
  int train_rollbacks() const { return train_rollbacks_; }

 private:
  /// Raw (un-normalized, un-masked) aggregation for the "Only PDR"
  /// ablation.
  MiaOutput AggregateRaw(const StepContext& context) const;

  PoshgnnConfig config_;
  Mia mia_;
  Pdr pdr_;
  Lwp lwp_;
  double last_training_loss_ = 0.0;
  Status last_train_status_;
  int train_steps_skipped_ = 0;
  int train_rollbacks_ = 0;

  // Detached recurrent state for inference.
  Matrix state_recommendation_;
  Matrix state_hidden_;
};

/// Reconstructs the architecture a POSHGNN artifact was produced with
/// (hidden_dim, ablation flags, decode knobs) from its header fields.
/// kInvalidData when the artifact is not kind "POSHGNN" or the
/// architecture fields are missing/malformed.
Result<PoshgnnConfig> PoshgnnConfigFromArtifact(const ModelArtifact& artifact);

/// Frozen inference-only POSHGNN: immutable trained weights, no
/// recurrent state, `thread_safe() == true` — one instance is shared
/// lock-free by every worker of the serving runtime (serve/server.h).
///
/// Semantics: every Recommend() is a *session-start* step — MIA carries
/// no previous adjacency and the preservation gate sees r_{t-1} = 0,
/// h_{t-1} = 0 — which is what the mutable model computes on the first
/// step after BeginSession(). That drops the temporal-continuity term, a
/// deliberate serving trade-off documented in docs/serving.md:
/// cross-tick smoothing is traded for lock-free sharing and in-tick
/// batching.
///
/// Inference runs on the fused float32 engine (src/infer/). Its
/// selections equal the mutable model's session-start step, and every
/// layer stays within the documented tolerance of it
/// (docs/inference.md, tests/infer/engine_test.cc).
class FrozenPoshgnn : public Recommender {
 public:
  /// Converts config and current weights of a (typically trained)
  /// mutable model; the frozen instance shares nothing with the source,
  /// so a later Train() on the source cannot perturb serving.
  explicit FrozenPoshgnn(const Poshgnn& source);
  ~FrozenPoshgnn() override;

  /// Builds the architecture described by the artifact header and loads
  /// the checksummed weights into it.
  static Result<std::unique_ptr<FrozenPoshgnn>> FromArtifact(
      const ModelArtifact& artifact);

  /// Convenience: Load + FromArtifact.
  static Result<std::unique_ptr<FrozenPoshgnn>> FromArtifactFile(
      const std::string& path);

  std::string name() const override;
  /// Stateless by construction: nothing to reset.
  void BeginSession(int num_users, int target) override;
  bool thread_safe() const override { return true; }
  std::vector<bool> Recommend(const StepContext& context) override;

 private:
  std::string name_;
  /// The weights converted to f32 at construction plus the per-request
  /// workspace pool.
  std::unique_ptr<infer::PoshgnnInferEngine> engine_;
};

}  // namespace after

#endif  // AFTER_CORE_POSHGNN_H_
