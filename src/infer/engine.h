#ifndef AFTER_INFER_ENGINE_H_
#define AFTER_INFER_ENGINE_H_

#include <vector>

#include "core/recommender.h"
#include "infer/arena.h"
#include "infer/dispatch.h"
#include "infer/kernels.h"
#include "infer/tensor.h"
#include "tensor/matrix.h"

namespace after {
namespace infer {

/// Architecture + decode knobs of the frozen model the engine serves.
/// A projection of PoshgnnConfig (core/poshgnn.h) — duplicated here so
/// infer/ never includes the mutable model's header.
struct EngineConfig {
  int hidden_dim = 8;
  double beta = 0.5;
  double threshold = 0.5;
  int max_recommendations = 10;
  bool use_mia = true;
  bool use_lwp = true;
};

/// The rows a forward computes in its width-1 output layers (PDR layer
/// 2, giving r̃, and LWP layer 3, giving σ). Every other layer always
/// computes all n rows.
enum class OutputRows {
  /// Rows whose mask is nonzero: all the decoded answer reads. r̃ and σ
  /// stay 0 at masked rows, whose recommendation is +0 either way.
  kLive,
  /// Every row (the parity harness).
  kAll,
};

/// Every intermediate of one fused forward, copied out for the parity
/// harness (tests/infer/engine_test.cc compares each against the double
/// reference path layer by layer). All row-major, n rows.
struct ForwardTrace {
  std::vector<float> features;        // n x 4
  std::vector<float> mask;            // n x 1
  std::vector<float> p_hat;           // n x 1
  std::vector<float> s_hat;           // n x 1
  std::vector<float> pdr_hidden;      // n x hidden_dim
  std::vector<float> prototype;       // n x 1 (0 off the output rows)
  std::vector<float> sigma;           // n x 1 (0 off the output rows;
                                      //   empty when !use_lwp)
  std::vector<float> recommendation;  // n x 1 (post preservation gate)
};

/// Inference-only fused POSHGNN forward in float32 (docs/inference.md).
///
/// The engine is built once per frozen model: weights are narrowed to
/// contiguous row-major float32 tensors, the LWP session-start structure
/// is folded into the weights (zero h_{t-1}/r_{t-1}/e1/e2 columns are
/// dropped, the all-one e0 column folds into the bias on the self path
/// and into a rank-1 degree term on the neighbor path), and the kernel
/// table for the host's SIMD tier is resolved. Per request it performs
/// zero heap allocations in steady state (workspace pool + arena) and
/// aggregates over the occlusion graph's neighbor lists in O(E·cols)
/// instead of the dense O(n²·cols) adjacency matmul. Serving forwards
/// run the width-1 output layers at the live rows only (OutputRows).
///
/// Thread-safe: all members are const after construction except the
/// workspace pool, which hands each concurrent caller its own scratch.
class PoshgnnInferEngine {
 public:
  /// `parameters` are the Poshgnn::Parameters() values in declaration
  /// order: PDR layer 1 {M1, M2, b}, PDR layer 2 {M1, M2, b}, then (when
  /// config.use_lwp) LWP layers 1-3 in the same per-layer order.
  PoshgnnInferEngine(const EngineConfig& config,
                     const std::vector<Matrix>& parameters,
                     SimdLevel level = ActiveSimdLevel());

  /// Session-start recommendation, same contract as
  /// FrozenPoshgnn::Recommend.
  std::vector<bool> Recommend(const StepContext& context) const;

  /// Runs the fused forward and copies out every intermediate (parity
  /// harness hook; not a serving path). Computes every row unless told
  /// otherwise; `OutputRows::kLive` is the serving forward.
  ForwardTrace Trace(const StepContext& context,
                     OutputRows rows = OutputRows::kAll) const;

  SimdLevel simd_level() const { return level_; }
  const EngineConfig& config() const { return config_; }
  /// Workspace-pool observability for the zero-allocation tests.
  const WorkspacePool& pool() const { return pool_; }

 private:
  /// Raw views into the workspace arena after one forward.
  struct Buffers {
    float* x = nullptr;       // n x 4
    float* mask = nullptr;    // n x 1
    float* p_hat = nullptr;   // n x 1
    float* s_hat = nullptr;   // n x 1
    float* hidden = nullptr;  // n x hidden_dim
    float* proto = nullptr;   // n x 1
    float* sigma = nullptr;   // n x 1 (null when !use_lwp)
    float* rec = nullptr;     // n x 1
  };

  /// The fused forward: MIA (f32) -> PDR -> LWP -> preservation gate,
  /// with the output layers computed at `rows`.
  Buffers Forward(const StepContext& context, OutputRows rows,
                  Workspace& workspace) const;

  /// Threshold + budgeted top-k decode on the forward's buffers.
  std::vector<bool> Decode(const StepContext& context, const Buffers& b,
                           Workspace& workspace) const;

  EngineConfig config_;
  SimdLevel level_;
  const KernelOps* ops_;

  // PDR, converted once at load.
  TensorF32 pdr1_self_, pdr1_neigh_, pdr1_bias_;  // 4xK, 4xK, 1xK
  TensorF32 pdr2_self_, pdr2_neigh_, pdr2_bias_;  // Kx1, Kx1, 1x1

  // LWP layer 1 after the session-start fold (empty when !use_lwp):
  // only the x̂ rows of M1/M2 survive; bias' = b + M1[e0,:] and the
  // degree row M2[e0,:] carry the all-one e0 column.
  TensorF32 lwp1_self_x_, lwp1_neigh_x_;      // 4xK each
  TensorF32 lwp1_bias_folded_, lwp1_deg_row_;  // 1xK each
  TensorF32 lwp2_self_, lwp2_neigh_, lwp2_bias_;  // KxK, KxK, 1xK
  TensorF32 lwp3_self_, lwp3_neigh_, lwp3_bias_;  // Kx1, Kx1, 1x1

  mutable WorkspacePool pool_;
};

}  // namespace infer
}  // namespace after

#endif  // AFTER_INFER_ENGINE_H_
