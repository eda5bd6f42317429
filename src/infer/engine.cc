#include "infer/engine.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/geometry.h"
#include "graph/occlusion_converter.h"

namespace after {
namespace infer {
namespace {

constexpr int kFeatureDim = 4;  // [p̂, ŝ, distance, interface]
constexpr int kDeltaDim = 3;    // [e0, e1, e2]

}  // namespace

PoshgnnInferEngine::PoshgnnInferEngine(const EngineConfig& config,
                                       const std::vector<Matrix>& parameters,
                                       SimdLevel level)
    : config_(config), level_(level), ops_(&OpsFor(level)) {
  const int k = config_.hidden_dim;
  AFTER_CHECK_GT(k, 0);
  AFTER_CHECK_EQ(static_cast<int>(parameters.size()),
                 config_.use_lwp ? 15 : 6);

  // PDR: layer1 {M1 4xK, M2 4xK, b 1xK}, layer2 {M1 Kx1, M2 Kx1, b 1x1}.
  AFTER_CHECK_EQ(parameters[0].rows(), kFeatureDim);
  AFTER_CHECK_EQ(parameters[0].cols(), k);
  AFTER_CHECK_EQ(parameters[3].rows(), k);
  AFTER_CHECK_EQ(parameters[3].cols(), 1);
  pdr1_self_ = TensorF32::FromMatrix(parameters[0]);
  pdr1_neigh_ = TensorF32::FromMatrix(parameters[1]);
  pdr1_bias_ = TensorF32::FromMatrix(parameters[2]);
  pdr2_self_ = TensorF32::FromMatrix(parameters[3]);
  pdr2_neigh_ = TensorF32::FromMatrix(parameters[4]);
  pdr2_bias_ = TensorF32::FromMatrix(parameters[5]);

  if (!config_.use_lwp) return;

  // LWP layer 1 consumes [x̂ | Δ | h_{t-1} | r_{t-1}]. The frozen model
  // always runs the session-start step, where Δ = [1 | 0 | 0] and
  // h_{t-1} = r_{t-1} = 0, so of the in_features rows only the x̂ block
  // and the e0 row ever multiply nonzero input. Fold them at load:
  //   self path:      1 * M1[e0,:]  ->  bias' = b + M1[e0,:]
  //   neighbor path:  (A*1)_i * M2[e0,:] = degree_i * M2[e0,:]
  // and drop every other non-x̂ row.
  const int lwp_in = kFeatureDim + kDeltaDim + k + 1;
  const int e0 = kFeatureDim;
  const Matrix& m1 = parameters[6];
  const Matrix& m2 = parameters[7];
  const Matrix& b1 = parameters[8];
  AFTER_CHECK_EQ(m1.rows(), lwp_in);
  AFTER_CHECK_EQ(m1.cols(), k);
  Matrix bias_folded(1, k);
  Matrix deg_row(1, k);
  for (int j = 0; j < k; ++j) {
    bias_folded.At(0, j) = b1.At(0, j) + m1.At(e0, j);
    deg_row.At(0, j) = m2.At(e0, j);
  }
  lwp1_self_x_ = TensorF32::FromMatrix(m1).SliceRows(0, kFeatureDim);
  lwp1_neigh_x_ = TensorF32::FromMatrix(m2).SliceRows(0, kFeatureDim);
  lwp1_bias_folded_ = TensorF32::FromMatrix(bias_folded);
  lwp1_deg_row_ = TensorF32::FromMatrix(deg_row);

  AFTER_CHECK_EQ(parameters[9].rows(), k);
  AFTER_CHECK_EQ(parameters[9].cols(), k);
  lwp2_self_ = TensorF32::FromMatrix(parameters[9]);
  lwp2_neigh_ = TensorF32::FromMatrix(parameters[10]);
  lwp2_bias_ = TensorF32::FromMatrix(parameters[11]);
  AFTER_CHECK_EQ(parameters[12].rows(), k);
  AFTER_CHECK_EQ(parameters[12].cols(), 1);
  lwp3_self_ = TensorF32::FromMatrix(parameters[12]);
  lwp3_neigh_ = TensorF32::FromMatrix(parameters[13]);
  lwp3_bias_ = TensorF32::FromMatrix(parameters[14]);
}

PoshgnnInferEngine::Buffers PoshgnnInferEngine::Forward(
    const StepContext& context, OutputRows rows, Workspace& workspace) const {
  AFTER_CHECK(context.positions != nullptr);
  AFTER_CHECK(context.occlusion != nullptr);
  AFTER_CHECK(context.interfaces != nullptr);
  AFTER_CHECK(context.preference != nullptr);
  AFTER_CHECK(context.social_presence != nullptr);

  const auto& positions = *context.positions;
  const auto& interfaces = *context.interfaces;
  const OcclusionGraph& graph = *context.occlusion;
  const int n = static_cast<int>(positions.size());
  const int v = context.target;
  const int k = config_.hidden_dim;
  // The caller's arcs (a serving snapshot's), when it has them: the same
  // ComputeViewArc values computed here otherwise.
  const std::vector<ViewArc>* arcs = context.arcs;
  if (arcs == nullptr) {
    ComputeViewArcs(positions, v, context.body_radius, &workspace.arcs);
    arcs = &workspace.arcs;
  }
  AFTER_CHECK_EQ(static_cast<int>(arcs->size()), n);
  Arena& arena = workspace.arena;

  Buffers b;
  b.x = arena.Allocate(static_cast<std::size_t>(n) * kFeatureDim);
  b.mask = arena.Allocate(n);
  b.p_hat = arena.Allocate(n);
  b.s_hat = arena.Allocate(n);

  // --- MIA, float32. The geometry stays double (exactly the reference
  // path's arithmetic) and narrows once at the feature store.
  if (config_.use_mia) {
    workspace.physical.assign(n, false);
    for (int u = 0; u < n; ++u)
      workspace.physical[u] = interfaces[u] == Interface::kMR;
    PhysicallyBlockedUsers(*arcs, v, workspace.physical, &workspace.blockers,
                           &workspace.blocked);
    for (int w = 0; w < n; ++w) {
      bool masked = w == v || workspace.blocked[w];
      if (context.blocklist != nullptr && (*context.blocklist)[w])
        masked = true;
      b.mask[w] = masked ? 0.0f : 1.0f;
    }
  } else {
    // "Only PDR" ablation: raw features, mask only excludes the target.
    for (int w = 0; w < n; ++w) b.mask[w] = w == v ? 0.0f : 1.0f;
  }
  const double scale =
      context.distance_scale > 0.0 ? context.distance_scale : 1.0;
  for (int w = 0; w < n; ++w) {
    if (w == v) continue;
    const double dist = (*arcs)[w].distance;
    double p = context.preference->At(v, w);
    double s = context.social_presence->At(v, w);
    if (config_.use_mia) {
      const double denom = 1.0 + (dist / scale) * (dist / scale);
      p /= denom;
      s /= denom;
      if (b.mask[w] == 0.0f) {
        p = 0.0;
        s = 0.0;
      }
    }
    float* row = b.x + static_cast<std::size_t>(w) * kFeatureDim;
    b.p_hat[w] = row[0] = static_cast<float>(p);
    b.s_hat[w] = row[1] = static_cast<float>(s);
    row[2] = static_cast<float>(dist);
    row[3] = interfaces[w] == Interface::kMR ? 1.0f : 0.0f;
  }

  // --- Sparse aggregation: (A*x)_i = sum of neighbor rows, O(E*cols).
  const auto aggregate = [&](const float* src, int cols, float* dst) {
    for (int i = 0; i < n; ++i) {
      const std::span<const int> nb = graph.Neighbors(i);
      ops_->sum_rows(src, cols, nb.data(), static_cast<int>(nb.size()),
                     dst + static_cast<std::size_t>(i) * cols);
    }
  };

  // --- Width-1 output layers (r̃, σ), one row at a time, at the output
  // rows only. A row reads just its own input row and its neighbor sum,
  // so its bits are those of a full-width layer; skipped rows keep the
  // arena's zero.
  float* row_sum = arena.Allocate(k);
  const auto output_layer = [&](const float* src, const TensorF32& w_self,
                                const TensorF32& w_neigh,
                                const TensorF32& bias, float* y) {
    for (int w = 0; w < n; ++w) {
      if (rows == OutputRows::kLive && b.mask[w] == 0.0f) continue;
      const std::span<const int> nb = graph.Neighbors(w);
      ops_->sum_rows(src, k, nb.data(), static_cast<int>(nb.size()), row_sum);
      ops_->gcn_layer(1, k, 1, src + static_cast<std::size_t>(w) * k, row_sum,
                      w_self.data(), w_neigh.data(), bias.data(), nullptr,
                      nullptr, Act::kSigmoid, y + w);
    }
  };

  float* ax = arena.Allocate(static_cast<std::size_t>(n) * kFeatureDim);
  aggregate(b.x, kFeatureDim, ax);

  // --- PDR: ReLU layer to the hidden state, sigmoid layer to r̃.
  b.hidden = arena.Allocate(static_cast<std::size_t>(n) * k);
  ops_->gcn_layer(n, kFeatureDim, k, b.x, ax, pdr1_self_.data(),
                  pdr1_neigh_.data(), pdr1_bias_.data(), nullptr, nullptr,
                  Act::kRelu, b.hidden);
  b.proto = arena.Allocate(n);
  output_layer(b.hidden, pdr2_self_, pdr2_neigh_, pdr2_bias_, b.proto);

  b.rec = arena.Allocate(n);
  if (!config_.use_lwp) {
    for (int w = 0; w < n; ++w) b.rec[w] = b.mask[w] * b.proto[w];
    return b;
  }

  // --- LWP on the folded session-start weights: layer 1 reads only x̂
  // plus the degree term standing in for the e0 column.
  workspace.degree.resize(n);
  for (int i = 0; i < n; ++i)
    workspace.degree[i] = static_cast<float>(graph.Degree(i));
  float* l1 = arena.Allocate(static_cast<std::size_t>(n) * k);
  ops_->gcn_layer(n, kFeatureDim, k, b.x, ax, lwp1_self_x_.data(),
                  lwp1_neigh_x_.data(), lwp1_bias_folded_.data(),
                  workspace.degree.data(), lwp1_deg_row_.data(), Act::kRelu,
                  l1);
  float* al1 = arena.Allocate(static_cast<std::size_t>(n) * k);
  aggregate(l1, k, al1);
  float* l2 = arena.Allocate(static_cast<std::size_t>(n) * k);
  ops_->gcn_layer(n, k, k, l1, al1, lwp2_self_.data(), lwp2_neigh_.data(),
                  lwp2_bias_.data(), nullptr, nullptr, Act::kRelu, l2);
  b.sigma = arena.Allocate(n);
  output_layer(l2, lwp3_self_, lwp3_neigh_, lwp3_bias_, b.sigma);

  // Preservation gate with r_{t-1} = 0: r = m ⊗ (1-σ) ⊗ r̃.
  for (int w = 0; w < n; ++w)
    b.rec[w] = b.mask[w] * (1.0f - b.sigma[w]) * b.proto[w];
  return b;
}

std::vector<bool> PoshgnnInferEngine::Decode(const StepContext& context,
                                             const Buffers& b,
                                             Workspace& workspace) const {
  const int n = static_cast<int>(context.positions->size());
  std::vector<int>& candidates = workspace.candidates;
  candidates.clear();
  for (int w = 0; w < n; ++w) {
    if (w == context.target) continue;
    if (static_cast<double>(b.rec[w]) > config_.threshold)
      candidates.push_back(w);
  }
  if (config_.max_recommendations > 0 &&
      static_cast<int>(candidates.size()) > config_.max_recommendations) {
    // Budgeted top-k by r_w * (1-β) p̂_w — the reference decoder's score
    // with the frozen path's r_{t-1} = 0 (the β continuity term
    // vanishes). Ties break by index in both decoders so the f32 and
    // f64 engines order equal-scored candidates identically.
    std::vector<double>& decode_score = workspace.decode_score;
    decode_score.assign(n, 0.0);
    for (int w : candidates) {
      const double gain =
          (1.0 - config_.beta) * static_cast<double>(b.p_hat[w]);
      decode_score[w] = static_cast<double>(b.rec[w]) * gain;
    }
    std::sort(candidates.begin(), candidates.end(), [&](int a, int c) {
      if (decode_score[a] != decode_score[c])
        return decode_score[a] > decode_score[c];
      return a < c;
    });
    candidates.resize(config_.max_recommendations);
  }
  std::vector<bool> selected(n, false);
  for (int w : candidates) selected[w] = true;
  return selected;
}

std::vector<bool> PoshgnnInferEngine::Recommend(
    const StepContext& context) const {
  WorkspacePool::Handle handle = pool_.Acquire();
  const Buffers b = Forward(context, OutputRows::kLive, *handle.get());
  return Decode(context, b, *handle.get());
}

ForwardTrace PoshgnnInferEngine::Trace(const StepContext& context,
                                       OutputRows rows) const {
  WorkspacePool::Handle handle = pool_.Acquire();
  const Buffers b = Forward(context, rows, *handle.get());
  const int n = static_cast<int>(context.positions->size());
  const int k = config_.hidden_dim;
  ForwardTrace trace;
  trace.features.assign(b.x, b.x + static_cast<std::size_t>(n) * kFeatureDim);
  trace.mask.assign(b.mask, b.mask + n);
  trace.p_hat.assign(b.p_hat, b.p_hat + n);
  trace.s_hat.assign(b.s_hat, b.s_hat + n);
  trace.pdr_hidden.assign(b.hidden,
                          b.hidden + static_cast<std::size_t>(n) * k);
  trace.prototype.assign(b.proto, b.proto + n);
  if (b.sigma != nullptr) trace.sigma.assign(b.sigma, b.sigma + n);
  trace.recommendation.assign(b.rec, b.rec + n);
  return trace;
}

}  // namespace infer
}  // namespace after
