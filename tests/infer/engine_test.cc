#include "infer/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/evaluator.h"
#include "core/poshgnn.h"
#include "data/dataset.h"
#include "graph/occlusion_converter.h"
#include "infer/dispatch.h"
#include "serve/room.h"

namespace after {
namespace {

// Documented f32-vs-f64 tolerance of the fused engine
// (docs/inference.md): |f32 - f64| <= kAtol + kRtol * |f64| per entry.
// Observed drift on the table2-style datasets is below 1e-5; the bound
// leaves an order of magnitude of headroom.
constexpr double kAtol = 1e-4;
constexpr double kRtol = 1e-4;

DatasetConfig TinyConfig() {
  DatasetConfig config;
  config.num_users = 20;
  config.num_steps = 12;
  config.num_sessions = 2;
  config.room_side = 6.0;
  config.seed = 5;
  return config;
}

PoshgnnConfig ModelConfig() {
  PoshgnnConfig config;
  config.hidden_dim = 8;
  config.seed = 9;
  return config;
}

Poshgnn TrainedModel(const Dataset& dataset, PoshgnnConfig config) {
  Poshgnn model(config);
  TrainOptions train;
  train.epochs = 4;
  train.targets_per_epoch = 3;
  train.seed = 21;
  model.Train(dataset, train);
  EXPECT_TRUE(model.last_train_status().ok());
  return model;
}

// Bundles a StepContext with the occlusion graph it points into.
struct BoundContext {
  BoundContext(const Dataset& dataset, int session, int t, int target)
      : occlusion(BuildOcclusionGraph(
            dataset.sessions[session].PositionsAt(t), target,
            dataset.sessions[session].body_radius())) {
    const XrWorld& world = dataset.sessions[session];
    context.t = t;
    context.target = target;
    context.positions = &world.PositionsAt(t);
    context.occlusion = &occlusion;
    context.interfaces = &world.interfaces();
    context.preference = &dataset.preference;
    context.social_presence = &dataset.social_presence;
    context.body_radius = world.body_radius();
  }
  OcclusionGraph occlusion;
  StepContext context;
};

void ExpectWithinTolerance(const std::vector<float>& got, const Matrix& want,
                           const char* label) {
  ASSERT_EQ(static_cast<int>(got.size()), want.size()) << label;
  for (int r = 0; r < want.rows(); ++r)
    for (int c = 0; c < want.cols(); ++c) {
      const double reference = want.At(r, c);
      const double actual =
          got[static_cast<std::size_t>(r) * want.cols() + c];
      EXPECT_LE(std::abs(actual - reference),
                kAtol + kRtol * std::abs(reference))
          << label << " at (" << r << ", " << c << "): f32 " << actual
          << " vs f64 " << reference;
    }
}

// The reference double forward at session start, computed directly from
// Poshgnn::Parameters() with plain Matrix arithmetic (independent of
// both the autograd tape and the fused kernels).
struct ReferenceForward {
  Matrix features, mask, p_hat, s_hat, hidden, proto, sigma, rec;
};

Matrix GcnReference(const Matrix& x, const Matrix& adjacency,
                    const Matrix& m1, const Matrix& m2, const Matrix& bias,
                    bool relu) {
  Matrix out = x.MatMul(m1) + adjacency.MatMul(x).MatMul(m2);
  for (int r = 0; r < out.rows(); ++r)
    for (int c = 0; c < out.cols(); ++c) {
      const double z = out.At(r, c) + bias.At(0, c);
      out.At(r, c) = relu ? (z > 0.0 ? z : 0.0) : 1.0 / (1.0 + std::exp(-z));
    }
  return out;
}

ReferenceForward ComputeReference(const Poshgnn& model,
                                  const StepContext& context) {
  const MiaOutput mia = model.AggregateFresh(context);
  const int n = mia.features.rows();
  const int k = model.config().hidden_dim;
  std::vector<Matrix> params;
  for (const Variable& p : model.Parameters()) params.push_back(p.value());

  ReferenceForward ref;
  ref.features = mia.features;
  ref.mask = mia.mask;
  ref.p_hat = mia.p_hat;
  ref.s_hat = mia.s_hat;
  ref.hidden = GcnReference(mia.features, mia.adjacency, params[0], params[1],
                            params[2], /*relu=*/true);
  ref.proto = GcnReference(ref.hidden, mia.adjacency, params[3], params[4],
                           params[5], /*relu=*/false);
  if (model.config().use_lwp) {
    const Matrix lwp_input = mia.features.ConcatCols(mia.delta)
                                 .ConcatCols(Matrix(n, k))
                                 .ConcatCols(Matrix(n, 1));
    Matrix h = GcnReference(lwp_input, mia.adjacency, params[6], params[7],
                            params[8], /*relu=*/true);
    h = GcnReference(h, mia.adjacency, params[9], params[10], params[11],
                     /*relu=*/true);
    ref.sigma = GcnReference(h, mia.adjacency, params[12], params[13],
                             params[14], /*relu=*/false);
    ref.rec = Matrix(n, 1);
    for (int w = 0; w < n; ++w)
      ref.rec.At(w, 0) = ref.mask.At(w, 0) * (1.0 - ref.sigma.At(w, 0)) *
                         ref.proto.At(w, 0);
  } else {
    ref.rec = ref.mask.Hadamard(ref.proto);
  }
  return ref;
}

infer::PoshgnnInferEngine MakeEngine(
    const Poshgnn& model,
    infer::SimdLevel level = infer::ActiveSimdLevel()) {
  infer::EngineConfig config;
  config.hidden_dim = model.config().hidden_dim;
  config.beta = model.config().beta;
  config.threshold = model.config().threshold;
  config.max_recommendations = model.config().max_recommendations;
  config.use_mia = model.config().use_mia;
  config.use_lwp = model.config().use_lwp;
  std::vector<Matrix> values;
  for (const Variable& p : model.Parameters()) values.push_back(p.value());
  return infer::PoshgnnInferEngine(config, values, level);
}

TEST(InferEngineTest, EveryLayerWithinToleranceOfDoubleReference) {
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  const Poshgnn model = TrainedModel(dataset, ModelConfig());
  const infer::PoshgnnInferEngine engine = MakeEngine(model);

  for (int target : {0, 3, 11, 19}) {
    const BoundContext bound(dataset, 0, 0, target);
    const infer::ForwardTrace trace = engine.Trace(bound.context);
    const ReferenceForward ref = ComputeReference(model, bound.context);
    ExpectWithinTolerance(trace.features, ref.features, "features");
    ExpectWithinTolerance(trace.mask, ref.mask, "mask");
    ExpectWithinTolerance(trace.p_hat, ref.p_hat, "p_hat");
    ExpectWithinTolerance(trace.s_hat, ref.s_hat, "s_hat");
    ExpectWithinTolerance(trace.pdr_hidden, ref.hidden, "pdr_hidden");
    ExpectWithinTolerance(trace.prototype, ref.proto, "prototype");
    ExpectWithinTolerance(trace.sigma, ref.sigma, "sigma");
    ExpectWithinTolerance(trace.recommendation, ref.rec, "recommendation");
  }
}

TEST(InferEngineTest, LwpWeightFoldMatchesFullConcatInput) {
  // The engine never materializes the [x̂ | Δ | h | r] concatenation —
  // the fold (bias + e0 self row, degree ⊗ e0 neighbor row, dropped
  // zero rows) must be algebraically identical to the full product.
  // An untrained model keeps weights at their random init, which is
  // plenty to expose a wrong fold.
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  const Poshgnn model(ModelConfig());
  const infer::PoshgnnInferEngine engine = MakeEngine(model);
  const BoundContext bound(dataset, 1, 2, 5);
  const infer::ForwardTrace trace = engine.Trace(bound.context);
  const ReferenceForward ref = ComputeReference(model, bound.context);
  ExpectWithinTolerance(trace.sigma, ref.sigma, "sigma(folded LWP)");
  ExpectWithinTolerance(trace.recommendation, ref.rec, "recommendation");
}

TEST(InferEngineTest, LiveRowForwardIsBitIdenticalToAllRows) {
  // The mega-room request shape: a dense 10 m room and a blocklist
  // keeping 32 candidates, as the server's recency prune does. The
  // serving forward runs the output layers at the live rows only; its
  // recommendation must equal the all-rows forward's bit for bit at
  // every row.
  DatasetConfig dataset_config;
  dataset_config.num_users = 256;
  dataset_config.num_steps = 2;
  dataset_config.num_sessions = 1;
  dataset_config.room_side = 10.0;
  dataset_config.seed = 15;
  const Dataset dataset = GenerateTimikLike(dataset_config);
  const int n = dataset.num_users();
  std::vector<bool> blocklist(n, true);
  for (int w = 3; w < n; w += n / 32) blocklist[w] = false;

  const auto bits = [](float value) { return std::bit_cast<uint32_t>(value); };
  for (const bool use_lwp : {true, false}) {
    PoshgnnConfig config = ModelConfig();
    config.use_lwp = use_lwp;
    const Poshgnn model(config);
    for (const infer::SimdLevel level :
         {infer::SimdLevel::kScalar, infer::ActiveSimdLevel()}) {
      const infer::PoshgnnInferEngine engine = MakeEngine(model, level);
      for (int target : {0, 3, 128}) {
        SCOPED_TRACE(::testing::Message()
                     << "use_lwp " << use_lwp << " tier "
                     << infer::SimdLevelName(level) << " target " << target);
        BoundContext bound(dataset, 0, 1, target);
        bound.context.blocklist = &blocklist;
        const infer::ForwardTrace all = engine.Trace(bound.context);
        const infer::ForwardTrace live =
            engine.Trace(bound.context, infer::OutputRows::kLive);
        ASSERT_EQ(live.recommendation.size(), all.recommendation.size());
        int live_rows = 0;
        for (int w = 0; w < n; ++w) {
          EXPECT_EQ(bits(live.recommendation[w]), bits(all.recommendation[w]))
              << "row " << w;
          if (all.mask[w] == 0.0f) continue;
          ++live_rows;
          EXPECT_EQ(bits(live.prototype[w]), bits(all.prototype[w]))
              << "row " << w;
          if (use_lwp) {
            EXPECT_EQ(bits(live.sigma[w]), bits(all.sigma[w])) << "row " << w;
          }
        }
        EXPECT_GT(live_rows, 0);
        EXPECT_LE(live_rows, 32);
      }
    }
  }
}

TEST(InferEngineTest, ScalarAndActiveTiersProduceSameSelections) {
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  const Poshgnn model = TrainedModel(dataset, ModelConfig());
  const infer::PoshgnnInferEngine scalar =
      MakeEngine(model, infer::SimdLevel::kScalar);
  const infer::PoshgnnInferEngine active = MakeEngine(model);
  for (int target : {1, 8, 14}) {
    const BoundContext bound(dataset, 0, 3, target);
    EXPECT_EQ(scalar.Recommend(bound.context),
              active.Recommend(bound.context))
        << "target " << target;
    // Intermediates agree to float round-off (FMA contraction only).
    const infer::ForwardTrace a = scalar.Trace(bound.context);
    const infer::ForwardTrace b = active.Trace(bound.context);
    ASSERT_EQ(a.recommendation.size(), b.recommendation.size());
    for (std::size_t i = 0; i < a.recommendation.size(); ++i)
      EXPECT_NEAR(a.recommendation[i], b.recommendation[i], 1e-5f);
  }
}

// The f64 reference of a served answer: the mutable model's first step
// after BeginSession, which is the session-start step FrozenPoshgnn
// serves. Each Recommend starts a fresh session, so the offline
// evaluator sees a memoryless model just like the served one.
class SessionStartReference : public Recommender {
 public:
  explicit SessionStartReference(Poshgnn* model) : model_(model) {}
  std::string name() const override { return "session-start reference"; }
  std::vector<bool> Recommend(const StepContext& context) override {
    model_->BeginSession(static_cast<int>(context.positions->size()),
                         context.target);
    return model_->Recommend(context);
  }

 private:
  Poshgnn* model_;
};

TEST(InferEngineTest, SelectionsMatchReferenceEngineForAllTargets) {
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  Poshgnn model = TrainedModel(dataset, ModelConfig());
  FrozenPoshgnn fused(model);
  SessionStartReference reference(&model);
  for (int t : {0, 5, 11}) {
    for (int target = 0; target < dataset.num_users(); ++target) {
      const BoundContext bound(dataset, 1, t, target);
      EXPECT_EQ(fused.Recommend(bound.context),
                reference.Recommend(bound.context))
          << "t " << t << " target " << target;
    }
  }
}

TEST(InferEngineTest, AblationConfigsMatchReferenceSelections) {
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  for (const bool use_lwp : {false, true}) {
    PoshgnnConfig config = ModelConfig();
    config.use_lwp = use_lwp;
    if (!use_lwp) config.use_mia = false;  // "Only PDR"
    Poshgnn model = TrainedModel(dataset, config);
    FrozenPoshgnn fused(model);
    SessionStartReference reference(&model);
    for (int target : {2, 9, 17}) {
      const BoundContext bound(dataset, 0, 1, target);
      EXPECT_EQ(fused.Recommend(bound.context),
                reference.Recommend(bound.context))
          << "use_lwp " << use_lwp << " target " << target;
    }
  }
}

TEST(InferEngineTest, EvalMetricsIdenticalToReferenceEngine) {
  // End-to-end: the Table II-style evaluation must report identical
  // metrics for the served engine and its f64 reference — same
  // selections means same utilities, occlusion rates and budget usage
  // everywhere.
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  Poshgnn model = TrainedModel(dataset, ModelConfig());
  FrozenPoshgnn fused(model);
  SessionStartReference reference(&model);

  EvalOptions options;
  options.num_targets = 6;
  const EvalResult fused_result =
      EvaluateRecommender(fused, dataset, options);
  const EvalResult reference_result =
      EvaluateRecommender(reference, dataset, options);
  EXPECT_TRUE(fused_result.diagnostics.clean());
  EXPECT_TRUE(reference_result.diagnostics.clean());
  EXPECT_DOUBLE_EQ(fused_result.after_utility,
                   reference_result.after_utility);
  EXPECT_DOUBLE_EQ(fused_result.preference_utility,
                   reference_result.preference_utility);
  EXPECT_DOUBLE_EQ(fused_result.social_presence_utility,
                   reference_result.social_presence_utility);
  EXPECT_DOUBLE_EQ(fused_result.view_occlusion_rate,
                   reference_result.view_occlusion_rate);
  EXPECT_DOUBLE_EQ(fused_result.avg_recommended_per_step,
                   reference_result.avg_recommended_per_step);
}

TEST(InferEngineTest, SnapshotArcsForwardIsBitIdenticalToPositions) {
  // A 512-user live room at the mega-room's density and motion. Its
  // snapshot hands the forward the view arcs its occlusion graphs were
  // built from, most of them carried across delta ticks. A forward that
  // reads them must equal one that recomputes them from the positions,
  // bit for bit, in every buffer.
  DatasetConfig dataset_config;
  dataset_config.num_users = 512;
  dataset_config.num_steps = 2;
  dataset_config.num_sessions = 1;
  dataset_config.room_side = 10.0;
  dataset_config.seed = 15;
  const Dataset dataset = GenerateTimikLike(dataset_config);
  serve::Room::Options options;
  options.mode = serve::Room::Mode::kLive;
  options.move_fraction = 0.05;
  options.temporal_index = true;
  const std::unique_ptr<serve::Room> room =
      serve::Room::Create(options, &dataset).value();
  ASSERT_TRUE(room->Tick().ok());
  // Build every target's graph so that the next ticks carry its arcs.
  for (int target = 0; target < room->num_users(); ++target)
    room->snapshot()->OcclusionFor(target);
  ASSERT_TRUE(room->Tick().ok());
  ASSERT_TRUE(room->Tick().ok());
  const std::shared_ptr<const serve::RoomSnapshot> snapshot = room->snapshot();
  ASSERT_GT(snapshot->delta_carried(), 0);

  const auto bits = [](float value) { return std::bit_cast<uint32_t>(value); };
  const auto expect_same = [&](const std::vector<float>& with_arcs,
                               const std::vector<float>& without,
                               const char* buffer) {
    ASSERT_EQ(with_arcs.size(), without.size()) << buffer;
    for (std::size_t i = 0; i < with_arcs.size(); ++i)
      ASSERT_EQ(bits(with_arcs[i]), bits(without[i]))
          << buffer << " entry " << i;
  };
  const Poshgnn model(ModelConfig());
  for (const infer::SimdLevel level :
       {infer::SimdLevel::kScalar, infer::ActiveSimdLevel()}) {
    const infer::PoshgnnInferEngine engine = MakeEngine(model, level);
    for (int target = 0; target < snapshot->num_users(); ++target) {
      StepContext with_arcs = snapshot->ContextFor(target);
      ASSERT_NE(with_arcs.arcs, nullptr);
      std::vector<bool> prune_mask;
      for (const bool pruned : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "tier " << infer::SimdLevelName(level) << " target "
                     << target << " pruned " << pruned);
        with_arcs.blocklist =
            pruned && snapshot->PruneCandidates(target, 32, &prune_mask)
                ? &prune_mask
                : nullptr;
        StepContext without = with_arcs;
        without.arcs = nullptr;
        const infer::ForwardTrace a = engine.Trace(with_arcs);
        const infer::ForwardTrace b = engine.Trace(without);
        expect_same(a.features, b.features, "features");
        expect_same(a.mask, b.mask, "mask");
        expect_same(a.p_hat, b.p_hat, "p_hat");
        expect_same(a.s_hat, b.s_hat, "s_hat");
        expect_same(a.pdr_hidden, b.pdr_hidden, "pdr_hidden");
        expect_same(a.prototype, b.prototype, "prototype");
        expect_same(a.sigma, b.sigma, "sigma");
        expect_same(a.recommendation, b.recommendation, "recommendation");
      }
    }
  }
}

TEST(InferEngineTest, SteadyStateServesFromOneWorkspace) {
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  const Poshgnn model(ModelConfig());
  const infer::PoshgnnInferEngine engine = MakeEngine(model);
  for (int step = 0; step < 6; ++step) {
    const BoundContext bound(dataset, 0, step % 4, (3 * step) % 20);
    engine.Recommend(bound.context);
  }
  // Sequential traffic never needs a second workspace; the arena inside
  // it stops growing after warm-up (ArenaTest covers the block math).
  EXPECT_EQ(engine.pool().created(), 1u);
}

}  // namespace
}  // namespace after
