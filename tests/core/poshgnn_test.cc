#include "core/poshgnn.h"

#include <gtest/gtest.h>

#include <deque>

#include "core/evaluator.h"
#include "core/loss.h"
#include "data/dataset.h"
#include "graph/occlusion_converter.h"

namespace after {
namespace {

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

TEST(PoshgnnTest, NameReflectsAblation) {
  PoshgnnConfig full = ModelConfig();
  EXPECT_EQ(Poshgnn(full).name(), "POSHGNN");
  full.use_lwp = false;
  EXPECT_EQ(Poshgnn(full).name(), "PDR w/ MIA");
  full.use_mia = false;
  EXPECT_EQ(Poshgnn(full).name(), "Only PDR");
}

TEST(PoshgnnTest, ParametersIncludeLwpOnlyWhenEnabled) {
  PoshgnnConfig config = ModelConfig();
  const size_t full_count = Poshgnn(config).Parameters().size();
  config.use_lwp = false;
  const size_t pdr_count = Poshgnn(config).Parameters().size();
  EXPECT_EQ(pdr_count, 6u);        // 2 GCN layers
  EXPECT_EQ(full_count, 6u + 9u);  // + 3 LWP layers
}

TEST(PoshgnnTest, RecommendationExcludesTargetAndRespectsBudget) {
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  PoshgnnConfig config = ModelConfig();
  config.max_recommendations = 5;
  Poshgnn model(config);
  model.BeginSession(dataset.num_users(), 3);

  const XrWorld& world = dataset.sessions[0];
  for (int t = 0; t < 5; ++t) {
    const OcclusionGraph occlusion = BuildOcclusionGraph(
        world.PositionsAt(t), 3, world.body_radius());
    StepContext context;
    context.t = t;
    context.target = 3;
    context.positions = &world.PositionsAt(t);
    context.occlusion = &occlusion;
    context.interfaces = &world.interfaces();
    context.preference = &dataset.preference;
    context.social_presence = &dataset.social_presence;
    context.body_radius = world.body_radius();

    const std::vector<bool> rec = model.Recommend(context);
    EXPECT_FALSE(rec[3]);
    int count = 0;
    for (bool b : rec) count += b ? 1 : 0;
    EXPECT_LE(count, 5);
  }
}

TEST(PoshgnnTest, TrainingReducesLoss) {
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  Poshgnn model(ModelConfig());

  TrainOptions warmup;
  warmup.epochs = 1;
  warmup.targets_per_epoch = 3;
  warmup.seed = 77;
  model.Train(dataset, warmup);
  const double initial_loss = model.last_training_loss();

  TrainOptions more;
  more.epochs = 12;
  more.targets_per_epoch = 3;
  more.seed = 77;
  model.Train(dataset, more);
  EXPECT_LT(model.last_training_loss(), initial_loss);
}

TEST(PoshgnnTest, TrainedModelBeatsUntrainedOnLoss) {
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  PoshgnnConfig config = ModelConfig();
  Poshgnn trained(config);
  TrainOptions train;
  train.epochs = 10;
  train.targets_per_epoch = 4;
  train.seed = 3;
  trained.Train(dataset, train);

  Poshgnn untrained(config);

  // Compare total POSHGNN loss on a held-out rollout for one target.
  auto rollout_loss = [&](Poshgnn& model) {
    const XrWorld& world = dataset.sessions[1];
    const int target = 7;
    const int n = dataset.num_users();
    model.BeginSession(n, target);
    Mia mia;
    Matrix r_prev(n, 1);
    double total = 0.0;
    for (int t = 0; t < world.num_steps(); ++t) {
      const OcclusionGraph occlusion = BuildOcclusionGraph(
          world.PositionsAt(t), target, world.body_radius());
      StepContext context;
      context.t = t;
      context.target = target;
      context.positions = &world.PositionsAt(t);
      context.occlusion = &occlusion;
      context.interfaces = &world.interfaces();
      context.preference = &dataset.preference;
      context.social_presence = &dataset.social_presence;
      context.body_radius = world.body_radius();

      const MiaOutput agg = model.Aggregate(context);
      const Poshgnn::StepResult step = model.StepOnTape(
          agg, Variable::Constant(r_prev),
          Variable::Constant(Matrix(n, model.config().hidden_dim)));
      total += PoshgnnStepLossValue(step.recommendation.value(), r_prev,
                                    agg.p_hat, agg.s_hat, agg.adjacency,
                                    model.config().alpha,
                                    model.config().beta);
      r_prev = step.recommendation.value();
    }
    return total / world.num_steps();
  };

  EXPECT_LT(rollout_loss(trained), rollout_loss(untrained));
}

TEST(PoshgnnTest, StepOnTapeOutputInUnitInterval) {
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  Poshgnn model(ModelConfig());
  const int n = dataset.num_users();
  const XrWorld& world = dataset.sessions[0];
  const OcclusionGraph occlusion =
      BuildOcclusionGraph(world.PositionsAt(0), 0, world.body_radius());
  StepContext context;
  context.target = 0;
  context.positions = &world.PositionsAt(0);
  context.occlusion = &occlusion;
  context.interfaces = &world.interfaces();
  context.preference = &dataset.preference;
  context.social_presence = &dataset.social_presence;
  context.body_radius = world.body_radius();

  const MiaOutput agg = model.Aggregate(context);
  const Poshgnn::StepResult step = model.StepOnTape(
      agg, Variable::Constant(Matrix(n, 1, 0.5)),
      Variable::Constant(Matrix(n, 8)));
  for (int w = 0; w < n; ++w) {
    EXPECT_GE(step.recommendation.value().At(w, 0), 0.0);
    EXPECT_LE(step.recommendation.value().At(w, 0), 1.0);
  }
  // Target is masked to zero.
  EXPECT_DOUBLE_EQ(step.recommendation.value().At(0, 0), 0.0);
}

TEST(PoshgnnTest, OnlyPdrAblationIgnoresMiaNormalization) {
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  PoshgnnConfig config = ModelConfig();
  config.use_mia = false;
  Poshgnn model(config);
  const XrWorld& world = dataset.sessions[0];
  const OcclusionGraph occlusion =
      BuildOcclusionGraph(world.PositionsAt(0), 2, world.body_radius());
  StepContext context;
  context.target = 2;
  context.positions = &world.PositionsAt(0);
  context.occlusion = &occlusion;
  context.interfaces = &world.interfaces();
  context.preference = &dataset.preference;
  context.social_presence = &dataset.social_presence;
  context.body_radius = world.body_radius();

  const MiaOutput agg = model.Aggregate(context);
  // Raw aggregation: p_hat equals the raw preference row.
  for (int w = 0; w < dataset.num_users(); ++w) {
    if (w == 2) continue;
    EXPECT_DOUBLE_EQ(agg.p_hat.At(w, 0), dataset.preference.At(2, w));
  }
  // Delta carries no structural signal.
  for (int w = 0; w < dataset.num_users(); ++w) {
    EXPECT_DOUBLE_EQ(agg.delta.At(w, 1), 0.0);
    EXPECT_DOUBLE_EQ(agg.delta.At(w, 2), 0.0);
  }
}

// Bundles a StepContext with the occlusion graph it points into, so
// the graph outlives the context in test helpers.
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

Poshgnn TrainedModel(const Dataset& dataset) {
  Poshgnn model(ModelConfig());
  TrainOptions train;
  train.epochs = 4;
  train.targets_per_epoch = 3;
  train.seed = 21;
  model.Train(dataset, train);
  EXPECT_TRUE(model.last_train_status().ok());
  return model;
}

TEST(FrozenPoshgnnTest, BitExactAgainstMutableAtSessionStart) {
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  Poshgnn mutable_model = TrainedModel(dataset);
  // The fused f32 engine's probabilities are tolerance-equal to the f64
  // model's (tests/infer/engine_test.cc); its selections are the same
  // bits.
  FrozenPoshgnn frozen(mutable_model);
  EXPECT_TRUE(frozen.thread_safe());
  EXPECT_FALSE(mutable_model.thread_safe());
  EXPECT_EQ(frozen.name(), "POSHGNN (frozen)");

  // Every frozen Recommend is a session-start step, so it must match
  // the mutable model's first post-BeginSession recommendation exactly.
  for (int target : {0, 3, 11}) {
    BoundContext bound(dataset, 0, 0, target);
    mutable_model.BeginSession(dataset.num_users(), target);
    const std::vector<bool> want = mutable_model.Recommend(bound.context);
    const std::vector<bool> got = frozen.Recommend(bound.context);
    EXPECT_EQ(got, want) << "target " << target;
  }
}

TEST(FrozenPoshgnnTest, ArtifactFileRoundTripPreservesOutputs) {
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  Poshgnn model = TrainedModel(dataset);
  const std::string path =
      std::string(::testing::TempDir()) + "/poshgnn_roundtrip.after";
  ASSERT_TRUE(model.ToArtifact().Save(path).ok());

  auto reloaded = FrozenPoshgnn::FromArtifactFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  FrozenPoshgnn direct(model);
  for (int target : {2, 9}) {
    BoundContext bound(dataset, 1, 0, target);
    EXPECT_EQ(reloaded.value()->Recommend(bound.context),
              direct.Recommend(bound.context))
        << "target " << target;
  }
}

TEST(FrozenPoshgnnTest, RecommendBatchMatchesSequentialRecommend) {
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  Poshgnn model = TrainedModel(dataset);
  FrozenPoshgnn frozen(model);

  // Recommender's default loop, which decorators that forward
  // RecommendBatch (perfbench's TracedRecommender) reach.
  // Deque keeps each BoundContext (and the occlusion graph its context
  // points into) at a stable address while we append.
  std::deque<BoundContext> bound;
  std::vector<StepContext> contexts;
  for (int target : {0, 5, 5, 13}) {
    bound.emplace_back(dataset, 0, 0, target);
  }
  for (const BoundContext& b : bound) contexts.push_back(b.context);

  const std::vector<std::vector<bool>> batched =
      frozen.RecommendBatch(contexts);
  ASSERT_EQ(batched.size(), contexts.size());
  for (size_t i = 0; i < contexts.size(); ++i) {
    EXPECT_EQ(batched[i], frozen.Recommend(contexts[i])) << "slot " << i;
  }
}

TEST(FrozenPoshgnnTest, FromArtifactRejectsMismatchedArchitecture) {
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  Poshgnn model = TrainedModel(dataset);
  ModelArtifact artifact = model.ToArtifact();

  ModelArtifact wrong_kind = artifact;
  wrong_kind.kind = "SOMETHING_ELSE";
  EXPECT_EQ(FrozenPoshgnn::FromArtifact(wrong_kind).status().code(),
            StatusCode::kInvalidData);

  ModelArtifact missing_field = artifact;
  missing_field.metadata.erase("hidden_dim");
  EXPECT_EQ(FrozenPoshgnn::FromArtifact(missing_field).status().code(),
            StatusCode::kInvalidData);

  // hidden_dim lies about the parameter shapes: LoadArtifact must
  // reject during the shape check rather than corrupt the model.
  ModelArtifact wrong_dim = artifact;
  wrong_dim.metadata["hidden_dim"] = "16";
  EXPECT_EQ(FrozenPoshgnn::FromArtifact(wrong_dim).status().code(),
            StatusCode::kInvalidData);
}

TEST(FrozenPoshgnnTest, ConfigFromArtifactRestoresArchitecture) {
  PoshgnnConfig config = ModelConfig();
  config.use_lwp = false;
  config.beta = 0.75;
  config.max_recommendations = 4;
  Poshgnn model(config);

  auto restored = PoshgnnConfigFromArtifact(model.ToArtifact());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().hidden_dim, config.hidden_dim);
  EXPECT_FALSE(restored.value().use_lwp);
  EXPECT_TRUE(restored.value().use_mia);
  EXPECT_DOUBLE_EQ(restored.value().beta, 0.75);
  EXPECT_EQ(restored.value().max_recommendations, 4);
}

TEST(PoshgnnTest, DeterministicGivenSeeds) {
  const Dataset dataset = GenerateTimikLike(TinyConfig());
  auto run = [&] {
    Poshgnn model(ModelConfig());
    TrainOptions train;
    train.epochs = 2;
    train.targets_per_epoch = 2;
    train.seed = 55;
    model.Train(dataset, train);
    return model.last_training_loss();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace after
