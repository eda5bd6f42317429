#include "core/poshgnn.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/check.h"
#include "infer/engine.h"
#include "core/loss.h"
#include "core/session.h"
#include "nn/adam.h"
#include "nn/serialize.h"
#include "data/dataset.h"
#include "graph/occlusion_converter.h"

namespace after {
namespace {

constexpr int kFeatureDim = 4;  // [p̂, ŝ, distance, interface]
constexpr int kDeltaDim = 3;    // [e0, e1, e2]

Rng MakeInitRng(uint64_t seed) { return Rng(seed * 0xA24BAED4963EE407ULL); }

/// Decodes the display set from one step's probabilities (previous =
/// the recurrent state before the step). The fused engine's decoder
/// (infer/engine.cc) mirrors it at session start, where previous = 0.
std::vector<bool> DecodeSelection(const PoshgnnConfig& config,
                                  const MiaOutput& mia,
                                  const Matrix& probabilities,
                                  const Matrix& previous, int target) {
  const int n = probabilities.rows();
  // Following the objective-guided decoding of the neural MIS literature
  // the framework builds on (Ahn et al. 2020), the budgeted set is the
  // top-k by r_w * (expected marginal AFTER gain); the threshold gates
  // which users are considered recommended at all.
  std::vector<int> candidates;
  for (int w = 0; w < n; ++w) {
    if (w == target) continue;
    if (probabilities.At(w, 0) > config.threshold) candidates.push_back(w);
  }
  if (config.max_recommendations > 0 &&
      static_cast<int>(candidates.size()) > config.max_recommendations) {
    std::vector<double> decode_score(n, 0.0);
    for (int w : candidates) {
      // The continuity term exists only when the model actually carries
      // its previous recommendation (LWP); the ablated variants are
      // memoryless and decode on preference alone.
      double gain = (1.0 - config.beta) * mia.p_hat.At(w, 0);
      if (config.use_lwp)
        gain += config.beta * previous.At(w, 0) * mia.s_hat.At(w, 0);
      decode_score[w] = probabilities.At(w, 0) * gain;
    }
    std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
      // Index tie-break keeps the budgeted set deterministic under
      // std::sort (unstable) and aligned with the f32 engine's decoder
      // on exactly-tied scores.
      if (decode_score[a] != decode_score[b])
        return decode_score[a] > decode_score[b];
      return a < b;
    });
    candidates.resize(config.max_recommendations);
  }
  std::vector<bool> selected(n, false);
  for (int w : candidates) selected[w] = true;
  return selected;
}

std::string FormatDouble(double value) {
  std::ostringstream oss;
  oss.precision(17);
  oss << value;
  return oss.str();
}

}  // namespace

Poshgnn::Poshgnn(const PoshgnnConfig& config)
    : config_(config),
      pdr_([&] {
        Rng rng = MakeInitRng(config.seed);
        return Pdr(kFeatureDim, config.hidden_dim, rng);
      }()),
      lwp_([&] {
        Rng rng = MakeInitRng(config.seed + 1);
        return Lwp(kFeatureDim + kDeltaDim + config.hidden_dim + 1,
                   config.hidden_dim, rng);
      }()) {}

std::string Poshgnn::name() const {
  if (config_.use_mia && config_.use_lwp) return "POSHGNN";
  if (config_.use_mia) return "PDR w/ MIA";
  return "Only PDR";
}

void Poshgnn::BeginSession(int num_users, int target) {
  (void)target;
  mia_.Reset();
  state_recommendation_ = Matrix(num_users, 1);
  state_hidden_ = Matrix(num_users, config_.hidden_dim);
}

MiaOutput Poshgnn::AggregateRaw(const StepContext& context) const {
  const auto& positions = *context.positions;
  const auto& interfaces = *context.interfaces;
  const int n = static_cast<int>(positions.size());
  const int v = context.target;

  MiaOutput out;
  out.adjacency = context.occlusion->ToAdjacencyMatrix();
  out.mask = Matrix(n, 1, 1.0);
  out.mask.At(v, 0) = 0.0;
  out.features = Matrix(n, kFeatureDim);
  out.p_hat = Matrix(n, 1);
  out.s_hat = Matrix(n, 1);
  for (int w = 0; w < n; ++w) {
    if (w == v) continue;
    const double p = context.preference->At(v, w);
    const double s = context.social_presence->At(v, w);
    out.p_hat.At(w, 0) = p;
    out.s_hat.At(w, 0) = s;
    out.features.At(w, 0) = p;
    out.features.At(w, 1) = s;
    out.features.At(w, 2) = Distance(positions[v], positions[w]);
    out.features.At(w, 3) = interfaces[w] == Interface::kMR ? 1.0 : 0.0;
  }
  out.delta = Matrix(n, kDeltaDim);
  for (int w = 0; w < n; ++w) out.delta.At(w, 0) = 1.0;
  return out;
}

MiaOutput Poshgnn::Aggregate(const StepContext& context) {
  return config_.use_mia ? mia_.Process(context) : AggregateRaw(context);
}

MiaOutput Poshgnn::AggregateFresh(const StepContext& context) const {
  if (!config_.use_mia) return AggregateRaw(context);
  // A local aggregator reproduces the session-start step (no remembered
  // adjacency) without touching mia_ — const and race-free.
  Mia fresh;
  return fresh.Process(context);
}

Poshgnn::StepResult Poshgnn::StepOnTape(const MiaOutput& mia,
                                        const Variable& r_prev,
                                        const Variable& h_prev) const {
  Variable features = Variable::Constant(mia.features);
  Variable adjacency = Variable::Constant(mia.adjacency);
  Variable mask = Variable::Constant(mia.mask);

  Pdr::Output pdr_out = pdr_.Forward(features, adjacency);

  StepResult result;
  result.hidden = pdr_out.hidden;
  if (config_.use_lwp) {
    Variable lwp_input = Variable::ConcatCols(
        Variable::ConcatCols(features, Variable::Constant(mia.delta)),
        Variable::ConcatCols(h_prev, r_prev));
    Variable sigma = lwp_.Forward(lwp_input, adjacency);
    result.recommendation =
        PreservationGate(mask, sigma, pdr_out.recommendation, r_prev);
  } else {
    result.recommendation =
        Variable::Hadamard(mask, pdr_out.recommendation);
  }
  return result;
}

std::vector<bool> Poshgnn::Recommend(const StepContext& context) {
  const int n = static_cast<int>(context.positions->size());
  if (state_recommendation_.rows() != n)
    BeginSession(n, context.target);

  const MiaOutput mia = Aggregate(context);
  // Detached step: the recurrent state enters as constants so the tape of
  // one step is dropped immediately after thresholding.
  const StepResult step =
      StepOnTape(mia, Variable::Constant(state_recommendation_),
                 Variable::Constant(state_hidden_));

  const Matrix previous = state_recommendation_;
  state_recommendation_ = step.recommendation.value();
  state_hidden_ = step.hidden.value();

  return DecodeSelection(config_, mia, state_recommendation_, previous,
                         context.target);
}

std::vector<Variable> Poshgnn::Parameters() const {
  std::vector<Variable> params = pdr_.Parameters();
  if (config_.use_lwp) {
    for (const auto& p : lwp_.Parameters()) params.push_back(p);
  }
  return params;
}

bool Poshgnn::SaveWeights(const std::string& path) const {
  return SaveParameters(path, Parameters());
}

bool Poshgnn::LoadWeights(const std::string& path) {
  std::vector<Variable> params = Parameters();
  return LoadParameters(path, params);
}

ModelArtifact Poshgnn::ToArtifact() const {
  ModelArtifact artifact;
  artifact.kind = "POSHGNN";
  artifact.metadata["hidden_dim"] = std::to_string(config_.hidden_dim);
  artifact.metadata["beta"] = FormatDouble(config_.beta);
  artifact.metadata["alpha"] = FormatDouble(config_.alpha);
  artifact.metadata["use_mia"] = config_.use_mia ? "1" : "0";
  artifact.metadata["use_lwp"] = config_.use_lwp ? "1" : "0";
  artifact.metadata["threshold"] = FormatDouble(config_.threshold);
  artifact.metadata["max_recommendations"] =
      std::to_string(config_.max_recommendations);
  artifact.metadata["init_seed"] = std::to_string(config_.seed);
  artifact.parameters = SnapshotParameters(Parameters());
  return artifact;
}

Status Poshgnn::LoadArtifact(const ModelArtifact& artifact) {
  if (artifact.kind != "POSHGNN")
    return InvalidDataError("artifact kind '" + artifact.kind +
                            "' is not POSHGNN");
  if (artifact.FieldInt("hidden_dim", -1) != config_.hidden_dim ||
      artifact.FieldInt("use_mia", -1) != (config_.use_mia ? 1 : 0) ||
      artifact.FieldInt("use_lwp", -1) != (config_.use_lwp ? 1 : 0))
    return InvalidDataError(
        "artifact architecture header (hidden_dim/use_mia/use_lwp) does not "
        "match this model's config");
  std::vector<Variable> params = Parameters();
  return artifact.ApplyTo(params);
}

Result<PoshgnnConfig> PoshgnnConfigFromArtifact(
    const ModelArtifact& artifact) {
  if (artifact.kind != "POSHGNN")
    return InvalidDataError("artifact kind '" + artifact.kind +
                            "' is not POSHGNN");
  for (const char* required : {"hidden_dim", "use_mia", "use_lwp"}) {
    if (artifact.Field(required).empty())
      return InvalidDataError(std::string("POSHGNN artifact is missing the "
                                          "architecture field '") +
                              required + "'");
  }
  PoshgnnConfig config;
  config.hidden_dim = artifact.FieldInt("hidden_dim", config.hidden_dim);
  if (config.hidden_dim <= 0)
    return InvalidDataError("POSHGNN artifact: hidden_dim must be positive");
  config.use_mia = artifact.FieldInt("use_mia", 1) != 0;
  config.use_lwp = artifact.FieldInt("use_lwp", 1) != 0;
  config.beta = artifact.FieldDouble("beta", config.beta);
  config.alpha = artifact.FieldDouble("alpha", config.alpha);
  config.threshold = artifact.FieldDouble("threshold", config.threshold);
  config.max_recommendations =
      artifact.FieldInt("max_recommendations", config.max_recommendations);
  config.seed = static_cast<uint64_t>(
      artifact.FieldInt("init_seed", static_cast<int>(config.seed)));
  return config;
}

FrozenPoshgnn::FrozenPoshgnn(const Poshgnn& source)
    : name_(source.name() + " (frozen)") {
  // One-time weight conversion: the engine narrows every parameter to
  // contiguous row-major f32 and pre-folds the LWP session-start
  // structure (docs/inference.md).
  const PoshgnnConfig& config = source.config();
  infer::EngineConfig engine_config;
  engine_config.hidden_dim = config.hidden_dim;
  engine_config.beta = config.beta;
  engine_config.threshold = config.threshold;
  engine_config.max_recommendations = config.max_recommendations;
  engine_config.use_mia = config.use_mia;
  engine_config.use_lwp = config.use_lwp;
  std::vector<Matrix> values;
  for (const Variable& parameter : source.Parameters())
    values.push_back(parameter.value());
  engine_ = std::make_unique<infer::PoshgnnInferEngine>(engine_config, values);
}

FrozenPoshgnn::~FrozenPoshgnn() = default;

Result<std::unique_ptr<FrozenPoshgnn>> FrozenPoshgnn::FromArtifact(
    const ModelArtifact& artifact) {
  Result<PoshgnnConfig> config = PoshgnnConfigFromArtifact(artifact);
  if (!config.ok()) return config.status();
  Poshgnn model(config.value());
  AFTER_RETURN_IF_ERROR(model.LoadArtifact(artifact));
  return std::make_unique<FrozenPoshgnn>(model);
}

Result<std::unique_ptr<FrozenPoshgnn>> FrozenPoshgnn::FromArtifactFile(
    const std::string& path) {
  Result<ModelArtifact> artifact = ModelArtifact::Load(path);
  if (!artifact.ok()) return artifact.status();
  return FromArtifact(artifact.value());
}

std::string FrozenPoshgnn::name() const { return name_; }

void FrozenPoshgnn::BeginSession(int num_users, int target) {
  (void)num_users;
  (void)target;  // Stateless: every step is a session-start step.
}

std::vector<bool> FrozenPoshgnn::Recommend(const StepContext& context) {
  return engine_->Recommend(context);
}

void Poshgnn::Train(const Dataset& dataset, const TrainOptions& options) {
  Rng rng(options.seed);
  const int n = dataset.num_users();
  last_train_status_ = OkStatus();
  train_steps_skipped_ = 0;
  train_rollbacks_ = 0;
  if (dataset.sessions.empty() || n <= 0) {
    last_train_status_ =
        InvalidDataError("Poshgnn::Train: dataset has no sessions or users");
    std::fprintf(stderr, "[%s] %s\n", name().c_str(),
                 last_train_status_.ToString().c_str());
    return;
  }

  std::vector<int> train_sessions = options.train_sessions;
  if (train_sessions.empty()) {
    const int limit = std::max(1, static_cast<int>(dataset.sessions.size()) - 1);
    for (int s = 0; s < limit; ++s) train_sessions.push_back(s);
  }

  Adam::Options adam_options;
  adam_options.learning_rate = options.learning_rate;
  Adam optimizer(Parameters(), adam_options);
  TrainingGuard guard(options.robustness, &optimizer);

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    double epoch_loss = 0.0;
    int rollouts = 0;
    const std::vector<int> targets = rng.SampleWithoutReplacement(
        n, std::min(n, options.targets_per_epoch));
    for (int session_index : train_sessions) {
      if (session_index < 0 ||
          session_index >= static_cast<int>(dataset.sessions.size()))
        continue;
      const XrWorld& world = dataset.sessions[session_index];
      if (world.num_steps() <= 0) continue;
      for (int target : targets) {
        mia_.Reset();
        Variable r_prev = Variable::Constant(Matrix(n, 1));
        Variable h_prev = Variable::Constant(Matrix(n, config_.hidden_dim));
        Variable total_loss;
        ForEachSessionStep(
            dataset, session_index, target, config_.beta,
            [&](const StepContext& context) {
              const MiaOutput mia = Aggregate(context);
              const StepResult step = StepOnTape(mia, r_prev, h_prev);
              Variable loss = PoshgnnStepLoss(
                  step.recommendation, r_prev,
                  Variable::Constant(mia.p_hat),
                  Variable::Constant(mia.s_hat),
                  Variable::Constant(mia.adjacency), config_.alpha,
                  config_.beta);
              total_loss = total_loss.defined() ? total_loss + loss : loss;
              r_prev = step.recommendation;
              h_prev = step.hidden;
            });
        // Every step of the rollout may have been skipped as poisoned.
        if (!total_loss.defined()) continue;
        total_loss =
            (1.0 / static_cast<double>(world.num_steps())) * total_loss;
        optimizer.ZeroGrad();
        total_loss.Backward();
        const TrainingGuard::Outcome outcome =
            guard.GuardedStep(total_loss.value().At(0, 0));
        if (outcome == TrainingGuard::Outcome::kFailed) {
          last_train_status_ = guard.status();
          train_steps_skipped_ = guard.steps_skipped();
          train_rollbacks_ = guard.rollbacks();
          std::fprintf(stderr, "[%s] training halted: %s\n", name().c_str(),
                       last_train_status_.ToString().c_str());
          return;
        }
        if (outcome == TrainingGuard::Outcome::kStepped) {
          epoch_loss += total_loss.value().At(0, 0);
          ++rollouts;
        }
      }
    }
    last_training_loss_ = epoch_loss / std::max(1, rollouts);
    if (options.verbose) {
      std::printf("[%s] epoch %d/%d loss %.4f\n", name().c_str(), epoch + 1,
                  options.epochs, last_training_loss_);
    }
  }
  train_steps_skipped_ = guard.steps_skipped();
  train_rollbacks_ = guard.rollbacks();
}

}  // namespace after
