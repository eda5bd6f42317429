// Micro-benchmarks (google-benchmark) for the kernels behind the paper's
// "Running Time" rows: dense matmul, occlusion-graph conversion, MWIS
// heuristics, MIA aggregation and a full POSHGNN inference step. These
// explain where the ~5-8 ms per-step budget of Tables II-IV goes.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/poshgnn.h"
#include "data/dataset.h"
#include "graph/mwis.h"
#include "graph/occlusion_converter.h"
#include "infer/dispatch.h"
#include "infer/kernels.h"
#include "infer/tensor.h"
#include "tensor/matrix.h"

namespace after {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::Randn(n, n, 1.0, rng);
  const Matrix b = Matrix::Randn(n, 8, 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMul(b));
  }
}
BENCHMARK(BM_MatMul)->Arg(50)->Arg(200)->Arg(500);

/// f32 counterpart of BM_MatMul on the inference kernels (same n x n by
/// n x 8 shape) — the f64-vs-f32 raw-kernel speedup the inference
/// engine banks on. Labeled with the SIMD tier that actually ran.
void BM_MatMulF32(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const infer::TensorF32 a =
      infer::TensorF32::FromMatrix(Matrix::Randn(n, n, 1.0, rng));
  const infer::TensorF32 b =
      infer::TensorF32::FromMatrix(Matrix::Randn(n, 8, 1.0, rng));
  infer::TensorF32 c(n, 8);
  const infer::KernelOps& ops = infer::OpsFor(infer::ActiveSimdLevel());
  for (auto _ : state) {
    ops.matmul(n, n, 8, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(infer::SimdLevelName(infer::ActiveSimdLevel()));
}
BENCHMARK(BM_MatMulF32)->Arg(50)->Arg(200)->Arg(500);

/// n users spread over a 10 m room, the mega-room frame.
std::vector<Vec2> RoomFrame(int n) {
  Rng rng(2);
  std::vector<Vec2> positions;
  for (int i = 0; i < n; ++i)
    positions.emplace_back(rng.Uniform(0, 10), rng.Uniform(0, 10));
  return positions;
}

void BM_OcclusionGraphBuild(benchmark::State& state) {
  const std::vector<Vec2> positions =
      RoomFrame(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildOcclusionGraph(positions, 0, 0.25));
  }
}
BENCHMARK(BM_OcclusionGraphBuild)->Arg(50)->Arg(200)->Arg(512);

/// The input of one per-tick delta carry (UpdateOcclusionGraph): target
/// 0's graph in the 512-user frame of BM_OcclusionGraphBuild/512, and its
/// arcs after `num_moved` agents each took one step of up to `max_step`
/// metres in a random direction.
struct CarryInput {
  std::shared_ptr<const OcclusionGraph> previous;
  std::vector<ViewArc> arcs;
  std::vector<int> moved;
  std::vector<bool> is_moved;
};

CarryInput MakeCarryInput(int num_moved, double max_step) {
  constexpr int kUsers = 512;
  CarryInput in;
  std::vector<Vec2> positions = RoomFrame(kUsers);
  in.arcs = ComputeViewArcs(positions, 0, 0.25);
  in.previous = std::make_shared<const OcclusionGraph>(
      BuildOcclusionGraphFromArcs(in.arcs));
  in.is_moved.assign(kUsers, false);
  Rng rng(8);
  while (static_cast<int>(in.moved.size()) < num_moved) {
    const int m = 1 + rng.UniformInt(kUsers - 1);
    if (in.is_moved[m]) continue;
    in.is_moved[m] = true;
    in.moved.push_back(m);
    const double heading = rng.Uniform(-M_PI, M_PI);
    positions[m] += Vec2(std::cos(heading), std::sin(heading)) *
                    (max_step * rng.Uniform());
  }
  std::sort(in.moved.begin(), in.moved.end());
  UpdateViewArcs(positions, 0, 0.25, in.moved, &in.arcs);
  return in;
}

/// One carry after M agents each took one walking step: up to 0.6 m (a
/// live room's 1.2 m/s over its 0.5 s simulator step), which changes
/// rows, so the carry writes a new graph. mega-room moves ~26 agents a
/// tick while its walkers still walk and 1-6 once they deadlock. The
/// bench-regression lane (scripts/check.sh) gates the ratio of
/// BM_OcclusionGraphBuild/512 to the M = 1 carry (docs/ticking.md).
void BM_OcclusionCarry(benchmark::State& state) {
  const CarryInput in =
      MakeCarryInput(static_cast<int>(state.range(0)), /*max_step=*/0.6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        UpdateOcclusionGraph(in.previous, in.arcs, in.moved, in.is_moved));
  }
}
BENCHMARK(BM_OcclusionCarry)->Arg(1)->Arg(26)->Arg(128);

/// One carry after one agent moved at most 1.3 um, the deadlocked
/// mega-room step: no row changes, so the carry shares the previous
/// graph. The bench-regression lane gates the ratio of
/// BM_OcclusionGraphBuild/512 to it.
void BM_OcclusionCarryUnchanged(benchmark::State& state) {
  const CarryInput in = MakeCarryInput(1, /*max_step=*/1.3e-6);
  if (*UpdateOcclusionGraph(in.previous, in.arcs, in.moved, in.is_moved) !=
      *in.previous) {
    state.SkipWithError("the step changed a row");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        UpdateOcclusionGraph(in.previous, in.arcs, in.moved, in.is_moved));
  }
}
BENCHMARK(BM_OcclusionCarryUnchanged);

void BM_GreedyMwis(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  std::vector<Vec2> positions;
  for (int i = 0; i < n; ++i)
    positions.emplace_back(rng.Uniform(0, 10), rng.Uniform(0, 10));
  const OcclusionGraph graph = BuildOcclusionGraph(positions, 0, 0.25);
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng.Uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyMwis(graph, weights));
  }
}
BENCHMARK(BM_GreedyMwis)->Arg(50)->Arg(200);

void BM_LocalSearchMwis(benchmark::State& state) {
  const int n = 200;
  const int iterations = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<Vec2> positions;
  for (int i = 0; i < n; ++i)
    positions.emplace_back(rng.Uniform(0, 10), rng.Uniform(0, 10));
  const OcclusionGraph graph = BuildOcclusionGraph(positions, 0, 0.25);
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng.Uniform();
  Rng search_rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LocalSearchMwis(graph, weights, iterations, search_rng));
  }
}
BENCHMARK(BM_LocalSearchMwis)->Arg(100)->Arg(1000)->Arg(10000);

/// Users a served mega-room request keeps as candidates: the server's
/// recency prune blocklists everyone else (serve/room.h).
constexpr int kPrunedCandidates = 32;

/// Shared fixture state for POSHGNN inference benchmarks: an untrained
/// model and the step context of target 0 at t = 0. `candidates` > 0
/// adds a blocklist keeping that many users, the mega-room request
/// shape.
struct PoshgnnBench {
  Dataset dataset;
  Poshgnn model;
  OcclusionGraph occlusion;
  std::vector<bool> blocklist;
  StepContext context;

  explicit PoshgnnBench(int n, int candidates = 0)
      : dataset([n] {
          DatasetConfig config;
          config.num_users = n;
          config.num_steps = 5;
          config.num_sessions = 1;
          config.seed = 6;
          return GenerateTimikLike(config);
        }()),
        model(PoshgnnConfig()),
        occlusion(BuildOcclusionGraph(dataset.sessions[0].PositionsAt(0), 0,
                                      dataset.sessions[0].body_radius())),
        blocklist(n, true) {
    const XrWorld& world = dataset.sessions[0];
    context.target = 0;
    context.positions = &world.PositionsAt(0);
    context.occlusion = &occlusion;
    context.interfaces = &world.interfaces();
    context.preference = &dataset.preference;
    context.social_presence = &dataset.social_presence;
    context.body_radius = world.body_radius();
    if (candidates > 0) {
      for (int i = 0; i < candidates; ++i)
        blocklist[1 + i * ((n - 1) / candidates)] = false;
      context.blocklist = &blocklist;
    }
  }
  // `context` points into this object.
  PoshgnnBench(const PoshgnnBench&) = delete;
  PoshgnnBench& operator=(const PoshgnnBench&) = delete;
};

void BM_PoshgnnInferenceStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  PoshgnnBench bench(n);
  bench.model.BeginSession(n, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench.model.Recommend(bench.context));
  }
}
BENCHMARK(BM_PoshgnnInferenceStep)->Arg(30)->Arg(200)->Arg(500);

// The gated pair: the served step and its f64 reference on the same
// inputs, which select the same users. The bench-regression lane
// (scripts/check.sh) fails when the reference/served time ratio of the
// pruned N = 500 pair falls below its floor (docs/inference.md).

/// The served step: FrozenPoshgnn on the fused f32 engine.
void FrozenStepBench(benchmark::State& state, int candidates) {
  const PoshgnnBench bench(static_cast<int>(state.range(0)), candidates);
  FrozenPoshgnn frozen(bench.model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(frozen.Recommend(bench.context));
  }
  state.SetLabel(infer::SimdLevelName(infer::ActiveSimdLevel()));
}

/// The f64 reference of a session-start step: the const forward
/// AggregateFresh + StepOnTape at zero recurrent state.
void ReferenceStepBench(benchmark::State& state, int candidates) {
  const int n = static_cast<int>(state.range(0));
  const PoshgnnBench bench(n, candidates);
  const Variable zero_r = Variable::Constant(Matrix(n, 1));
  const Variable zero_h =
      Variable::Constant(Matrix(n, bench.model.config().hidden_dim));
  for (auto _ : state) {
    const MiaOutput mia = bench.model.AggregateFresh(bench.context);
    benchmark::DoNotOptimize(
        bench.model.StepOnTape(mia, zero_r, zero_h).recommendation.value());
  }
}

void BM_PoshgnnReferenceStep(benchmark::State& state) {
  ReferenceStepBench(state, 0);
}
BENCHMARK(BM_PoshgnnReferenceStep)->Arg(30)->Arg(200)->Arg(500);

void BM_FrozenPoshgnnStep(benchmark::State& state) {
  FrozenStepBench(state, 0);
}
BENCHMARK(BM_FrozenPoshgnnStep)->Arg(30)->Arg(200)->Arg(500);

void BM_PoshgnnReferenceStepPruned(benchmark::State& state) {
  ReferenceStepBench(state, kPrunedCandidates);
}
BENCHMARK(BM_PoshgnnReferenceStepPruned)->Arg(500);

void BM_FrozenPoshgnnStepPruned(benchmark::State& state) {
  FrozenStepBench(state, kPrunedCandidates);
}
BENCHMARK(BM_FrozenPoshgnnStepPruned)->Arg(500);

void BM_MiaAggregation(benchmark::State& state) {
  const PoshgnnBench bench(static_cast<int>(state.range(0)));
  Mia mia;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mia.Process(bench.context));
  }
}
BENCHMARK(BM_MiaAggregation)->Arg(200)->Arg(500);

}  // namespace
}  // namespace after

BENCHMARK_MAIN();
