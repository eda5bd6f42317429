#include "infer/kernels.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "infer/arena.h"
#include "infer/dispatch.h"
#include "infer/tensor.h"
#include "tensor/matrix.h"

namespace after {
namespace infer {
namespace {

TEST(TensorF32Test, FromMatrixNarrowsAndAligns) {
  Rng rng(11);
  const Matrix source = Matrix::Randn(5, 7, 1.0, rng);
  const TensorF32 tensor = TensorF32::FromMatrix(source);
  ASSERT_EQ(tensor.rows(), 5);
  ASSERT_EQ(tensor.cols(), 7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(tensor.data()) %
                kTensorAlignment,
            0u);
  for (int r = 0; r < 5; ++r)
    for (int c = 0; c < 7; ++c)
      EXPECT_EQ(tensor.At(r, c), static_cast<float>(source.At(r, c)));
}

TEST(TensorF32Test, SliceRowsCopiesTheRequestedBlock) {
  Rng rng(12);
  const TensorF32 full = TensorF32::FromMatrix(Matrix::Randn(6, 3, 1.0, rng));
  const TensorF32 slice = full.SliceRows(2, 3);
  ASSERT_EQ(slice.rows(), 3);
  ASSERT_EQ(slice.cols(), 3);
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c)
      EXPECT_EQ(slice.At(r, c), full.At(2 + r, c));
}

TEST(ArenaTest, SteadyStateReusesOneBlockWithoutGrowing) {
  Arena arena;
  // Warm-up forward: forces overflow chaining from an empty arena.
  for (int i = 0; i < 4; ++i) arena.Allocate(1000);
  EXPECT_GE(arena.block_count(), 1u);
  arena.Reset();
  // After the warm-up Reset the footprint is coalesced into one block.
  EXPECT_EQ(arena.block_count(), 1u);
  const std::size_t warm_capacity = arena.capacity();
  EXPECT_GE(warm_capacity, arena.peak());

  // Steady state: identical forwards never allocate or chain again.
  for (int step = 0; step < 10; ++step) {
    for (int i = 0; i < 4; ++i) arena.Allocate(1000);
    arena.Reset();
    EXPECT_EQ(arena.block_count(), 1u);
    EXPECT_EQ(arena.capacity(), warm_capacity);
  }
}

TEST(ArenaTest, AllocationsAreZeroedAlignedAndStableAcrossOverflow) {
  Arena arena(64);
  float* first = arena.Allocate(64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first) % kTensorAlignment, 0u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(first[i], 0.0f);
    first[i] = 7.0f;
  }
  // Overflow mid-"forward": the chained block must not move live data.
  float* second = arena.Allocate(4096);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(second) % kTensorAlignment, 0u);
  EXPECT_GE(arena.block_count(), 2u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(first[i], 7.0f);

  // A reused block hands out zeroed memory again after Reset.
  arena.Reset();
  float* reused = arena.Allocate(64);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(reused[i], 0.0f);
}

TEST(WorkspacePoolTest, SequentialAcquirePlateausAtOneWorkspace) {
  WorkspacePool pool;
  for (int i = 0; i < 8; ++i) {
    WorkspacePool::Handle handle = pool.Acquire();
    handle->arena.Allocate(256);
  }
  EXPECT_EQ(pool.created(), 1u);
}

TEST(WorkspacePoolTest, ConcurrentHoldersGetDistinctWorkspaces) {
  WorkspacePool pool;
  {
    WorkspacePool::Handle a = pool.Acquire();
    WorkspacePool::Handle b = pool.Acquire();
    EXPECT_NE(a.get(), b.get());
  }
  EXPECT_EQ(pool.created(), 2u);
  // Both returned: further traffic reuses them.
  { WorkspacePool::Handle c = pool.Acquire(); }
  EXPECT_EQ(pool.created(), 2u);
}

TEST(DispatchTest, NamesAndLevelsAreConsistent) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2Fma), "avx2+fma");
  // ActiveSimdLevel never exceeds what the CPU supports.
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(DetectCpuSimdLevel()));
}

/// The AVX2 and scalar tiers must agree on every kernel to float
/// round-off (the only permitted difference is FMA contraction).
/// Skipped (trivially true) on hosts without AVX2, where Avx2Ops()
/// aliases the scalar table.
class TierEquivalence : public ::testing::Test {
 protected:
  static std::vector<float> RandomVec(int count, uint64_t seed) {
    Rng rng(seed);
    std::vector<float> out(count);
    for (float& v : out)
      v = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
    return out;
  }
  static void ExpectAllNear(const std::vector<float>& a,
                            const std::vector<float>& b, float tolerance) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_NEAR(a[i], b[i], tolerance) << "index " << i;
  }
};

TEST_F(TierEquivalence, MatMulMatchesScalar) {
  const int n = 13, k = 9, m = 11;  // deliberately not multiples of 8
  const std::vector<float> a = RandomVec(n * k, 1);
  const std::vector<float> b = RandomVec(k * m, 2);
  std::vector<float> scalar_out(n * m), avx2_out(n * m);
  ScalarOps().matmul(n, k, m, a.data(), b.data(), scalar_out.data());
  Avx2Ops().matmul(n, k, m, a.data(), b.data(), avx2_out.data());
  ExpectAllNear(scalar_out, avx2_out, 1e-5f);
}

TEST_F(TierEquivalence, SumRowsMatchesScalar) {
  // 4 and 8 are the engine's widths (features, hidden); 21 = 8 + 8 + 4
  // + 1 reaches every chunk kind of the AVX2 loop, the scalar tail too.
  for (const int cols : {4, 8, 21}) {
    SCOPED_TRACE(cols);
    const int rows = 10;
    const std::vector<float> x = RandomVec(rows * cols, 3);
    for (const std::vector<int>& idx :
         {std::vector<int>{0, 3, 3, 9, 7}, std::vector<int>{}}) {
      // Stale values in dst must not leak into the sum.
      std::vector<float> scalar_out(cols, 7.0f), avx2_out(cols, -7.0f);
      ScalarOps().sum_rows(x.data(), cols, idx.data(),
                           static_cast<int>(idx.size()), scalar_out.data());
      Avx2Ops().sum_rows(x.data(), cols, idx.data(),
                         static_cast<int>(idx.size()), avx2_out.data());
      // Same additions in the same order: bit-identical.
      ExpectAllNear(scalar_out, avx2_out, 0.0f);
      // An isolated node (no neighbors) aggregates to an all-zero row.
      if (idx.empty()) ExpectAllNear(avx2_out, std::vector<float>(cols), 0.0f);
    }
  }
}

TEST_F(TierEquivalence, GcnLayerMatchesScalarForEveryActivation) {
  const int n = 7, in = 9, out = 12;
  const std::vector<float> x = RandomVec(n * in, 4);
  const std::vector<float> ax = RandomVec(n * in, 5);
  const std::vector<float> w_self = RandomVec(in * out, 6);
  const std::vector<float> w_neigh = RandomVec(in * out, 7);
  const std::vector<float> bias = RandomVec(out, 8);
  const std::vector<float> deg = RandomVec(n, 9);
  const std::vector<float> deg_row = RandomVec(out, 10);
  for (Act act : {Act::kNone, Act::kRelu, Act::kSigmoid}) {
    std::vector<float> scalar_out(n * out), avx2_out(n * out);
    ScalarOps().gcn_layer(n, in, out, x.data(), ax.data(), w_self.data(),
                          w_neigh.data(), bias.data(), deg.data(),
                          deg_row.data(), act, scalar_out.data());
    Avx2Ops().gcn_layer(n, in, out, x.data(), ax.data(), w_self.data(),
                        w_neigh.data(), bias.data(), deg.data(),
                        deg_row.data(), act, avx2_out.data());
    ExpectAllNear(scalar_out, avx2_out, 1e-5f);
  }
}

TEST(KernelsTest, GcnLayerScalarMatchesNaiveReference) {
  Rng rng(77);
  const int n = 5, in = 6, out = 9;
  const Matrix x = Matrix::Randn(n, in, 1.0, rng);
  const Matrix ax = Matrix::Randn(n, in, 1.0, rng);
  const Matrix w_self = Matrix::Randn(in, out, 1.0, rng);
  const Matrix w_neigh = Matrix::Randn(in, out, 1.0, rng);
  const Matrix bias = Matrix::Randn(1, out, 1.0, rng);

  const TensorF32 xf = TensorF32::FromMatrix(x);
  const TensorF32 axf = TensorF32::FromMatrix(ax);
  const TensorF32 wsf = TensorF32::FromMatrix(w_self);
  const TensorF32 wnf = TensorF32::FromMatrix(w_neigh);
  const TensorF32 bf = TensorF32::FromMatrix(bias);
  std::vector<float> y(n * out);
  ScalarOps().gcn_layer(n, in, out, xf.data(), axf.data(), wsf.data(),
                        wnf.data(), bf.data(), nullptr, nullptr, Act::kRelu,
                        y.data());

  Matrix want = x.MatMul(w_self) + ax.MatMul(w_neigh);
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < out; ++c) {
      const double z = want.At(r, c) + bias.At(0, c);
      const double relu = z > 0.0 ? z : 0.0;
      EXPECT_NEAR(y[static_cast<std::size_t>(r) * out + c], relu, 1e-4)
          << r << "," << c;
    }
}

}  // namespace
}  // namespace infer
}  // namespace after
