// AVX2/FMA kernel tier. This translation unit is compiled WITHOUT
// -mavx2: every vector function carries a per-function
// target("avx2,fma") attribute, so the surrounding binary stays
// baseline-x86-64 and the YMM instructions are only reachable behind
// the CPUID probe in infer/dispatch.cc.

#include "infer/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstring>

namespace after {
namespace infer {
namespace {

#define AFTER_AVX2 __attribute__((target("avx2,fma")))

AFTER_AVX2 void ApplyActRowAvx2(Act act, int out, float* row) {
  switch (act) {
    case Act::kNone:
      break;
    case Act::kRelu: {
      const __m256 zero = _mm256_setzero_ps();
      int j = 0;
      for (; j + 8 <= out; j += 8)
        _mm256_storeu_ps(row + j,
                         _mm256_max_ps(_mm256_loadu_ps(row + j), zero));
      for (; j < out; ++j)
        if (row[j] < 0.0f) row[j] = 0.0f;
      break;
    }
    case Act::kSigmoid:
      // Scalar on purpose: SigmoidF32 is the single shared definition
      // across tiers (see kernels.h).
      for (int j = 0; j < out; ++j) row[j] = SigmoidF32(row[j]);
      break;
  }
}

AFTER_AVX2 inline void AxpyRowAvx2(float v, const float* w, int out,
                                   float* row) {
  if (v == 0.0f) return;
  const __m256 vv = _mm256_set1_ps(v);
  int j = 0;
  for (; j + 8 <= out; j += 8) {
    const __m256 acc = _mm256_fmadd_ps(vv, _mm256_loadu_ps(w + j),
                                       _mm256_loadu_ps(row + j));
    _mm256_storeu_ps(row + j, acc);
  }
  for (; j < out; ++j) row[j] += v * w[j];
}

/// acc + v * w, or acc itself when v is zero: the scalar tier's skip,
/// as a blend rather than a branch, so a -0.0 bias keeps its sign.
AFTER_AVX2 inline __m256 FmaUnlessZero(float v, __m256 w, __m256 acc) {
  const __m256 vv = _mm256_set1_ps(v);
  const __m256 zero = _mm256_cmp_ps(vv, _mm256_setzero_ps(), _CMP_EQ_OQ);
  return _mm256_blendv_ps(_mm256_fmadd_ps(vv, w, acc), acc, zero);
}

/// kRows consecutive rows of the GCN layer. Each row has its own
/// accumulator per 8-column chunk and adds its terms in the one-row
/// order (bias, x by k, ax by k, the degree term), so its bits do not
/// depend on the rows beside it: the rows only keep kRows independent
/// FMA chains in flight. Columns past the last chunk run per row in
/// scalar, as the axpy tail does.
template <int kRows>
AFTER_AVX2 void GcnRowsAvx2(int in, int out, const float* x, const float* ax,
                            const float* w_self, const float* w_neigh,
                            const float* bias, const float* deg,
                            const float* deg_row, Act act, float* y) {
  int j = 0;
  for (; j + 8 <= out; j += 8) {
    __m256 acc[kRows];
    for (int r = 0; r < kRows; ++r) acc[r] = _mm256_loadu_ps(bias + j);
    for (int k = 0; k < in; ++k) {
      const __m256 w =
          _mm256_loadu_ps(w_self + static_cast<std::size_t>(k) * out + j);
      for (int r = 0; r < kRows; ++r)
        acc[r] = FmaUnlessZero(x[r * in + k], w, acc[r]);
    }
    for (int k = 0; k < in; ++k) {
      const __m256 w =
          _mm256_loadu_ps(w_neigh + static_cast<std::size_t>(k) * out + j);
      for (int r = 0; r < kRows; ++r)
        acc[r] = FmaUnlessZero(ax[r * in + k], w, acc[r]);
    }
    if (deg != nullptr && deg_row != nullptr) {
      const __m256 w = _mm256_loadu_ps(deg_row + j);
      for (int r = 0; r < kRows; ++r) acc[r] = FmaUnlessZero(deg[r], w, acc[r]);
    }
    for (int r = 0; r < kRows; ++r)
      _mm256_storeu_ps(y + static_cast<std::size_t>(r) * out + j, acc[r]);
  }
  for (; j < out; ++j) {
    for (int r = 0; r < kRows; ++r) {
      float acc = bias[j];
      for (int k = 0; k < in; ++k) {
        const float v = x[r * in + k];
        if (v != 0.0f) acc += v * w_self[static_cast<std::size_t>(k) * out + j];
      }
      for (int k = 0; k < in; ++k) {
        const float v = ax[r * in + k];
        if (v != 0.0f)
          acc += v * w_neigh[static_cast<std::size_t>(k) * out + j];
      }
      if (deg != nullptr && deg_row != nullptr && deg[r] != 0.0f)
        acc += deg[r] * deg_row[j];
      y[static_cast<std::size_t>(r) * out + j] = acc;
    }
  }
  for (int r = 0; r < kRows; ++r)
    ApplyActRowAvx2(act, out, y + static_cast<std::size_t>(r) * out);
}

/// Rows four at a time, then a 1-3 row tail through the same body.
AFTER_AVX2 void GcnLayerAvx2(int n, int in, int out, const float* x,
                             const float* ax, const float* w_self,
                             const float* w_neigh, const float* bias,
                             const float* deg, const float* deg_row, Act act,
                             float* y) {
  static constexpr decltype(&GcnRowsAvx2<4>) kBlock[] = {
      nullptr, GcnRowsAvx2<1>, GcnRowsAvx2<2>, GcnRowsAvx2<3>,
      GcnRowsAvx2<4>};
  for (int i = 0; i < n; i += 4) {
    kBlock[n - i < 4 ? n - i : 4](
        in, out, x + static_cast<std::size_t>(i) * in,
        ax + static_cast<std::size_t>(i) * in, w_self, w_neigh, bias,
        deg != nullptr ? deg + i : nullptr, deg_row, act,
        y + static_cast<std::size_t>(i) * out);
  }
}

AFTER_AVX2 void SumRowsAvx2(const float* x, int cols, const int* idx,
                            int count, float* dst) {
  // Column chunks outermost: each chunk (8 wide, then 4, then single
  // columns) keeps its running sum in a register, so no row waits for
  // the previous row's store to reach its load. Every column still adds
  // the rows in index order from +0, so each sum is bit-identical to
  // the scalar tier's.
  int j = 0;
  for (; j + 8 <= cols; j += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (int r = 0; r < count; ++r)
      acc = _mm256_add_ps(
          acc,
          _mm256_loadu_ps(x + static_cast<std::size_t>(idx[r]) * cols + j));
    _mm256_storeu_ps(dst + j, acc);
  }
  if (j + 4 <= cols) {
    __m128 acc = _mm_setzero_ps();
    for (int r = 0; r < count; ++r)
      acc = _mm_add_ps(
          acc, _mm_loadu_ps(x + static_cast<std::size_t>(idx[r]) * cols + j));
    _mm_storeu_ps(dst + j, acc);
    j += 4;
  }
  for (; j < cols; ++j) {
    float acc = 0.0f;
    for (int r = 0; r < count; ++r)
      acc += x[static_cast<std::size_t>(idx[r]) * cols + j];
    dst[j] = acc;
  }
}

AFTER_AVX2 void MatMulAvx2(int n, int k, int m, const float* a, const float* b,
                           float* c) {
  for (int i = 0; i < n; ++i) {
    float* row = c + static_cast<std::size_t>(i) * m;
    std::memset(row, 0, static_cast<std::size_t>(m) * sizeof(float));
    const float* ai = a + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p)
      AxpyRowAvx2(ai[p], b + static_cast<std::size_t>(p) * m, m, row);
  }
}

#undef AFTER_AVX2

}  // namespace

const KernelOps& Avx2Ops() {
  static const KernelOps ops = {GcnLayerAvx2, SumRowsAvx2, MatMulAvx2};
  return ops;
}

}  // namespace infer
}  // namespace after

#else  // non-x86: the AVX2 tier is unreachable; alias the scalar table.

namespace after {
namespace infer {

const KernelOps& Avx2Ops() { return ScalarOps(); }

}  // namespace infer
}  // namespace after

#endif
