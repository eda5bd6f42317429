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

AFTER_AVX2 void GcnLayerAvx2(int n, int in, int out, const float* x,
                             const float* ax, const float* w_self,
                             const float* w_neigh, const float* bias,
                             const float* deg, const float* deg_row, Act act,
                             float* y) {
  for (int i = 0; i < n; ++i) {
    float* row = y + static_cast<std::size_t>(i) * out;
    std::memcpy(row, bias, static_cast<std::size_t>(out) * sizeof(float));
    const float* xi = x + static_cast<std::size_t>(i) * in;
    for (int k = 0; k < in; ++k)
      AxpyRowAvx2(xi[k], w_self + static_cast<std::size_t>(k) * out, out, row);
    const float* axi = ax + static_cast<std::size_t>(i) * in;
    for (int k = 0; k < in; ++k)
      AxpyRowAvx2(axi[k], w_neigh + static_cast<std::size_t>(k) * out, out,
                  row);
    if (deg != nullptr && deg_row != nullptr)
      AxpyRowAvx2(deg[i], deg_row, out, row);
    ApplyActRowAvx2(act, out, row);
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
