#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#include "obs/log.h"

// The one translation unit allowed to include raw intrinsic headers
// (cgnp-no-raw-intrinsics; docs/STATIC_ANALYSIS.md). AVX2 kernels carry
// per-function target attributes instead of a global -mavx2, so this file
// builds with the portable toolchain flags and the binary stays runnable
// on pre-AVX2 hosts -- the unsupported kernels are simply never dispatched.
#if defined(__x86_64__) || defined(__i386__)
#define CGNP_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define CGNP_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace cgnp {
namespace simd {

namespace {

// --- Scalar reference kernels ----------------------------------------------
// The fallback every other level is tested against. Accumulation order is
// the plain left-to-right loop; these are the semantics the pre-SIMD
// library shipped with.

void AxpyScalar(int64_t n, float a, const float* x, float* y) {
  for (int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

float DotScalar(int64_t n, const float* x, const float* y) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void AddScalarK(int64_t n, const float* a, const float* b, float* o) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}

void SubScalarK(int64_t n, const float* a, const float* b, float* o) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}

void MulScalarK(int64_t n, const float* a, const float* b, float* o) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}

void DivScalarK(int64_t n, const float* a, const float* b, float* o) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] / b[i];
}

void ScaleScalar(int64_t n, const float* a, float s, float* o) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * s;
}

void ReluScalar(int64_t n, const float* a, float* o) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

void LeakyReluScalar(int64_t n, float slope, const float* a, float* o) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : slope * a[i];
}

float MaxScalar(int64_t n, const float* a) {
  float mx = a[0];
  for (int64_t i = 1; i < n; ++i) mx = std::max(mx, a[i]);
  return mx;
}

float ExpSumScalar(int64_t n, float bias, const float* a, float* o) {
  float z = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    o[i] = std::exp(a[i] - bias);
    z += o[i];
  }
  return z;
}

void GemmRowScalar(int64_t n, int64_t k, const float* a_row, const float* b,
                   float* c) {
  // The pre-SIMD library's inner loop verbatim, zero-skip included (cheap
  // sparsity win on masked matrices, and it keeps the scalar level bitwise
  // identical to what earlier releases computed).
  for (int64_t p = 0; p < k; ++p) {
    const float av = a_row[p];
    if (av == 0.0f) continue;
    const float* brow = b + p * n;
    for (int64_t j = 0; j < n; ++j) c[j] += av * brow[j];
  }
}

// gather_scale_add promises a rounded product before every add. GCC
// contracts a multiply and an add into an FMA by default wherever the
// target has one (AArch64, or x86 with an fma target), so the kernels
// that make that promise turn contraction off.
#if defined(__clang__)
#define CGNP_NO_FP_CONTRACT
#define CGNP_NO_FP_CONTRACT_BODY _Pragma("clang fp contract(off)")
#elif defined(__GNUC__)
#define CGNP_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#define CGNP_NO_FP_CONTRACT_BODY
#else
#define CGNP_NO_FP_CONTRACT
#define CGNP_NO_FP_CONTRACT_BODY
#endif

CGNP_NO_FP_CONTRACT void GatherScaleAddScalar(int64_t n, int64_t count,
                                              const int64_t* idx,
                                              const float* w, const float* x,
                                              float* o) {
  CGNP_NO_FP_CONTRACT_BODY
  for (int64_t e = 0; e < count; ++e) {
    const float* xr = x + idx[e] * n;
    const float we = w[e];
    for (int64_t j = 0; j < n; ++j) o[j] += we * xr[j];
  }
}

constexpr SimdKernels kScalarKernels = {
    AxpyScalar, DotScalar,   AddScalarK,      SubScalarK, MulScalarK,
    DivScalarK, ScaleScalar, ReluScalar,      LeakyReluScalar,
    MaxScalar,  ExpSumScalar, GemmRowScalar,  GatherScaleAddScalar,
};

// --- AVX2 + FMA kernels -----------------------------------------------------
#if CGNP_SIMD_X86

#define CGNP_AVX2 __attribute__((target("avx2,fma")))

CGNP_AVX2 void AxpyAvx2(int64_t n, float a, const float* x, float* y) {
  const __m256 va = _mm256_set1_ps(a);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                                      _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(y + i, vy);
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

CGNP_AVX2 float DotAvx2(int64_t n, const float* x, const float* y) {
  __m256 acc = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i),
                          acc);
  }
  // Fixed-order lane reduction: part of the level's deterministic contract.
  float lanes[8];
  _mm256_storeu_ps(lanes, acc);
  float s = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
            ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

CGNP_AVX2 void AddAvx2(int64_t n, const float* a, const float* b, float* o) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

CGNP_AVX2 void SubAvx2(int64_t n, const float* a, const float* b, float* o) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

CGNP_AVX2 void MulAvx2(int64_t n, const float* a, const float* b, float* o) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] * b[i];
}

CGNP_AVX2 void DivAvx2(int64_t n, const float* a, const float* b, float* o) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_div_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] / b[i];
}

CGNP_AVX2 void ScaleAvx2(int64_t n, const float* a, float s, float* o) {
  const __m256 vs = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) o[i] = a[i] * s;
}

CGNP_AVX2 void ReluAvx2(int64_t n, const float* a, float* o) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_max_ps(_mm256_loadu_ps(a + i), zero));
  }
  for (; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

CGNP_AVX2 void LeakyReluAvx2(int64_t n, float slope, const float* a,
                             float* o) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 vs = _mm256_set1_ps(slope);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 neg = _mm256_mul_ps(va, vs);
    const __m256 mask = _mm256_cmp_ps(va, zero, _CMP_GT_OQ);
    _mm256_storeu_ps(o + i, _mm256_blendv_ps(neg, va, mask));
  }
  for (; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : slope * a[i];
}

CGNP_AVX2 float MaxAvx2(int64_t n, const float* a) {
  if (n < 8) return MaxScalar(n, a);
  __m256 vmx = _mm256_loadu_ps(a);
  int64_t i = 8;
  for (; i + 8 <= n; i += 8) {
    vmx = _mm256_max_ps(vmx, _mm256_loadu_ps(a + i));
  }
  float lanes[8];
  _mm256_storeu_ps(lanes, vmx);
  float mx = lanes[0];
  for (int j = 1; j < 8; ++j) mx = std::max(mx, lanes[j]);
  for (; i < n; ++i) mx = std::max(mx, a[i]);
  return mx;
}

// Vector expf (Cephes polynomial, the avx_mathfun lineage): relative error
// ~1e-7 over the softmax input range (x - rowmax <= 0). This is where the
// AVX2 level deliberately diverges from scalar std::exp -- per-level
// determinism still holds because the polynomial is a fixed function.
CGNP_AVX2 inline __m256 Exp256(__m256 x) {
  const __m256 hi = _mm256_set1_ps(88.3762626647949f);
  const __m256 lo = _mm256_set1_ps(-87.3365478515625f);
  x = _mm256_max_ps(_mm256_min_ps(x, hi), lo);
  __m256 fx = _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f));
  fx = _mm256_round_ps(fx, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  // x -= fx * ln2 in two parts for extra precision.
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  // * 2^fx via exponent-field construction.
  __m256i e = _mm256_cvtps_epi32(fx);
  e = _mm256_add_epi32(e, _mm256_set1_epi32(0x7f));
  e = _mm256_slli_epi32(e, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(e));
}

CGNP_AVX2 float ExpSumAvx2(int64_t n, float bias, const float* a, float* o) {
  const __m256 vb = _mm256_set1_ps(bias);
  __m256 vsum = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e = Exp256(_mm256_sub_ps(_mm256_loadu_ps(a + i), vb));
    _mm256_storeu_ps(o + i, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  float lanes[8];
  _mm256_storeu_ps(lanes, vsum);
  float z = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
            ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
  for (; i < n; ++i) {
    o[i] = std::exp(a[i] - bias);
    z += o[i];
  }
  return z;
}

CGNP_AVX2 void GemmRowAvx2(int64_t n, int64_t k, const float* a_row,
                           const float* b, float* c) {
  // Register-blocked: each 32-column tile of c lives in four ymm
  // accumulators across the whole p loop, so c is loaded and stored once
  // per tile instead of once per p (the axpy formulation's bottleneck).
  // Per element the accumulation order is still ascending p with one fused
  // multiply-add each -- the same order the per-p axpy kernel used.
  int64_t j = 0;
  for (; j + 32 <= n; j += 32) {
    __m256 c0 = _mm256_loadu_ps(c + j);
    __m256 c1 = _mm256_loadu_ps(c + j + 8);
    __m256 c2 = _mm256_loadu_ps(c + j + 16);
    __m256 c3 = _mm256_loadu_ps(c + j + 24);
    const float* bp = b + j;
    for (int64_t p = 0; p < k; ++p, bp += n) {
      const __m256 va = _mm256_set1_ps(a_row[p]);
      c0 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp), c0);
      c1 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 8), c1);
      c2 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 16), c2);
      c3 = _mm256_fmadd_ps(va, _mm256_loadu_ps(bp + 24), c3);
    }
    _mm256_storeu_ps(c + j, c0);
    _mm256_storeu_ps(c + j + 8, c1);
    _mm256_storeu_ps(c + j + 16, c2);
    _mm256_storeu_ps(c + j + 24, c3);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 c0 = _mm256_loadu_ps(c + j);
    const float* bp = b + j;
    for (int64_t p = 0; p < k; ++p, bp += n) {
      c0 = _mm256_fmadd_ps(_mm256_set1_ps(a_row[p]), _mm256_loadu_ps(bp), c0);
    }
    _mm256_storeu_ps(c + j, c0);
  }
  for (; j < n; ++j) {
    float s = c[j];
    for (int64_t p = 0; p < k; ++p) s += a_row[p] * b[p * n + j];
    c[j] = s;
  }
}

// AVX2 without FMA, so no multiply-add can be fused (see the scalar
// kernel). Each 32-column tile of o stays in four ymm accumulators
// across all `count` rows; per element the order is ascending e with one
// rounded multiply and one add each, the scalar kernel's order.
__attribute__((target("avx2"))) CGNP_NO_FP_CONTRACT void GatherScaleAddAvx2(
    int64_t n, int64_t count, const int64_t* idx, const float* w,
    const float* x, float* o) {
  CGNP_NO_FP_CONTRACT_BODY
  int64_t j = 0;
  for (; j + 32 <= n; j += 32) {
    __m256 o0 = _mm256_loadu_ps(o + j);
    __m256 o1 = _mm256_loadu_ps(o + j + 8);
    __m256 o2 = _mm256_loadu_ps(o + j + 16);
    __m256 o3 = _mm256_loadu_ps(o + j + 24);
    for (int64_t e = 0; e < count; ++e) {
      const float* xr = x + idx[e] * n + j;
      const __m256 vw = _mm256_set1_ps(w[e]);
      o0 = _mm256_add_ps(o0, _mm256_mul_ps(vw, _mm256_loadu_ps(xr)));
      o1 = _mm256_add_ps(o1, _mm256_mul_ps(vw, _mm256_loadu_ps(xr + 8)));
      o2 = _mm256_add_ps(o2, _mm256_mul_ps(vw, _mm256_loadu_ps(xr + 16)));
      o3 = _mm256_add_ps(o3, _mm256_mul_ps(vw, _mm256_loadu_ps(xr + 24)));
    }
    _mm256_storeu_ps(o + j, o0);
    _mm256_storeu_ps(o + j + 8, o1);
    _mm256_storeu_ps(o + j + 16, o2);
    _mm256_storeu_ps(o + j + 24, o3);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 o0 = _mm256_loadu_ps(o + j);
    for (int64_t e = 0; e < count; ++e) {
      o0 = _mm256_add_ps(o0, _mm256_mul_ps(_mm256_set1_ps(w[e]),
                                           _mm256_loadu_ps(x + idx[e] * n + j)));
    }
    _mm256_storeu_ps(o + j, o0);
  }
  for (; j < n; ++j) {
    float s = o[j];
    for (int64_t e = 0; e < count; ++e) s += w[e] * x[idx[e] * n + j];
    o[j] = s;
  }
}

constexpr SimdKernels kAvx2Kernels = {
    AxpyAvx2, DotAvx2,   AddAvx2,      SubAvx2, MulAvx2,
    DivAvx2,  ScaleAvx2, ReluAvx2,     LeakyReluAvx2,
    MaxAvx2,  ExpSumAvx2, GemmRowAvx2, GatherScaleAddAvx2,
};

#undef CGNP_AVX2
#endif  // CGNP_SIMD_X86

// --- NEON kernels -----------------------------------------------------------
#if CGNP_SIMD_NEON

void AxpyNeon(int64_t n, float a, const float* x, float* y) {
  const float32x4_t va = vdupq_n_f32(a);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), va, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

float DotNeon(int64_t n, const float* x, const float* y) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = vfmaq_f32(acc, vld1q_f32(x + i), vld1q_f32(y + i));
  }
  float lanes[4];
  vst1q_f32(lanes, acc);
  float s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

void AddNeon(int64_t n, const float* a, const float* b, float* o) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(o + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

void SubNeon(int64_t n, const float* a, const float* b, float* o) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(o + i, vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

void MulNeon(int64_t n, const float* a, const float* b, float* o) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(o + i, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] * b[i];
}

void DivNeon(int64_t n, const float* a, const float* b, float* o) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(o + i, vdivq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] / b[i];
}

void ScaleNeon(int64_t n, const float* a, float s, float* o) {
  const float32x4_t vs = vdupq_n_f32(s);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(o + i, vmulq_f32(vld1q_f32(a + i), vs));
  }
  for (; i < n; ++i) o[i] = a[i] * s;
}

void ReluNeon(int64_t n, const float* a, float* o) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(o + i, vmaxq_f32(vld1q_f32(a + i), zero));
  }
  for (; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

void LeakyReluNeon(int64_t n, float slope, const float* a, float* o) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  const float32x4_t vs = vdupq_n_f32(slope);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t va = vld1q_f32(a + i);
    const uint32x4_t mask = vcgtq_f32(va, zero);
    vst1q_f32(o + i, vbslq_f32(mask, va, vmulq_f32(va, vs)));
  }
  for (; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : slope * a[i];
}

float MaxNeon(int64_t n, const float* a) {
  if (n < 4) return MaxScalar(n, a);
  float32x4_t vmx = vld1q_f32(a);
  int64_t i = 4;
  for (; i + 4 <= n; i += 4) vmx = vmaxq_f32(vmx, vld1q_f32(a + i));
  float mx = vmaxvq_f32(vmx);
  for (; i < n; ++i) mx = std::max(mx, a[i]);
  return mx;
}

void GemmRowNeon(int64_t n, int64_t k, const float* a_row, const float* b,
                 float* c) {
  // Register-blocked 16-column tiles; see GemmRowAvx2 for the rationale.
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    float32x4_t c0 = vld1q_f32(c + j);
    float32x4_t c1 = vld1q_f32(c + j + 4);
    float32x4_t c2 = vld1q_f32(c + j + 8);
    float32x4_t c3 = vld1q_f32(c + j + 12);
    const float* bp = b + j;
    for (int64_t p = 0; p < k; ++p, bp += n) {
      const float32x4_t va = vdupq_n_f32(a_row[p]);
      c0 = vfmaq_f32(c0, va, vld1q_f32(bp));
      c1 = vfmaq_f32(c1, va, vld1q_f32(bp + 4));
      c2 = vfmaq_f32(c2, va, vld1q_f32(bp + 8));
      c3 = vfmaq_f32(c3, va, vld1q_f32(bp + 12));
    }
    vst1q_f32(c + j, c0);
    vst1q_f32(c + j + 4, c1);
    vst1q_f32(c + j + 8, c2);
    vst1q_f32(c + j + 12, c3);
  }
  for (; j + 4 <= n; j += 4) {
    float32x4_t c0 = vld1q_f32(c + j);
    const float* bp = b + j;
    for (int64_t p = 0; p < k; ++p, bp += n) {
      c0 = vfmaq_f32(c0, vdupq_n_f32(a_row[p]), vld1q_f32(bp));
    }
    vst1q_f32(c + j, c0);
  }
  for (; j < n; ++j) {
    float s = c[j];
    for (int64_t p = 0; p < k; ++p) s += a_row[p] * b[p * n + j];
    c[j] = s;
  }
}

constexpr SimdKernels kNeonKernels = {
    AxpyNeon, DotNeon,   AddNeon,      SubNeon, MulNeon,
    DivNeon,  ScaleNeon, ReluNeon,     LeakyReluNeon,
    MaxNeon,
    // exp has no NEON polynomial here; the reduction-free parts of softmax
    // still vectorize and exp_sum stays scalar-exact.
    ExpSumScalar,
    GemmRowNeon,
    // No NEON register-tiled version yet: the scalar multiply-then-add
    // loop keeps the level exact.
    GatherScaleAddScalar,
};

#endif  // CGNP_SIMD_NEON

// Active level, resolved lazily from CGNP_SIMD_LEVEL / detection. Relaxed
// atomics: the level is set at configuration time and read on hot paths.
std::atomic<int> g_level{static_cast<int>(SimdLevel::kScalar)};

bool LevelAvailable(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#if CGNP_SIMD_X86
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
#else
      return false;
#endif
    case SimdLevel::kNeon:
#if CGNP_SIMD_NEON
      return true;  // Advanced SIMD is baseline on AArch64.
#else
      return false;
#endif
  }
  return false;
}

void InitOnce() {
  static const bool initialised = [] {
    SimdLevel level = DetectedSimdLevel();
    const char* env = std::getenv("CGNP_SIMD_LEVEL");
    if (env != nullptr && env[0] != '\0') {
      const StatusOr<SimdLevel> parsed = ParseSimdLevel(env);
      if (!parsed.ok()) {
        CGNP_LOG(kWarn, "simd_level_env_invalid")
            .Str("value", env)
            .Str("using", SimdLevelName(level));
      } else if (!LevelAvailable(parsed.value())) {
        CGNP_LOG(kWarn, "simd_level_env_unavailable")
            .Str("value", env)
            .Str("using", SimdLevelName(level));
      } else {
        level = parsed.value();
      }
    }
    g_level.store(static_cast<int>(level), std::memory_order_relaxed);
    return true;
  }();
  (void)initialised;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kNeon:
      return "neon";
  }
  return "scalar";
}

StatusOr<SimdLevel> ParseSimdLevel(const std::string& name) {
  if (name == "scalar") return SimdLevel::kScalar;
  if (name == "avx2") return SimdLevel::kAvx2;
  if (name == "neon") return SimdLevel::kNeon;
  if (name == "native") return DetectedSimdLevel();
  return InvalidArgumentError(
      "unknown SIMD level \"" + name +
      "\" (want scalar, avx2, neon, or native)");
}

SimdLevel DetectedSimdLevel() {
  if (LevelAvailable(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
  if (LevelAvailable(SimdLevel::kNeon)) return SimdLevel::kNeon;
  return SimdLevel::kScalar;
}

std::vector<SimdLevel> AvailableSimdLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (LevelAvailable(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  if (LevelAvailable(SimdLevel::kNeon)) levels.push_back(SimdLevel::kNeon);
  return levels;
}

SimdLevel ActiveSimdLevel() {
  InitOnce();
  return static_cast<SimdLevel>(g_level.load(std::memory_order_relaxed));
}

Status SetSimdLevel(SimdLevel level) {
  InitOnce();
  if (!LevelAvailable(level)) {
    return UnimplementedError(std::string("SIMD level \"") +
                              SimdLevelName(level) +
                              "\" is not available on this CPU");
  }
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
  return Status::Ok();
}

const SimdKernels& KernelsFor(SimdLevel level) {
  switch (level) {
#if CGNP_SIMD_X86
    case SimdLevel::kAvx2:
      return kAvx2Kernels;
#endif
#if CGNP_SIMD_NEON
    case SimdLevel::kNeon:
      return kNeonKernels;
#endif
    default:
      return kScalarKernels;
  }
}

const SimdKernels& Kernels() { return KernelsFor(ActiveSimdLevel()); }

}  // namespace simd
}  // namespace cgnp
