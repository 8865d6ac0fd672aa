// Runtime-dispatched SIMD kernels for the tensor substrate.
//
// Every vectorized inner loop in the library goes through the function-
// pointer table returned by Kernels(). The table is chosen once per process
// from CPUID feature detection (AVX2+FMA on x86-64, NEON on AArch64) with a
// portable scalar implementation always available, and can be forced to a
// specific level with the CGNP_SIMD_LEVEL environment variable
// ("scalar" | "avx2" | "neon" | "native") or SetSimdLevel().
//
// Determinism contract (see docs/KERNELS.md):
//   * Per level, kernels are pure functions of their inputs: the same
//     dispatch level produces bitwise-identical results at any thread
//     count, because callers partition work by output row/element
//     (common/parallel.h) and each kernel call covers a whole row/chunk
//     with a fixed accumulation order.
//   * Across levels, pure elementwise IEEE-754 ops (add/sub/mul/div,
//     relu/leaky_relu, scale, max, and gather_scale_add, which multiplies
//     then adds) are bitwise identical to scalar.
//     Reductions and fused multiply-adds (dot, axpy, exp_sum) may differ
//     from scalar -- FMA fuses the intermediate rounding and exp_sum uses
//     a polynomial exp -- within ~1e-6 relative accuracy. tests/simd_test.cc
//     sweeps every kernel across all available levels and remainder lanes.
//
// Raw intrinsics (<immintrin.h> / <arm_neon.h>) are confined to
// src/tensor/simd.cc -- the cgnp-no-raw-intrinsics lint rule keeps dispatch
// centralized here (docs/STATIC_ANALYSIS.md).
#ifndef CGNP_TENSOR_SIMD_H_
#define CGNP_TENSOR_SIMD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace cgnp {
namespace simd {

// Dispatch levels, ordered by preference. kScalar is always available.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,  // x86-64 AVX2 + FMA
  kNeon = 2,  // AArch64 Advanced SIMD
};

// "scalar" / "avx2" / "neon".
const char* SimdLevelName(SimdLevel level);

// Parses a CGNP_SIMD_LEVEL spelling. "native" resolves to the detected
// level; unknown names are InvalidArgument.
StatusOr<SimdLevel> ParseSimdLevel(const std::string& name);

// Best level the running CPU supports (never consults the environment).
SimdLevel DetectedSimdLevel();

// Levels usable on this host, ascending; always starts with kScalar.
std::vector<SimdLevel> AvailableSimdLevels();

// The level Kernels() currently dispatches to. First use resolves the
// default: CGNP_SIMD_LEVEL if set and available (a warning is logged and
// the value ignored otherwise), else DetectedSimdLevel().
SimdLevel ActiveSimdLevel();

// Forces the dispatch level. Unimplemented when the CPU lacks it. Call at
// configuration time (tests, benchmarks, server startup), not concurrently
// with in-flight kernels.
Status SetSimdLevel(SimdLevel level);

// The kernel table. All pointers are non-null at every level; `n` is the
// element count and may be 0 unless stated otherwise. Buffers may be
// unaligned; in-place (`o == a`) is allowed for the elementwise kernels.
struct SimdKernels {
  // y[i] += a * x[i]
  void (*axpy)(int64_t n, float a, const float* x, float* y);
  // sum_i x[i] * y[i]
  float (*dot)(int64_t n, const float* x, const float* y);
  // o[i] = a[i] (op) b[i]
  void (*add)(int64_t n, const float* a, const float* b, float* o);
  void (*sub)(int64_t n, const float* a, const float* b, float* o);
  void (*mul)(int64_t n, const float* a, const float* b, float* o);
  void (*div)(int64_t n, const float* a, const float* b, float* o);
  // o[i] = a[i] * s
  void (*scale)(int64_t n, const float* a, float s, float* o);
  // o[i] = max(a[i], 0)
  void (*relu)(int64_t n, const float* a, float* o);
  // o[i] = a[i] > 0 ? a[i] : slope * a[i]
  void (*leaky_relu)(int64_t n, float slope, const float* a, float* o);
  // max_i a[i]; n must be >= 1
  float (*max)(int64_t n, const float* a);
  // o[i] = exp(a[i] - bias); returns sum_i o[i] (the softmax normalizer)
  float (*exp_sum)(int64_t n, float bias, const float* a, float* o);
  // GEMM row microkernel: c[j] += sum_p a_row[p] * b[p*n + j] for one
  // output row (a_row is k contiguous floats, b is k x n row-major).
  // Vector levels keep c in register accumulator tiles across the whole
  // p loop instead of streaming it through memory once per p, which is
  // where the GEMM speedup over scalar comes from.
  void (*gemm_row)(int64_t n, int64_t k, const float* a_row, const float* b,
                   float* c);
  // o[j] += w[e] * x[idx[e] * n + j] for e = 0 .. count-1 in that order:
  // a weighted sum of gathered rows of x (n floats each) into one row.
  // Every product is rounded before its add -- never fused, at any level
  // -- so the result is bitwise the per-row scale kernel into a temporary
  // followed by an add, at every level. The AVX2 level keeps o in
  // register tiles across the whole e loop.
  void (*gather_scale_add)(int64_t n, int64_t count, const int64_t* idx,
                           const float* w, const float* x, float* o);
};

// Function-pointer aliases for ops that take an optional vector kernel.
using BinaryKernelFn = void (*)(int64_t, const float*, const float*, float*);
using UnaryKernelFn = void (*)(int64_t, const float*, float*);
using ScaleKernelFn = void (*)(int64_t, const float*, float, float*);

// Table for the active level (cheap: one atomic load). Hoist the returned
// reference out of inner loops anyway -- kernels are called per row.
const SimdKernels& Kernels();

// Table for a specific level regardless of the active choice (the parity
// tests compare levels against each other through this). The caller must
// ensure the level is available on this host before invoking its kernels.
const SimdKernels& KernelsFor(SimdLevel level);

}  // namespace simd
}  // namespace cgnp

#endif  // CGNP_TENSOR_SIMD_H_
