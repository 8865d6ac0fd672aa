// Scalar-vs-vector parity harness for the SIMD dispatch layer
// (tensor/simd.h). Sweeps every kernel across every dispatch level the
// host supports and a size grid that covers empty inputs, sub-vector
// sizes, exact multiples of the 4/8-float lane widths, and remainder
// lanes -- then checks the two halves of the determinism contract:
//
//   * pure elementwise lane ops (add/sub/mul/div/scale/relu/leaky_relu,
//     max, and gather_scale_add, a scale then an add per row) are BITWISE
//     identical to scalar at every level;
//   * FMA reductions and the polynomial exp (dot, axpy, exp_sum) match
//     scalar within a small relative tolerance, and full tensor ops run
//     at a forced level are bitwise-identical across thread counts.
//
// CI runs this twice: once with CGNP_SIMD_LEVEL=scalar forced and once at
// native, so the scalar fallback can never rot (.github/workflows/ci.yml).
#include "tensor/simd.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace cgnp {
namespace {

using simd::SimdKernels;
using simd::SimdLevel;

// Sizes chosen to hit n == 0/1, below one vector, exactly 1/2/4 vectors
// for both the NEON (4) and AVX2 (8) lane widths, and every remainder.
const int64_t kSizes[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,  15, 16,
                          17, 23, 31, 32, 33, 63, 64, 65, 67, 128, 1000};

std::vector<float> RandomVec(int64_t n, Rng* rng, float lo = -3.0f,
                             float hi = 3.0f) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng->Uniform(lo, hi);
  return v;
}

// Restores the process dispatch level on scope exit so a failing test
// cannot poison the rest of the suite.
class LevelGuard {
 public:
  LevelGuard() : saved_(simd::ActiveSimdLevel()) {}
  ~LevelGuard() { ASSERT_OK(simd::SetSimdLevel(saved_)); }
  static void ASSERT_OK(const Status& s) { ASSERT_TRUE(s.ok()) << s.ToString(); }

 private:
  SimdLevel saved_;
};

TEST(SimdDispatch, ScalarAlwaysAvailableAndFirst) {
  const auto levels = simd::AvailableSimdLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels[0], SimdLevel::kScalar);
  // The detected level must be among the available ones.
  bool found = false;
  for (SimdLevel l : levels) {
    if (l == simd::DetectedSimdLevel()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SimdDispatch, ParseSpellings) {
  EXPECT_EQ(simd::ParseSimdLevel("scalar").value(), SimdLevel::kScalar);
  EXPECT_EQ(simd::ParseSimdLevel("native").value(), simd::DetectedSimdLevel());
  const auto bad = simd::ParseSimdLevel("avx512");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(SimdDispatch, SetSimdLevelRejectsUnavailableLevels) {
  // At least one of avx2/neon is impossible on any given host.
  const auto levels = simd::AvailableSimdLevels();
  for (SimdLevel candidate : {SimdLevel::kAvx2, SimdLevel::kNeon}) {
    bool available = false;
    for (SimdLevel l : levels) {
      if (l == candidate) available = true;
    }
    if (available) continue;
    const Status s = simd::SetSimdLevel(candidate);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kUnimplemented);
    return;  // proved the error path
  }
  GTEST_SKIP() << "host supports every dispatch level";
}

TEST(SimdDispatch, SetSimdLevelSwitchesTheActiveTable) {
  LevelGuard guard;
  for (SimdLevel l : simd::AvailableSimdLevels()) {
    ASSERT_TRUE(simd::SetSimdLevel(l).ok());
    EXPECT_EQ(simd::ActiveSimdLevel(), l);
    EXPECT_EQ(&simd::Kernels(), &simd::KernelsFor(l))
        << simd::SimdLevelName(l);
  }
}

// --- Kernel-level parity ----------------------------------------------------

TEST(SimdParity, ElementwiseBitwiseEqualToScalarAtEveryLevel) {
  const SimdKernels& S = simd::KernelsFor(SimdLevel::kScalar);
  Rng rng(7);
  for (SimdLevel level : simd::AvailableSimdLevels()) {
    if (level == SimdLevel::kScalar) continue;
    const SimdKernels& V = simd::KernelsFor(level);
    for (int64_t n : kSizes) {
      SCOPED_TRACE(std::string(simd::SimdLevelName(level)) +
                   " n=" + std::to_string(n));
      const std::vector<float> a = RandomVec(n, &rng);
      // Away from zero so Div parity is not testing x/0.
      std::vector<float> b = RandomVec(n, &rng, 0.5f, 4.0f);
      for (size_t i = 0; i < b.size(); i += 2) b[i] = -b[i];
      std::vector<float> want(static_cast<size_t>(n)),
          got(static_cast<size_t>(n));

      S.add(n, a.data(), b.data(), want.data());
      V.add(n, a.data(), b.data(), got.data());
      EXPECT_EQ(want, got) << "add";
      S.sub(n, a.data(), b.data(), want.data());
      V.sub(n, a.data(), b.data(), got.data());
      EXPECT_EQ(want, got) << "sub";
      S.mul(n, a.data(), b.data(), want.data());
      V.mul(n, a.data(), b.data(), got.data());
      EXPECT_EQ(want, got) << "mul";
      S.div(n, a.data(), b.data(), want.data());
      V.div(n, a.data(), b.data(), got.data());
      EXPECT_EQ(want, got) << "div";
      S.scale(n, a.data(), 1.7f, want.data());
      V.scale(n, a.data(), 1.7f, got.data());
      EXPECT_EQ(want, got) << "scale";
      S.relu(n, a.data(), want.data());
      V.relu(n, a.data(), got.data());
      EXPECT_EQ(want, got) << "relu";
      S.leaky_relu(n, 0.2f, a.data(), want.data());
      V.leaky_relu(n, 0.2f, a.data(), got.data());
      EXPECT_EQ(want, got) << "leaky_relu";
      if (n >= 1) {
        EXPECT_EQ(S.max(n, a.data()), V.max(n, a.data())) << "max";
      }
    }
  }
}

// gather_scale_add is, bit for bit, one scale into a temporary and one add
// per gathered row, in row order (no fused multiply-add), at every level.
TEST(SimdParity, GatherScaleAddIsScaleThenAddAtEveryLevel) {
  Rng rng(13);
  const std::vector<int64_t> idx = {3, 0, 6, 3, 1};
  const int64_t count = static_cast<int64_t>(idx.size());
  for (SimdLevel level : simd::AvailableSimdLevels()) {
    const SimdKernels& V = simd::KernelsFor(level);
    for (int64_t n : kSizes) {
      SCOPED_TRACE(std::string(simd::SimdLevelName(level)) +
                   " n=" + std::to_string(n));
      const std::vector<float> x = RandomVec(7 * n, &rng);
      const std::vector<float> w = RandomVec(count, &rng);
      const std::vector<float> o = RandomVec(n, &rng);
      std::vector<float> want = o, tmp(static_cast<size_t>(n));
      for (int64_t e = 0; e < count; ++e) {
        V.scale(n, x.data() + idx[e] * n, w[e], tmp.data());
        V.add(n, want.data(), tmp.data(), want.data());
      }
      std::vector<float> got = o;
      V.gather_scale_add(n, count, idx.data(), w.data(), x.data(), got.data());
      if (n > 0) {  // memcmp takes no null pointer, even for 0 bytes
        EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
                  0);
      }
      std::vector<float> untouched = o;
      V.gather_scale_add(n, 0, idx.data(), w.data(), x.data(),
                         untouched.data());
      EXPECT_EQ(untouched, o) << "count 0";
    }
  }
}

TEST(SimdParity, ElementwiseKernelsWorkInPlace) {
  Rng rng(11);
  for (SimdLevel level : simd::AvailableSimdLevels()) {
    const SimdKernels& V = simd::KernelsFor(level);
    const int64_t n = 67;
    const std::vector<float> a = RandomVec(n, &rng);
    std::vector<float> want(static_cast<size_t>(n));
    V.relu(n, a.data(), want.data());
    std::vector<float> in_place = a;
    V.relu(n, in_place.data(), in_place.data());
    EXPECT_EQ(want, in_place) << simd::SimdLevelName(level);
  }
}

TEST(SimdParity, ReductionsMatchScalarWithinTolerance) {
  const SimdKernels& S = simd::KernelsFor(SimdLevel::kScalar);
  Rng rng(13);
  for (SimdLevel level : simd::AvailableSimdLevels()) {
    if (level == SimdLevel::kScalar) continue;
    const SimdKernels& V = simd::KernelsFor(level);
    for (int64_t n : kSizes) {
      SCOPED_TRACE(std::string(simd::SimdLevelName(level)) +
                   " n=" + std::to_string(n));
      const std::vector<float> x = RandomVec(n, &rng);
      const std::vector<float> y = RandomVec(n, &rng);

      const float ds = S.dot(n, x.data(), y.data());
      const float dv = V.dot(n, x.data(), y.data());
      // Relative to the magnitude of the accumulation, not the (possibly
      // cancelled) result.
      float mag = 1.0f;
      for (int64_t i = 0; i < n; ++i) mag += std::fabs(x[i] * y[i]);
      EXPECT_NEAR(ds, dv, 1e-5f * mag) << "dot";

      std::vector<float> ys(static_cast<size_t>(n), 0.25f);
      std::vector<float> yv(static_cast<size_t>(n), 0.25f);
      S.axpy(n, -1.3f, x.data(), ys.data());
      V.axpy(n, -1.3f, x.data(), yv.data());
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_NEAR(ys[i], yv[i], 1e-5f * (1.0f + std::fabs(ys[i])))
            << "axpy[" << i << "]";
      }

      if (n >= 1) {
        const float bias = S.max(n, x.data());
        std::vector<float> es(static_cast<size_t>(n)),
            ev(static_cast<size_t>(n));
        const float zs = S.exp_sum(n, bias, x.data(), es.data());
        const float zv = V.exp_sum(n, bias, x.data(), ev.data());
        EXPECT_NEAR(zs, zv, 2e-5f * zs) << "exp_sum normalizer";
        for (int64_t i = 0; i < n; ++i) {
          EXPECT_NEAR(es[i], ev[i], 2e-6f * (1.0f + es[i]))
              << "exp_sum[" << i << "]";
        }
      }

      // gemm_row: one output row of width n against a k x n panel. k is
      // deliberately off the lane grid so the tail paths run too.
      const int64_t k = 13;
      const std::vector<float> a_row = RandomVec(k, &rng);
      const std::vector<float> panel = RandomVec(k * n, &rng);
      std::vector<float> cs(static_cast<size_t>(n), 0.5f);
      std::vector<float> cv(static_cast<size_t>(n), 0.5f);
      S.gemm_row(n, k, a_row.data(), panel.data(), cs.data());
      V.gemm_row(n, k, a_row.data(), panel.data(), cv.data());
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_NEAR(cs[i], cv[i], 1e-5f * (1.0f + std::fabs(cs[i])))
            << "gemm_row[" << i << "]";
      }
    }
  }
}

// --- Op-level determinism at a forced level ---------------------------------

// Per-level contract: the same dispatch level gives the same bits at any
// thread count, because ops partition by output row and every kernel call
// covers a whole row with a fixed accumulation order.
TEST(SimdDeterminism, OpsBitwiseIdenticalAcrossThreadCountsPerLevel) {
  LevelGuard guard;
  Rng rng(17);
  const std::vector<float> xs = RandomVec(64 * 48, &rng);
  const std::vector<float> ws = RandomVec(48 * 32, &rng);
  for (SimdLevel level : simd::AvailableSimdLevels()) {
    ASSERT_TRUE(simd::SetSimdLevel(level).ok());
    auto run = [&](int threads) {
      set_num_threads(threads);
      NoGradGuard no_grad;
      Tensor x = Tensor::FromVector({64, 48}, xs);
      Tensor w = Tensor::FromVector({48, 32}, ws);
      Tensor h = Relu(MatMul(x, w));
      Tensor sm = Softmax(h);
      // Decoder scoring shape: {n,k} x {1,k}^T.
      Tensor q = IndexSelectRows(h, {0});
      Tensor scores = MatMul(h, q, false, true);
      std::vector<float> out;
      const float* p = sm.data();
      out.insert(out.end(), p, p + sm.numel());
      const float* s = scores.data();
      out.insert(out.end(), s, s + scores.numel());
      set_num_threads(1);
      return out;
    };
    const std::vector<float> serial = run(1);
    EXPECT_EQ(run(2), serial) << simd::SimdLevelName(level) << " 2 threads";
    EXPECT_EQ(run(8), serial) << simd::SimdLevelName(level) << " 8 threads";
  }
}

// Cross-level accuracy: full decode-shaped pipelines at a vector level
// stay within tolerance of the scalar level (they need not be bitwise).
TEST(SimdDeterminism, VectorLevelsTrackScalarWithinTolerance) {
  LevelGuard guard;
  Rng rng(19);
  const std::vector<float> xs = RandomVec(40 * 24, &rng);
  const std::vector<float> ws = RandomVec(24 * 16, &rng);
  auto run = [&](SimdLevel level) {
    EXPECT_TRUE(simd::SetSimdLevel(level).ok());
    NoGradGuard no_grad;
    Tensor x = Tensor::FromVector({40, 24}, xs);
    Tensor w = Tensor::FromVector({24, 16}, ws);
    Tensor sm = Softmax(Relu(MatMul(x, w)));
    return std::vector<float>(sm.data(), sm.data() + sm.numel());
  };
  const std::vector<float> scalar = run(SimdLevel::kScalar);
  for (SimdLevel level : simd::AvailableSimdLevels()) {
    if (level == SimdLevel::kScalar) continue;
    const std::vector<float> vec = run(level);
    ASSERT_EQ(vec.size(), scalar.size());
    for (size_t i = 0; i < vec.size(); ++i) {
      EXPECT_NEAR(vec[i], scalar[i], 1e-5f)
          << simd::SimdLevelName(level) << "[" << i << "]";
    }
  }
}

}  // namespace
}  // namespace cgnp
