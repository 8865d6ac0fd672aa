// Finite-difference gradient checks for every differentiable op. These are
// the property tests that pin down the autograd engine: if any backward
// closure is wrong, training silently degrades, so each op is verified
// element-by-element against central differences.
#include <functional>

#include "gtest/gtest.h"
#include "tensor/gat_aggregate.h"
#include "tensor/ops.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

using testing::CheckGradient;

Tensor MakeInput(Rng* rng, Shape shape, float scale = 1.0f) {
  return Tensor::Randn(shape, rng, scale, /*requires_grad=*/true);
}

TEST(Autograd, Add) {
  Rng rng(1);
  Tensor a = MakeInput(&rng, {3, 4});
  Tensor b = MakeInput(&rng, {3, 4});
  CheckGradient(a, [&] { return Sum(Add(a, b)); });
  CheckGradient(b, [&] { return Sum(Add(a, b)); });
}

TEST(Autograd, AddBroadcastRow) {
  Rng rng(2);
  Tensor a = MakeInput(&rng, {3, 4});
  Tensor b = MakeInput(&rng, {1, 4});
  CheckGradient(b, [&] { return Sum(Mul(Add(a, b), Add(a, b))); });
}

TEST(Autograd, AddBroadcastCol) {
  Rng rng(3);
  Tensor a = MakeInput(&rng, {3, 4});
  Tensor b = MakeInput(&rng, {3, 1});
  CheckGradient(b, [&] { return Sum(Mul(Add(a, b), Add(a, b))); });
}

TEST(Autograd, SubAndNeg) {
  Rng rng(4);
  Tensor a = MakeInput(&rng, {2, 3});
  Tensor b = MakeInput(&rng, {2, 3});
  CheckGradient(a, [&] { return Sum(Mul(Sub(a, b), Sub(a, b))); });
  CheckGradient(a, [&] { return Sum(Neg(Mul(a, a))); });
}

TEST(Autograd, MulElementwiseBothSides) {
  Rng rng(5);
  Tensor a = MakeInput(&rng, {3, 3});
  Tensor b = MakeInput(&rng, {3, 3});
  CheckGradient(a, [&] { return Sum(Mul(a, b)); });
  CheckGradient(b, [&] { return Sum(Mul(a, b)); });
}

TEST(Autograd, MulBroadcastColumn) {
  Rng rng(6);
  Tensor a = MakeInput(&rng, {4, 3});
  Tensor b = MakeInput(&rng, {4, 1});
  CheckGradient(a, [&] { return Sum(Mul(a, b)); });
  CheckGradient(b, [&] { return Sum(Mul(a, b)); });
}

TEST(Autograd, DivStaysAwayFromZero) {
  Rng rng(7);
  Tensor a = MakeInput(&rng, {2, 3});
  Tensor b = Tensor::FromVector({2, 3}, {2, 3, 4, 2.5, 3.5, 4.5});
  b.impl()->requires_grad = true;
  CheckGradient(a, [&] { return Sum(Div(a, b)); });
  CheckGradient(b, [&] { return Sum(Div(a, b)); }, 1e-3f);
}

TEST(Autograd, MatMulPlain) {
  Rng rng(8);
  Tensor a = MakeInput(&rng, {3, 4});
  Tensor b = MakeInput(&rng, {4, 2});
  CheckGradient(a, [&] { return Sum(MatMul(a, b)); });
  CheckGradient(b, [&] { return Sum(MatMul(a, b)); });
}

TEST(Autograd, MatMulTransposeB) {
  Rng rng(9);
  Tensor a = MakeInput(&rng, {3, 4});
  Tensor b = MakeInput(&rng, {2, 4});
  CheckGradient(a, [&] { return Sum(MatMul(a, b, false, true)); });
  CheckGradient(b, [&] { return Sum(MatMul(a, b, false, true)); });
}

TEST(Autograd, MatMulTransposeA) {
  Rng rng(10);
  Tensor a = MakeInput(&rng, {4, 3});
  Tensor b = MakeInput(&rng, {4, 2});
  CheckGradient(a, [&] { return Sum(MatMul(a, b, true, false)); });
  CheckGradient(b, [&] { return Sum(MatMul(a, b, true, false)); });
}

TEST(Autograd, MatMulTransposeBoth) {
  Rng rng(11);
  Tensor a = MakeInput(&rng, {4, 3});
  Tensor b = MakeInput(&rng, {2, 4});
  CheckGradient(a, [&] { return Sum(MatMul(a, b, true, true)); });
  CheckGradient(b, [&] { return Sum(MatMul(a, b, true, true)); });
}

TEST(Autograd, MatMulQuadraticForm) {
  // Nonlinear use: loss = sum((a b)^2) exercises dC accumulation.
  Rng rng(12);
  Tensor a = MakeInput(&rng, {3, 3});
  Tensor b = MakeInput(&rng, {3, 3});
  auto f = [&] {
    Tensor c = MatMul(a, b);
    return Sum(Mul(c, c));
  };
  CheckGradient(a, f);
  CheckGradient(b, f);
}

TEST(Autograd, Transpose) {
  Rng rng(13);
  Tensor a = MakeInput(&rng, {3, 5});
  CheckGradient(a, [&] { return Sum(Mul(Transpose(a), Transpose(a))); });
}

TEST(Autograd, Activations) {
  Rng rng(14);
  Tensor a = MakeInput(&rng, {3, 4});
  CheckGradient(a, [&] { return Sum(Sigmoid(a)); });
  CheckGradient(a, [&] { return Sum(Tanh(a)); });
  CheckGradient(a, [&] { return Sum(Elu(a)); });
  CheckGradient(a, [&] { return Sum(Square(a)); });
}

TEST(Autograd, ReluAwayFromKink) {
  Rng rng(15);
  // Keep inputs away from 0 so finite differences are valid.
  Tensor a = Tensor::FromVector({2, 3}, {-2, -1, -0.5, 0.5, 1, 2});
  a.impl()->requires_grad = true;
  CheckGradient(a, [&] { return Sum(Relu(a)); }, 1e-3f);
  CheckGradient(a, [&] { return Sum(LeakyRelu(a, 0.2f)); }, 1e-3f);
}

TEST(Autograd, ExpLogSqrt) {
  Tensor a = Tensor::FromVector({1, 4}, {0.5, 1.0, 2.0, 3.0});
  a.impl()->requires_grad = true;
  CheckGradient(a, [&] { return Sum(Exp(a)); }, 1e-3f);
  CheckGradient(a, [&] { return Sum(Log(a)); }, 1e-3f);
  CheckGradient(a, [&] { return Sum(Sqrt(a)); }, 1e-3f);
}

TEST(Autograd, SoftmaxThroughDownstreamLoss) {
  Rng rng(16);
  Tensor a = MakeInput(&rng, {3, 5});
  Tensor w = Tensor::Randn({3, 5}, &rng);
  CheckGradient(a, [&] { return Sum(Mul(Softmax(a), w)); });
}

TEST(Autograd, SumMeanDims) {
  Rng rng(17);
  Tensor a = MakeInput(&rng, {4, 3});
  CheckGradient(a, [&] { return Sum(Mul(SumDim(a, 0), SumDim(a, 0))); });
  CheckGradient(a, [&] { return Sum(Mul(SumDim(a, 1), SumDim(a, 1))); });
  CheckGradient(a, [&] { return Mean(Mul(a, a)); });
  CheckGradient(a, [&] { return Sum(Mul(MeanDim(a, 0), MeanDim(a, 0))); });
}

TEST(Autograd, ConcatAndIndexSelect) {
  Rng rng(18);
  Tensor a = MakeInput(&rng, {3, 2});
  Tensor b = MakeInput(&rng, {3, 3});
  auto f_cols = [&] {
    Tensor c = ConcatCols(a, b);
    return Sum(Mul(c, c));
  };
  CheckGradient(a, f_cols);
  CheckGradient(b, f_cols);

  Tensor c = MakeInput(&rng, {3, 2});
  auto f_rows = [&] {
    Tensor r = ConcatRows(a, c);
    return Sum(Mul(r, r));
  };
  CheckGradient(c, f_rows);

  // Duplicate indices must accumulate.
  auto f_sel = [&] {
    Tensor s = IndexSelectRows(a, {0, 2, 0});
    return Sum(Mul(s, s));
  };
  CheckGradient(a, f_sel);
}

TEST(Autograd, Reshape) {
  Rng rng(19);
  Tensor a = MakeInput(&rng, {2, 6});
  CheckGradient(a, [&] {
    Tensor r = Reshape(a, {4, 3});
    return Sum(Mul(r, r));
  });
}

TEST(Autograd, SpMMSymmetric) {
  Rng rng(20);
  // Symmetric normalised adjacency of a path graph.
  Graph g = testing::PathGraph(5);
  Tensor x = MakeInput(&rng, {5, 3});
  CheckGradient(x, [&] {
    Tensor y = SpMM(g.GcnAdjacency(), x);
    return Sum(Mul(y, y));
  });
}

TEST(Autograd, SpMMAsymmetric) {
  Rng rng(21);
  Graph g = testing::PathGraph(5);  // mean adjacency is row-normalised
  Tensor x = MakeInput(&rng, {5, 3});
  CheckGradient(x, [&] {
    Tensor y = SpMM(g.MeanAdjacency(), x);
    return Sum(Mul(y, y));
  });
}

TEST(Autograd, SegmentSoftmaxAndSum) {
  Rng rng(22);
  const std::vector<int64_t> seg_ptr = {0, 2, 5, 5, 8};  // empty segment ok
  Tensor scores = MakeInput(&rng, {8, 1});
  Tensor vals = MakeInput(&rng, {8, 3});
  auto f = [&] {
    Tensor alpha = SegmentSoftmax(scores, seg_ptr);
    Tensor weighted = Mul(vals, alpha);
    Tensor pooled = SegmentSumRows(weighted, seg_ptr);
    return Sum(Mul(pooled, pooled));
  };
  CheckGradient(scores, f);
  CheckGradient(vals, f);
}

TEST(Autograd, GatAggregate) {
  Rng rng(24);
  // In-edges per destination: three, none, one, two.
  const std::vector<int64_t> seg_ptr = {0, 3, 3, 4, 6};
  const std::vector<int64_t> src = {0, 1, 3, 2, 1, 3};
  Tensor h = MakeInput(&rng, {4, 3});
  Tensor attn_src = MakeInput(&rng, {3, 1});
  Tensor attn_dst = MakeInput(&rng, {3, 1});
  auto f = [&] {
    Tensor y = GatAggregate(h, attn_src, attn_dst, src, seg_ptr, 0.2f);
    return Sum(Mul(y, y));
  };
  CheckGradient(h, f);
  CheckGradient(attn_src, f);
  CheckGradient(attn_dst, f);
}

TEST(Autograd, BceWithLogits) {
  Rng rng(23);
  Tensor logits = MakeInput(&rng, {6, 1});
  std::vector<float> targets = {1, 0, 1, 0, 1, 0};
  std::vector<float> mask = {1, 1, 0, 1, 1, 1};
  CheckGradient(logits, [&] { return BceWithLogits(logits, targets, mask); },
                1e-2f);
}

TEST(Autograd, DeepChainMatchesAnalytic) {
  // loss = mean(sigmoid(x W1) W2), a miniature MLP forward; verifies the
  // whole tape composes.
  Rng rng(24);
  Tensor x = Tensor::Randn({4, 3}, &rng);
  Tensor w1 = MakeInput(&rng, {3, 5});
  Tensor w2 = MakeInput(&rng, {5, 1});
  auto f = [&] { return Mean(MatMul(Sigmoid(MatMul(x, w1)), w2)); };
  CheckGradient(w1, f);
  CheckGradient(w2, f);
}

}  // namespace
}  // namespace cgnp
