// GatAggregate (tensor/gat_aggregate.h) against the composed chain it
// fused (tests/gat_oracles.h): forward output and every gradient must be
// byte-identical at every SIMD level this host has and at 1 and 4 kernel
// threads. Plus the serve-path promise: a no-grad forward inside a
// WorkspaceScope makes no heap allocation.
#include "tensor/gat_aggregate.h"

#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "data/synthetic.h"
#include "graph/graph.h"
#include "graph/sampling.h"
#include "gtest/gtest.h"
#include "nn/gat_conv.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/workspace.h"
#include "tests/gat_oracles.h"
#include "tests/heap_counter.h"

namespace cgnp {
namespace {

using simd::SimdLevel;

// Restores the dispatch level and the serial kernel pool on scope exit.
class LevelAndThreadsGuard {
 public:
  LevelAndThreadsGuard() : level_(simd::ActiveSimdLevel()) {}
  ~LevelAndThreadsGuard() {
    EXPECT_TRUE(simd::SetSimdLevel(level_).ok());
    set_num_threads(1);
  }

 private:
  SimdLevel level_;
};

// Calls fn(context) once per available SIMD level at 1 and 4 threads.
template <typename Fn>
void ForEachLevelAndThreadCount(Fn&& fn) {
  LevelAndThreadsGuard guard;
  for (SimdLevel level : simd::AvailableSimdLevels()) {
    ASSERT_TRUE(simd::SetSimdLevel(level).ok());
    for (int threads : {1, 4}) {
      set_num_threads(threads);
      fn(std::string(simd::SimdLevelName(level)) + ", " +
         std::to_string(threads) + " threads");
    }
  }
}

void ExpectSameBytes(const float* want, const float* got, size_t n,
                     const std::string& what) {
  EXPECT_EQ(std::memcmp(want, got, n * sizeof(float)), 0) << what;
}

void ExpectSameData(const Tensor& want, const Tensor& got,
                    const std::string& what) {
  ASSERT_EQ(want.shape(), got.shape()) << what;
  ExpectSameBytes(want.data(), got.data(), static_cast<size_t>(want.numel()),
                  what);
}

void ExpectSameGrad(const Tensor& want, const Tensor& got,
                    const std::string& what) {
  ASSERT_EQ(want.grad().size(), got.grad().size()) << what;
  ExpectSameBytes(want.grad().data(), got.grad().data(), want.grad().size(),
                  what + " gradient");
}

// A 200-node BFS task from a graph shaped like the serving benchmark's
// (5,000 nodes, 25 planted communities, intra degree 12, inter 1.5).
Graph TaskGraph(NodeId seed_node) {
  Rng rng(11);
  SyntheticConfig cfg;
  cfg.num_nodes = 5000;
  cfg.num_communities = 25;
  cfg.intra_degree = 12;
  cfg.inter_degree = 1.5;
  const Graph g = GenerateSyntheticGraph(cfg, &rng);
  return InducedSubgraph(g, BfsSample(g, seed_node, 200, &rng));
}

// Five destinations: three in-edges, none, one (a single-edge segment),
// three, two. Sources repeat across segments.
Graph::EdgeIndex SmallEdges() {
  Graph::EdgeIndex ei;
  ei.seg_ptr = {0, 3, 3, 4, 7, 9};
  ei.src = {0, 1, 4, 2, 3, 0, 1, 4, 2};
  ei.dst = {0, 0, 0, 2, 3, 3, 3, 4, 4};
  return ei;
}

TEST(GatAggregate, MatchesComposedChainBitwise) {
  const Graph::EdgeIndex ei = SmallEdges();
  Rng rng(21);
  const Tensor h0 = Tensor::Randn({5, 11}, &rng, 1.0f, true);
  const Tensor as0 = Tensor::Randn({11, 1}, &rng, 1.0f, true);
  const Tensor ad0 = Tensor::Randn({11, 1}, &rng, 1.0f, true);
  const Tensor r = Tensor::Randn({5, 11}, &rng);
  ForEachLevelAndThreadCount([&](const std::string& ctx) {
    Tensor h = h0.Clone(), as = as0.Clone(), ad = ad0.Clone();
    Tensor out = GatAggregate(h, as, ad, ei.src, ei.seg_ptr, 0.2f);
    Sum(Mul(out, r)).Backward();
    Tensor h2 = h0.Clone(), as2 = as0.Clone(), ad2 = ad0.Clone();
    Tensor want = oracle::ComposedGatAggregate(h2, as2, ad2, ei, 0.2f);
    Sum(Mul(want, r)).Backward();
    ExpectSameData(want, out, ctx + ": output");
    for (int64_t j = 0; j < 11; ++j) {
      EXPECT_EQ(out.At(1, j), 0.0f) << ctx << ": empty segment row";
    }
    ExpectSameGrad(h2, h, ctx + ": h");
    ExpectSameGrad(as2, as, ctx + ": attn_src");
    ExpectSameGrad(ad2, ad, ctx + ": attn_dst");
  });
}

// Two stacked layers over two task graphs that share the parameters, so
// the check covers the input gradient fed back through a layer and
// parameter gradients summed over several calls.
TEST(GatConv, MatchesComposedChainBitwise) {
  const Graph g1 = TaskGraph(0);
  const Graph g2 = TaskGraph(1234);
  Rng rng(22);
  GatConv layer1(6, 32, &rng);
  GatConv layer2(32, 16, &rng);
  const Tensor x1 = Tensor::Randn({g1.num_nodes(), 6}, &rng, 1.0f, true);
  const Tensor x2 = Tensor::Randn({g2.num_nodes(), 6}, &rng, 1.0f, true);
  const Tensor r1 = Tensor::Randn({g1.num_nodes(), 16}, &rng);
  const Tensor r2 = Tensor::Randn({g2.num_nodes(), 16}, &rng);
  std::vector<Tensor> params = layer1.Parameters();
  for (const Tensor& p : layer2.Parameters()) params.push_back(p);
  ASSERT_EQ(params.size(), 8u);

  ForEachLevelAndThreadCount([&](const std::string& ctx) {
    layer1.ZeroGrad();
    layer2.ZeroGrad();
    Tensor a1 = x1.Clone(), a2 = x2.Clone();
    const auto fused = [&](const Graph& g, const Tensor& x) {
      return layer2.Forward(g, Relu(layer1.Forward(g, x)));
    };
    Tensor y1 = fused(g1, a1), y2 = fused(g2, a2);
    Add(Sum(Mul(y1, r1)), Sum(Mul(y2, r2))).Backward();

    std::vector<Tensor> q;
    for (const Tensor& p : params) q.push_back(p.Clone());
    Tensor b1 = x1.Clone(), b2 = x2.Clone();
    const auto composed = [&](const Graph& g, const Tensor& x) {
      Tensor z = Relu(oracle::ComposedGatConv(g, x, q[0], q[1], q[2], q[3]));
      return oracle::ComposedGatConv(g, z, q[4], q[5], q[6], q[7]);
    };
    Tensor w1 = composed(g1, b1), w2 = composed(g2, b2);
    Add(Sum(Mul(w1, r1)), Sum(Mul(w2, r2))).Backward();

    ExpectSameData(w1, y1, ctx + ": output on task 1");
    ExpectSameData(w2, y2, ctx + ": output on task 2");
    ExpectSameGrad(b1, a1, ctx + ": input on task 1");
    ExpectSameGrad(b2, a2, ctx + ": input on task 2");
    for (size_t i = 0; i < params.size(); ++i) {
      ExpectSameGrad(q[i], params[i], ctx + ": parameter " + std::to_string(i));
    }
  });
}

// The serve path encodes under NoGradGuard inside a WorkspaceScope: once
// the arena has grown, the op must not touch the heap. (One kernel thread,
// as servebench serves: a fan-out to the pool type-erases its chunk.)
TEST(GatAggregate, NoGradForwardAllocatesNothing) {
  set_num_threads(1);
  const Graph g = TaskGraph(0);
  const Graph::EdgeIndex& ei = g.AttentionEdges();
  Rng rng(23);
  const Tensor h = Tensor::Randn({g.num_nodes(), 32}, &rng, 1.0f, true);
  const Tensor as = Tensor::Randn({32, 1}, &rng, 1.0f, true);
  const Tensor ad = Tensor::Randn({32, 1}, &rng, 1.0f, true);
  NoGradGuard no_grad;
  {
    WorkspaceScope warm_up;  // the arena grows to its high-water mark
    const Tensor out = GatAggregate(h, as, ad, ei.src, ei.seg_ptr, 0.2f);
  }
  WorkspaceScope scope;
  testing::StartCountingNews();
  {
    const Tensor out = GatAggregate(h, as, ad, ei.src, ei.seg_ptr, 0.2f);
  }
  testing::StopCountingNews();
  EXPECT_EQ(testing::CountedNews(), 0) << "heap allocations in one forward";
}

}  // namespace
}  // namespace cgnp
