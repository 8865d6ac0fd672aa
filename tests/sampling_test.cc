#include "graph/sampling.h"

#include <set>

#include "data/synthetic.h"
#include "graph/algorithms.h"
#include "gtest/gtest.h"
#include "tests/task_oracles.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

TEST(BfsSample, ContainsSeedAndRespectsBudget) {
  Rng rng(1);
  Graph g = testing::CompleteGraph(20);
  const auto nodes = BfsSample(g, 5, 8, &rng);
  EXPECT_EQ(nodes.size(), 8u);
  EXPECT_EQ(nodes.front(), 5);
  std::set<NodeId> uniq(nodes.begin(), nodes.end());
  EXPECT_EQ(uniq.size(), nodes.size());
}

TEST(BfsSample, SampleIsConnected) {
  Rng rng(2);
  SyntheticConfig cfg;
  cfg.num_nodes = 500;
  cfg.num_communities = 5;
  Graph g = GenerateSyntheticGraph(cfg, &rng);
  const auto nodes = BfsSample(g, 0, 100, &rng);
  Graph sub = InducedSubgraph(g, nodes);
  // BFS order guarantees each node (after the seed) has an earlier neighbor.
  const auto cc = ConnectedComponents(sub);
  for (NodeId v = 0; v < sub.num_nodes(); ++v) EXPECT_EQ(cc[v], cc[0]);
}

TEST(BfsSample, StopsAtComponentBoundary) {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(4, 5);
  Graph g = b.Build();
  Rng rng(3);
  const auto nodes = BfsSample(g, 0, 10, &rng);
  EXPECT_EQ(nodes.size(), 3u);  // component of 0 is {0,1,2}
}

TEST(BfsSampleWithRestarts, CoversOtherComponents) {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(4, 5);
  Graph g = b.Build();
  Rng rng(4);
  const auto nodes = BfsSampleWithRestarts(g, 0, 6, &rng);
  EXPECT_EQ(nodes.size(), 6u);
}

TEST(BfsSample, DifferentRngsGiveDifferentSamples) {
  Rng gen_rng(5);
  SyntheticConfig cfg;
  cfg.num_nodes = 400;
  cfg.num_communities = 4;
  cfg.intra_degree = 12;
  Graph g = GenerateSyntheticGraph(cfg, &gen_rng);
  Rng a(10), b(11);
  const auto na = BfsSample(g, 0, 50, &a);
  const auto nb = BfsSample(g, 0, 50, &b);
  EXPECT_NE(na, nb);  // randomised expansion order
}

// The library's BFS against the deque-and-copy reference: same nodes in
// the same order, and the rng left where the reference leaves it (its next
// draw agrees), on connected, disconnected and attributed random graphs,
// from every kind of seed node, with budgets below, at and above the size
// of the seed's component.
TEST(BfsSample, MatchesReferenceOrderAndRngState) {
  int checked = 0;
  for (uint64_t gseed = 1; gseed <= 12; ++gseed) {
    testing::RandomGraphSpec spec;
    spec.n = 150 + static_cast<int64_t>(gseed) * 10;
    spec.edges = gseed % 3 == 0 ? spec.n / 2 : spec.n * 4;  // sparse: many
    spec.isolated_from = spec.n - 7;                       // components
    const Graph g = testing::RandomGraph(spec, gseed);
    for (int64_t max_nodes : {int64_t{1}, int64_t{2}, int64_t{17},
                              int64_t{60}, int64_t{200}, g.num_nodes(),
                              g.num_nodes() + 5}) {
      for (NodeId seed : {NodeId{0}, NodeId{5}, g.num_nodes() / 2,
                          g.num_nodes() - 1}) {  // the last one is isolated
        Rng a(gseed * 1000 + max_nodes), b(gseed * 1000 + max_nodes);
        const auto got = BfsSample(g, seed, max_nodes, &a);
        const auto want = oracle::BfsSample(g, seed, max_nodes, &b);
        ASSERT_EQ(got, want) << "graph " << gseed << " seed " << seed
                             << " max_nodes " << max_nodes;
        ASSERT_EQ(a.NextU64(), b.NextU64())
            << "rng diverged: graph " << gseed << " seed " << seed
            << " max_nodes " << max_nodes;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 12 * 7 * 4);
}

TEST(BfsSample, IsolatedSeedDrawsNothing) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  const Graph g = b.Build();
  Rng a(9), ref(9);
  EXPECT_EQ(BfsSample(g, 3, 200, &a), std::vector<NodeId>{3});
  EXPECT_EQ(a.NextU64(), ref.NextU64());
}

TEST(BfsSample, MatchesReferenceOnPlantedGraph) {
  // Dense enough that the budget fills long before the queue empties, so
  // most expansions take the draw-only path.
  Rng gen(31);
  SyntheticConfig cfg;
  cfg.num_nodes = 2000;
  cfg.num_communities = 10;
  cfg.intra_degree = 12;
  cfg.inter_degree = 1.5;
  const Graph g = GenerateSyntheticGraph(cfg, &gen);
  Rng a(77), b(77);
  for (int i = 0; i < 200; ++i) {
    const NodeId seed = a.NextInt(g.num_nodes());
    ASSERT_EQ(seed, oracle::NextInt(&b, g.num_nodes()));
    ASSERT_EQ(BfsSample(g, seed, 200, &a), oracle::BfsSample(g, seed, 200, &b))
        << "query " << i;
  }
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(BfsSampleWithRestarts, MatchesReferenceOrderAndRngState) {
  for (uint64_t gseed = 1; gseed <= 6; ++gseed) {
    testing::RandomGraphSpec spec;
    spec.n = 120;
    spec.edges = 70;  // many small components: restarts happen
    spec.isolated_from = 110;
    const Graph g = testing::RandomGraph(spec, gseed);
    for (int64_t max_nodes : {int64_t{1}, int64_t{30}, int64_t{90},
                              int64_t{120}, int64_t{500}}) {
      Rng a(gseed), b(gseed);
      ASSERT_EQ(BfsSampleWithRestarts(g, 3, max_nodes, &a),
                oracle::BfsSampleWithRestarts(g, 3, max_nodes, &b))
          << "graph " << gseed << " max_nodes " << max_nodes;
      ASSERT_EQ(a.NextU64(), b.NextU64());
    }
  }
}

}  // namespace
}  // namespace cgnp
