// Tests for the k-clique percolation and k-ECC community models (the two
// remaining community metrics from the paper's related work) and their
// CsMethod adapters.
#include <algorithm>
#include <set>

#include "cs/kclique_community.h"
#include "cs/kecc_community.h"
#include "data/synthetic.h"
#include "graph/mincut.h"
#include "gtest/gtest.h"
#include "meta/classical.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

using testing::CompleteGraph;
using testing::PathGraph;
using testing::TwoCliqueGraph;

bool Contains(const std::vector<NodeId>& v, NodeId x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

TEST(EnumerateKCliques, TrianglesOfK4) {
  Graph g = CompleteGraph(4);
  const auto tri = EnumerateKCliques(g, 3, 1000);
  EXPECT_EQ(tri.size(), 4u);  // C(4,3)
  const auto quad = EnumerateKCliques(g, 4, 1000);
  EXPECT_EQ(quad.size(), 1u);
  EXPECT_EQ(quad[0], (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_TRUE(EnumerateKCliques(g, 5, 1000).empty());
}

TEST(EnumerateKCliques, EdgesAreTwoCliques) {
  Graph g = PathGraph(4);
  const auto edges = EnumerateKCliques(g, 2, 1000);
  EXPECT_EQ(edges.size(), 3u);
  EXPECT_TRUE(EnumerateKCliques(g, 3, 1000).empty());
}

TEST(EnumerateKCliques, BudgetRespected) {
  Graph g = CompleteGraph(12);  // C(12,3) = 220 triangles
  const auto some = EnumerateKCliques(g, 3, 50);
  EXPECT_EQ(some.size(), 50u);
}

TEST(KCliqueCommunity, PercolationStopsAtBridge) {
  // Two K4s joined by one edge: 3-cliques percolate within each clique but
  // cannot cross the bridge (the bridge edge is in no triangle).
  Graph g = TwoCliqueGraph();
  const auto c = KCliqueCommunity(g, 0, {.k = 3, .max_cliques = 10000});
  EXPECT_EQ(c.size(), 4u);
  for (NodeId v : c) EXPECT_LT(v, 4);
}

TEST(KCliqueCommunity, TriangleChainPercolates) {
  // Chain of triangles sharing edges: (0,1,2), (1,2,3), (2,3,4) -- k=3
  // communities percolate through shared pairs.
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  b.AddEdge(2, 4);
  b.AddEdge(3, 4);
  Graph g = b.Build();
  const auto c = KCliqueCommunity(g, 0, {.k = 3, .max_cliques = 1000});
  EXPECT_EQ(c.size(), 5u);
}

TEST(KCliqueCommunity, NoCliqueMeansEmpty) {
  Graph g = PathGraph(5);
  EXPECT_TRUE(KCliqueCommunity(g, 2, {.k = 3, .max_cliques = 100}).empty());
}

TEST(KEcc, CompleteGraphIsNMinusOneConnected) {
  Graph g = CompleteGraph(5);
  const auto c = SteinerKEcc(g, 0, 4);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_TRUE(SteinerKEcc(g, 0, 5).empty());
}

TEST(KEcc, BridgeLimitsConnectivity) {
  Graph g = TwoCliqueGraph();
  // 1-ECC: whole graph (connected).
  EXPECT_EQ(SteinerKEcc(g, 0, 1).size(), 8u);
  // 2-ECC around node 0: the bridge caps pairwise connectivity across the
  // cliques at 1, so only the local K4 qualifies.
  const auto c2 = SteinerKEcc(g, 0, 2);
  EXPECT_EQ(c2.size(), 4u);
  for (NodeId v : c2) EXPECT_LT(v, 4);
  // 3-ECC: the K4 is 3-edge-connected.
  EXPECT_EQ(SteinerKEcc(g, 0, 3).size(), 4u);
  EXPECT_TRUE(SteinerKEcc(g, 0, 4).empty());
}

TEST(KEcc, MaximisedKReturnsTightCommunity) {
  Graph g = TwoCliqueGraph();
  const auto c = KEccCommunity(g, 5);  // k = -1: maximise
  EXPECT_TRUE(Contains(c, 5));
  EXPECT_EQ(c.size(), 4u);
  for (NodeId v : c) EXPECT_GE(v, 4);
}

TEST(KEcc, IsolatedNodeReturnsSelf) {
  GraphBuilder b(3);
  b.AddEdge(1, 2);
  Graph g = b.Build();
  EXPECT_EQ(KEccCommunity(g, 0), (std::vector<NodeId>{0}));
}

// Property: the returned subgraph really is k-edge-connected (verified by
// re-running min cut on it).
TEST(KEcc, ResultSatisfiesConnectivityOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    SyntheticConfig cfg;
    cfg.num_nodes = 80;
    cfg.num_communities = 4;
    cfg.intra_degree = 8;
    cfg.inter_degree = 1;
    Graph g = GenerateSyntheticGraph(cfg, &rng);
    const NodeId q = rng.NextInt(g.num_nodes());
    for (int64_t k = 2; k <= 3; ++k) {
      const auto members = SteinerKEcc(g, q, k);
      if (members.empty()) continue;
      EXPECT_TRUE(Contains(members, q));
      Graph sub = InducedSubgraph(g, members);
      const auto cut = GlobalMinCut(sub);
      EXPECT_GE(cut.cut_weight, k) << "seed " << seed << " k " << k;
    }
  }
}

TEST(CommunityModelAdapters, SatisfyMethodContract) {
  Rng rng(5);
  SyntheticConfig cfg;
  cfg.num_nodes = 400;
  cfg.num_communities = 5;
  cfg.intra_degree = 10;
  cfg.inter_degree = 1.5;
  Graph g = GenerateSyntheticGraph(cfg, &rng);
  TaskConfig tc;
  tc.subgraph_size = 60;
  tc.shots = 1;
  tc.query_set_size = 4;
  TaskSplit split = MakeSingleGraphTasks(g, TaskRegime::kSgsc, tc, 1, 0, 2, &rng);
  ASSERT_FALSE(split.test.empty());
  ClassicalMethod kclique = ClassicalMethod::KClique();
  ClassicalMethod kecc = ClassicalMethod::KEcc();
  for (CsMethod* m : std::vector<CsMethod*>{&kclique, &kecc}) {
    for (const auto& task : split.test) {
      const auto preds = m->PredictTask(task);
      ASSERT_EQ(preds.size(), task.query.size()) << m->name();
      for (size_t i = 0; i < preds.size(); ++i) {
        ASSERT_EQ(static_cast<int64_t>(preds[i].size()),
                  task.graph.num_nodes());
        // The query node itself is always predicted as a member.
        EXPECT_GE(preds[i][task.query[i].query], 1.0f) << m->name();
      }
    }
  }
}

}  // namespace
}  // namespace cgnp
