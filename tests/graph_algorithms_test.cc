#include "graph/algorithms.h"

#include <algorithm>

#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "tests/task_oracles.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

using testing::CompleteGraph;
using testing::PathGraph;
using testing::TwoCliqueGraph;

TEST(CoreNumbers, PathGraphIsOneCore) {
  Graph g = PathGraph(5);
  const auto core = CoreNumbers(g);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(core[v], 1);
}

TEST(CoreNumbers, CompleteGraph) {
  Graph g = CompleteGraph(6);
  const auto core = CoreNumbers(g);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(core[v], 5);
}

TEST(CoreNumbers, CliqueWithTail) {
  // K4 (0..3) with a tail 3-4-5.
  GraphBuilder b(6);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) b.AddEdge(i, j);
  }
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  Graph g = b.Build();
  const auto core = CoreNumbers(g);
  EXPECT_EQ(core[0], 3);
  EXPECT_EQ(core[3], 3);
  EXPECT_EQ(core[4], 1);
  EXPECT_EQ(core[5], 1);
}

// Property: every node of the k-core has degree >= k inside the k-core.
TEST(CoreNumbers, PeelingInvariantOnRandomGraph) {
  Rng rng(3);
  SyntheticConfig cfg;
  cfg.num_nodes = 300;
  cfg.num_communities = 5;
  Graph g = GenerateSyntheticGraph(cfg, &rng);
  const auto core = CoreNumbers(g);
  int64_t max_core = 0;
  for (int64_t c : core) max_core = std::max(max_core, c);
  for (int64_t k = 1; k <= max_core; ++k) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (core[v] < k) continue;
      int64_t deg_in_core = 0;
      for (NodeId u : g.Neighbors(v)) {
        if (core[u] >= k) ++deg_in_core;
      }
      EXPECT_GE(deg_in_core, k) << "node " << v << " at k=" << k;
    }
  }
}

TEST(ConnectedComponents, TwoComponents) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(3, 4);
  Graph g = b.Build();
  const auto cc = ConnectedComponents(g);
  EXPECT_EQ(cc[0], cc[1]);
  EXPECT_EQ(cc[3], cc[4]);
  EXPECT_NE(cc[0], cc[3]);
  EXPECT_NE(cc[2], cc[0]);
  EXPECT_NE(cc[2], cc[3]);
}

TEST(TriangleCounts, CompleteGraphHasChoose2) {
  Graph g = CompleteGraph(5);
  const auto tri = TriangleCounts(g);
  // Each node of K5 is in C(4,2) = 6 triangles.
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(tri[v], 6);
}

TEST(TriangleCounts, PathHasNone) {
  Graph g = PathGraph(6);
  for (int64_t t : TriangleCounts(g)) EXPECT_EQ(t, 0);
}

TEST(LocalClusteringCoefficients, BoundsAndKnownValues) {
  Graph g = TwoCliqueGraph();
  const auto lcc = LocalClusteringCoefficients(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(lcc[v], 0.0);
    EXPECT_LE(lcc[v], 1.0);
  }
  // Node 0: K4 interior, lcc = 1.
  EXPECT_DOUBLE_EQ(lcc[0], 1.0);
  // Node 3: neighbors {0,1,2,4}; edges among them: 3 (the K4 triangle) of 6.
  EXPECT_DOUBLE_EQ(lcc[3], 0.5);
}

TEST(LocalClusteringCoefficients, MatchesSortedMergeReference) {
  // The mark-array triangle count against the sorted-row merge: equal
  // counts, so bitwise-equal coefficients.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    testing::RandomGraphSpec spec;
    spec.n = 120;
    spec.edges = 150 * static_cast<int64_t>(seed);
    spec.isolated_from = 115;
    const Graph g = testing::RandomGraph(spec, seed);
    EXPECT_EQ(TriangleCounts(g), oracle::TriangleCounts(g)) << seed;
    EXPECT_EQ(LocalClusteringCoefficients(g),
              oracle::LocalClusteringCoefficients(g))
        << seed;
  }
}

TEST(EdgeList, MapsBothCsrDirections) {
  Graph g = PathGraph(3);
  const EdgeList el = BuildEdgeList(g);
  ASSERT_EQ(el.edges.size(), 2u);
  // Every CSR position maps to a valid edge; mirrored positions agree.
  for (NodeId v = 0; v < 3; ++v) {
    for (int64_t p = g.row_ptr()[v]; p < g.row_ptr()[v + 1]; ++p) {
      const int64_t e = el.edge_of_pos[p];
      ASSERT_GE(e, 0);
      const auto [a, bb] = el.edges[e];
      const NodeId u = g.col_idx()[p];
      EXPECT_TRUE((a == v && bb == u) || (a == u && bb == v));
    }
  }
}

TEST(TrussNumbers, CompleteGraphIsNTruss) {
  Graph g = CompleteGraph(5);
  const EdgeList el = BuildEdgeList(g);
  const auto truss = TrussNumbers(g, el);
  for (int64_t t : truss) EXPECT_EQ(t, 5);  // K5 is a 5-truss
}

TEST(TrussNumbers, PathEdgesAreTwoTruss) {
  Graph g = PathGraph(4);
  const EdgeList el = BuildEdgeList(g);
  for (int64_t t : TrussNumbers(g, el)) EXPECT_EQ(t, 2);
}

TEST(TrussNumbers, BridgeBetweenCliques) {
  Graph g = TwoCliqueGraph();
  const EdgeList el = BuildEdgeList(g);
  const auto truss = TrussNumbers(g, el);
  for (size_t e = 0; e < el.edges.size(); ++e) {
    const auto [u, v] = el.edges[e];
    if ((u == 3 && v == 4)) {
      EXPECT_EQ(truss[e], 2) << "bridge edge";
    } else {
      EXPECT_EQ(truss[e], 4) << "clique edge " << u << "-" << v;
    }
  }
}

// Property: within the k-truss subgraph, every edge has support >= k-2.
TEST(TrussNumbers, SupportInvariantOnRandomGraph) {
  Rng rng(7);
  SyntheticConfig cfg;
  cfg.num_nodes = 200;
  cfg.num_communities = 4;
  cfg.intra_degree = 12;
  Graph g = GenerateSyntheticGraph(cfg, &rng);
  const EdgeList el = BuildEdgeList(g);
  const auto truss = TrussNumbers(g, el);
  int64_t kmax = 2;
  for (int64_t t : truss) kmax = std::max(kmax, t);
  for (int64_t k = 3; k <= kmax; ++k) {
    // Edges in the k-truss.
    std::vector<char> in_truss(el.edges.size(), 0);
    for (size_t e = 0; e < el.edges.size(); ++e) in_truss[e] = truss[e] >= k;
    for (size_t e = 0; e < el.edges.size(); ++e) {
      if (!in_truss[e]) continue;
      const auto [u, v] = el.edges[e];
      // Count common neighbors w with both (u,w) and (v,w) in the truss.
      int64_t support = 0;
      for (NodeId w : g.Neighbors(u)) {
        if (w == v || !g.HasEdge(v, w)) continue;
        // Locate edge ids via positions.
        auto pos_of = [&](NodeId a, NodeId b) {
          auto nb = g.Neighbors(a);
          const auto it = std::lower_bound(nb.begin(), nb.end(), b);
          return g.row_ptr()[a] + (it - nb.begin());
        };
        const int64_t e1 = el.edge_of_pos[pos_of(u, w)];
        const int64_t e2 = el.edge_of_pos[pos_of(v, w)];
        if (in_truss[e1] && in_truss[e2]) ++support;
      }
      EXPECT_GE(support, k - 2) << "edge " << u << "-" << v << " at k=" << k;
    }
  }
}

TEST(BfsDistances, PathDistances) {
  Graph g = PathGraph(5);
  const auto d = BfsDistances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(BfsDistances, MaskBlocksTraversal) {
  Graph g = PathGraph(5);
  std::vector<char> mask = {1, 1, 0, 1, 1};  // node 2 removed
  const auto d = BfsDistances(g, 0, &mask);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[2], -1);
  EXPECT_EQ(d[3], -1);  // unreachable past the hole
}

TEST(ConnectedKCore, BridgedCliquesFormOneThreeCore) {
  // Both K4s survive 3-core peeling and the bridge (3-4) connects them, so
  // the connected 3-core around node 0 is the whole graph. This is exactly
  // the structural-inflexibility failure mode the paper's introduction
  // describes for k-core community models.
  Graph g = TwoCliqueGraph();
  const auto c = ConnectedKCoreContaining(g, 0, 3);
  EXPECT_EQ(c.size(), 8u);
  // k too large -> empty.
  EXPECT_TRUE(ConnectedKCoreContaining(g, 0, 4).empty());
}

TEST(ConnectedKCore, TailExcludedFromTwoCore) {
  // K4 with a pendant path: the 2-core drops the path.
  GraphBuilder b(6);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) b.AddEdge(i, j);
  }
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  Graph g = b.Build();
  const auto c = ConnectedKCoreContaining(g, 0, 2);
  EXPECT_EQ(c.size(), 4u);
  for (NodeId v : c) EXPECT_LT(v, 4);
}

TEST(ConnectedKTruss, SeparatesCliquesAtK4) {
  Graph g = TwoCliqueGraph();
  const auto c = ConnectedKTrussContaining(g, 0, 4);
  EXPECT_EQ(c.size(), 4u);
  for (NodeId v : c) EXPECT_LT(v, 4);
  // At k=2 the bridge is admissible and both cliques connect.
  const auto all = ConnectedKTrussContaining(g, 0, 2);
  EXPECT_EQ(all.size(), 8u);
}

TEST(MaxCoreAndTruss, QueryLocalValues) {
  Graph g = TwoCliqueGraph();
  EXPECT_EQ(MaxCoreOf(g, 0), 3);
  const EdgeList el = BuildEdgeList(g);
  const auto truss = TrussNumbers(g, el);
  EXPECT_EQ(MaxTrussOf(g, 0, el, truss), 4);
  EXPECT_EQ(MaxTrussOf(g, 3, el, truss), 4);
}

}  // namespace
}  // namespace cgnp
