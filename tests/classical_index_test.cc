// The per-graph structural decomposition (graph/decomposition.h) against
// the batch algorithms it replaced on the serving path:
//   * the cached core / truss numbers equal a fresh batch computation, and
//     searches over them equal the edge-list path they replaced;
//   * the registry adapters (which read the cache) answer exactly what the
//     batch community functions answer -- members and order -- for every
//     node and a spread of k, on graphs with and without triangles,
//     isolated nodes, and a mapped backing;
//   * CTC and ATC answer what their reference bodies
//     (tests/classical_oracles.h) answer, members and order;
//   * concurrent first use builds each part once and every thread sees
//     the same answers;
//   * graph copies share a built decomposition, assignment and
//     InducedSubgraph never carry a stale one, and a k-core query never
//     builds the truss part.
#include "graph/decomposition.h"

#include <algorithm>
#include <barrier>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cs/atc.h"
#include "cs/ctc.h"
#include "cs/kcore_community.h"
#include "cs/kecc_community.h"
#include "cs/ktruss_community.h"
#include "cs/searcher.h"
#include "data/synthetic.h"
#include "graph/algorithms.h"
#include "graph/format.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "tensor/rng.h"
#include "tests/classical_oracles.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

// The build counters only count when the obs record path is compiled in.
constexpr bool kCountsBuilds = CGNP_OBS_ENABLED;

uint64_t Builds(const char* part) {
  return obs::MetricsRegistry::Default()
      .GetCounter("cgnp_graph_decomposition_builds_total", {{"part", part}})
      .Value();
}

uint64_t BuildTimings(const char* part) {
  return obs::MetricsRegistry::Default()
      .GetHistogram("cgnp_graph_decomposition_build_ms", {{"part", part}})
      .Snapshot()
      .count;
}

// Communities of 15 nodes. The differential test keeps it small: k-ECC
// runs a min-cut recursion per query.
Graph PlantedPartition(uint64_t seed, int64_t num_nodes = 60) {
  SyntheticConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.num_communities = num_nodes / 15;
  cfg.intra_degree = 7.0;
  cfg.inter_degree = 1.0;
  cfg.attribute_dim = 8;
  Rng rng(seed);
  return GenerateSyntheticGraph(cfg, &rng);
}

// Random bipartite graph: no triangles, so every edge has truss number 2.
Graph TriangleFree(uint64_t seed) {
  const int64_t side = 20;
  Rng rng(seed);
  GraphBuilder b(2 * side);
  for (int64_t e = 0; e < 70; ++e) {
    b.AddEdge(rng.NextInt(side), side + rng.NextInt(side));
  }
  return b.Build();
}

// K5, K4, K3 and K2 side by side.
Graph DisjointCliques() {
  GraphBuilder b(14);
  int64_t first = 0;
  for (const int64_t size : {5, 4, 3, 2}) {
    for (int64_t i = 0; i < size; ++i) {
      for (int64_t j = i + 1; j < size; ++j) b.AddEdge(first + i, first + j);
    }
    first += size;
  }
  return b.Build();
}

// A triangle, a diamond, a pendant node and five isolated nodes.
Graph WithIsolatedNodes() {
  GraphBuilder b(13);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  b.AddEdge(5, 6);
  b.AddEdge(6, 3);
  b.AddEdge(3, 5);
  b.AddEdge(6, 7);
  return b.Build();
}

Graph MappedCopy(const Graph& g, const char* file) {
  const std::string path = ::testing::TempDir() + file;
  const Status saved = SaveGraphBinary(g, path);
  EXPECT_TRUE(saved.ok()) << saved;
  StatusOr<Graph> mapped = MapGraphBinary(path);
  EXPECT_TRUE(mapped.ok()) << mapped.status();
  EXPECT_EQ(mapped->backing(), GraphBacking::kMapped);
  return std::move(mapped).value();
}

struct Fixture {
  std::string name;
  Graph graph;
};

std::vector<Fixture> Fixtures() {
  std::vector<Fixture> out;
  out.push_back({"planted", PlantedPartition(3)});
  out.push_back({"triangle_free", TriangleFree(4)});
  out.push_back({"cliques", DisjointCliques()});
  out.push_back({"isolated", WithIsolatedNodes()});
  out.push_back({"mapped", MappedCopy(out[0].graph, "classical_index.cgrf")});
  return out;
}

const char* const kBackends[] = {"kcore", "ktruss", "ctc", "kecc"};

// The batch oracle behind each registry adapter.
std::vector<NodeId> Batch(const std::string& backend, const Graph& g,
                          NodeId q, int64_t k) {
  if (backend == "kcore") return KCoreCommunity(g, q, k);
  if (backend == "ktruss") return KTrussCommunity(g, q, k);
  if (backend == "ctc") {
    CtcConfig config;
    config.k = k;
    return ClosestTrussCommunity(g, q, config);
  }
  KEccConfig config;
  config.k = k;
  return KEccCommunity(g, q, config);
}

std::unique_ptr<CommunitySearcher> Adapter(const std::string& backend,
                                           int64_t k) {
  SearcherConfig config;
  config.k = k;
  StatusOr<std::unique_ptr<CommunitySearcher>> searcher =
      MakeSearcher(backend, config);
  EXPECT_TRUE(searcher.ok()) << searcher.status();
  return std::move(searcher).value();
}

std::vector<NodeId> Served(const CommunitySearcher& searcher, const Graph& g,
                           NodeId q) {
  StatusOr<QueryResult> result = searcher.Search(g, q, {}, {});
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? result->members : std::vector<NodeId>{-1};
}

int64_t MaxDegree(const Graph& g) {
  int64_t best = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    best = std::max(best, g.Degree(v));
  }
  return best;
}

TEST(ClassicalIndex, CachedDecompositionEqualsBatchNumbers) {
  for (const Fixture& f : Fixtures()) {
    const Graph& g = f.graph;
    const std::vector<int64_t> core = CoreNumbers(g);
    const std::vector<int32_t>& cached_core = g.Cores().core;
    ASSERT_EQ(cached_core.size(), core.size()) << f.name;
    for (size_t v = 0; v < core.size(); ++v) {
      EXPECT_EQ(cached_core[v], core[v]) << f.name << " node " << v;
    }
    const EdgeList el = BuildEdgeList(g);
    const std::vector<int64_t> truss = TrussNumbers(g, el);
    const std::vector<int32_t>& cached_truss = g.Trusses().truss;
    ASSERT_EQ(cached_truss.size(), g.col_idx().size()) << f.name;
    for (size_t p = 0; p < cached_truss.size(); ++p) {
      EXPECT_EQ(cached_truss[p], truss[el.edge_of_pos[p]])
          << f.name << " slot " << p;
    }
    for (NodeId q = 0; q < g.num_nodes(); ++q) {
      EXPECT_EQ(MaxTrussOf(g, q, g.Trusses()), MaxTrussOf(g, q, el, truss))
          << f.name << " q " << q;
    }
  }
}

// The whole-graph search as it ran before the decomposition existed: core
// numbers masked into a BFS, and a BFS over the edge-list truss numbers.
// Independent of the decomposition overloads the batch functions now share
// with the adapters.
std::vector<NodeId> ReferenceKCore(const Graph& g, NodeId q, int64_t k) {
  const std::vector<int64_t> core = CoreNumbers(g);
  if (core[q] < k) return {};
  std::vector<char> keep(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) keep[v] = core[v] >= k;
  const std::vector<int64_t> dist = BfsDistances(g, q, &keep);
  std::vector<NodeId> out;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist[v] >= 0) out.push_back(v);
  }
  return out;
}

std::vector<NodeId> ReferenceKTruss(const Graph& g, NodeId q, int64_t k) {
  const EdgeList el = BuildEdgeList(g);
  const std::vector<int64_t> truss = TrussNumbers(g, el);
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> out = {q};
  seen[q] = 1;
  bool q_has_edge = false;
  for (size_t i = 0; i < out.size(); ++i) {
    const NodeId v = out[i];
    for (int64_t p = g.row_ptr()[v]; p < g.row_ptr()[v + 1]; ++p) {
      if (truss[el.edge_of_pos[p]] < k) continue;
      if (v == q) q_has_edge = true;
      const NodeId u = g.col_idx()[p];
      if (!seen[u]) {
        seen[u] = 1;
        out.push_back(u);
      }
    }
  }
  if (!q_has_edge && k > 2) return {};
  return out;
}

TEST(ClassicalIndex, DecompositionSearchesEqualTheEdgeListPath) {
  for (const Fixture& f : Fixtures()) {
    const Graph& g = f.graph;
    for (int64_t k = 0; k <= MaxDegree(g) + 2; ++k) {
      for (NodeId q = 0; q < g.num_nodes(); ++q) {
        ASSERT_EQ(ConnectedKCoreContaining(g, q, k, g.Cores()),
                  ReferenceKCore(g, q, k))
            << f.name << " q=" << q << " k=" << k;
        ASSERT_EQ(ConnectedKTrussContaining(g, q, k, g.Trusses()),
                  ReferenceKTruss(g, q, k))
            << f.name << " q=" << q << " k=" << k;
      }
    }
  }
}

TEST(ClassicalIndex, AdaptersEqualBatchFunctionsForEveryNodeAndK) {
  for (const Fixture& f : Fixtures()) {
    const Graph& g = f.graph;
    const int64_t beyond = MaxDegree(g) + 2;  // above every core / truss
    for (const int64_t k : {int64_t{-1}, int64_t{0}, int64_t{1}, int64_t{2},
                            int64_t{3}, beyond}) {
      for (const std::string backend : kBackends) {
        const auto searcher = Adapter(backend, k);
        for (NodeId q = 0; q < g.num_nodes(); ++q) {
          ASSERT_EQ(Served(*searcher, g, q), Batch(backend, g, q, k))
              << f.name << " " << backend << " q=" << q << " k=" << k;
        }
      }
    }
  }
}

TEST(ClassicalIndex, CtcAndAtcMatchTheirOracles) {
  for (const Fixture& f : Fixtures()) {
    const Graph& g = f.graph;
    const TrussDecomposition fresh = ComputeTrussDecomposition(g);
    for (const int64_t k :
         {int64_t{-1}, int64_t{2}, int64_t{3}, MaxDegree(g) + 2}) {
      CtcConfig ctc;
      ctc.k = k;
      AtcConfig atc;
      atc.k = k;
      for (NodeId q = 0; q < g.num_nodes(); ++q) {
        const std::string where =
            f.name + " q=" + std::to_string(q) + " k=" + std::to_string(k);
        ASSERT_EQ(ClosestTrussCommunity(g, q, ctc),
                  oracle::ClosestTrussCommunity(g, q, ctc, fresh))
            << where;
        ASSERT_EQ(ClosestTrussCommunity(g, q, ctc, g.Trusses()),
                  oracle::ClosestTrussCommunity(g, q, ctc, g.Trusses()))
            << where;
        ASSERT_EQ(AttributedTrussCommunity(g, q, atc),
                  oracle::AttributedTrussCommunity(g, q, atc))
            << where;
      }
    }
  }
}

TEST(ClassicalIndex, ConcurrentFirstUseBuildsEachPartOnce) {
  const Graph g = PlantedPartition(11, /*num_nodes=*/120);
  const std::vector<std::string> backends = {"kcore", "ktruss", "ctc"};
  // The batch functions build their own decompositions, leaving g's
  // cache untouched for the threads to race on.
  std::vector<std::vector<std::vector<NodeId>>> expected(backends.size());
  for (size_t b = 0; b < backends.size(); ++b) {
    for (NodeId q = 0; q < g.num_nodes(); ++q) {
      expected[b].push_back(Batch(backends[b], g, q, -1));
    }
  }
  const uint64_t core_builds = Builds("core");
  const uint64_t truss_builds = Builds("truss");

  constexpr int kThreads = 8;
  std::barrier start(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<const CoreDecomposition*> cores(kThreads);
  std::vector<const TrussDecomposition*> trusses(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::unique_ptr<CommunitySearcher>> searchers;
      for (const std::string& backend : backends) {
        searchers.push_back(Adapter(backend, -1));
      }
      start.arrive_and_wait();
      // Threads start on different backends and queries, so the first
      // calls race on both parts at once.
      for (size_t i = 0; i < backends.size(); ++i) {
        const size_t b = (i + static_cast<size_t>(t)) % backends.size();
        for (NodeId j = 0; j < g.num_nodes(); ++j) {
          const NodeId q = (j + 17 * t) % g.num_nodes();
          if (Served(*searchers[b], g, q) != expected[b][q]) ++mismatches[t];
        }
      }
      cores[t] = &g.Cores();
      trusses[t] = &g.Trusses();
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    EXPECT_EQ(cores[t], cores[0]) << "thread " << t;
    EXPECT_EQ(trusses[t], trusses[0]) << "thread " << t;
  }
  if (kCountsBuilds) {
    EXPECT_EQ(Builds("core") - core_builds, 1u);
    EXPECT_EQ(Builds("truss") - truss_builds, 1u);
  }
}

TEST(ClassicalIndex, CopiesShareABuiltDecomposition) {
  Graph g = PlantedPartition(5);
  const Graph copied_before_build = g;
  const CoreDecomposition& cores = g.Cores();
  const uint64_t builds = Builds("core");

  const Graph copied_after_build = g;
  EXPECT_EQ(&copied_after_build.Cores(), &cores);
  const Graph moved = std::move(g);
  EXPECT_EQ(&moved.Cores(), &cores);
  if (kCountsBuilds) {
    EXPECT_EQ(Builds("core"), builds);
  }

  // A copy taken before the build builds its own, with the same numbers.
  EXPECT_NE(&copied_before_build.Cores(), &cores);
  EXPECT_EQ(copied_before_build.Cores().core, cores.core);
  if (kCountsBuilds) {
    EXPECT_EQ(Builds("core"), builds + 1);
  }
}

TEST(ClassicalIndex, AssignmentNeverKeepsAStaleDecomposition) {
  Graph g = testing::CompleteGraph(5);
  ASSERT_EQ(g.Cores().core, std::vector<int32_t>(5, 4));
  ASSERT_EQ(g.Trusses().truss, std::vector<int32_t>(20, 5));

  g = testing::PathGraph(3);  // unbuilt source: g must rebuild
  EXPECT_EQ(g.Cores().core, std::vector<int32_t>(3, 1));
  EXPECT_EQ(g.Trusses().truss, std::vector<int32_t>(4, 2));
  EXPECT_EQ(KCoreCommunity(g, 0, -1, g.Cores()), KCoreCommunity(g, 0));

  const Graph built = DisjointCliques();
  const CoreDecomposition& cores = built.Cores();
  g = built;  // built source: g shares it
  EXPECT_EQ(&g.Cores(), &cores);
}

TEST(ClassicalIndex, InducedSubgraphsGetTheirOwnDecomposition) {
  const Graph g = PlantedPartition(6);
  ASSERT_FALSE(g.Cores().core.empty());
  ASSERT_FALSE(g.Trusses().truss.empty());
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < g.num_nodes(); v += 2) nodes.push_back(v);
  const Graph sub = InducedSubgraph(g, nodes);
  EXPECT_EQ(sub.Cores().core, ComputeCoreDecomposition(sub).core);
  EXPECT_EQ(sub.Trusses().truss, ComputeTrussDecomposition(sub).truss);
  for (const std::string backend : kBackends) {
    const auto searcher = Adapter(backend, -1);
    for (NodeId q = 0; q < sub.num_nodes(); ++q) {
      ASSERT_EQ(Served(*searcher, sub, q), Batch(backend, sub, q, -1))
          << backend << " q=" << q;
    }
  }
}

TEST(ClassicalIndex, CoreQueriesNeverBuildTheTrussPart) {
  const Graph g = PlantedPartition(9);
  const uint64_t core_builds = Builds("core");
  const uint64_t core_timings = BuildTimings("core");
  const uint64_t truss_builds = Builds("truss");
  // Backends that read no decomposition (attributed search, cliques) and
  // the core-only ones.
  for (const char* backend : {"acq", "atc", "kclique", "kcore", "kecc"}) {
    const auto searcher = Adapter(backend, -1);
    for (NodeId q = 0; q < g.num_nodes(); q += 7) Served(*searcher, g, q);
  }
  if (kCountsBuilds) {
    EXPECT_EQ(Builds("core") - core_builds, 1u);
    EXPECT_EQ(BuildTimings("core") - core_timings, 1u);
    EXPECT_EQ(Builds("truss"), truss_builds);
  }
}

}  // namespace
}  // namespace cgnp
