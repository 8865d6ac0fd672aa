// Google-benchmark microbenchmarks for the graph substrate: decomposition
// and sampling primitives used by the classical baselines and the task
// generators.
#include <benchmark/benchmark.h>

#include "bench/gbench_export.h"
#include "common/parallel.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "data/tasks.h"
#include "graph/algorithms.h"
#include "graph/sampling.h"

namespace cgnp {
namespace {

// Serial by default so historical numbers stay comparable; the thread-sweep
// benchmark sets its own count and restores 1 on exit.
const int kForceSerialDefault = [] {
  set_num_threads(1);
  return 1;
}();

Graph MakeGraph(int64_t n, double degree = 10.0) {
  Rng rng(42);
  SyntheticConfig cfg;
  cfg.num_nodes = n;
  cfg.num_communities = std::max<int64_t>(2, n / 100);
  cfg.intra_degree = degree * 0.8;
  cfg.inter_degree = degree * 0.2;
  return GenerateSyntheticGraph(cfg, &rng);
}

void BM_CoreDecomposition(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CoreNumbers(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_CoreDecomposition)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_TrussDecomposition(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  const EdgeList el = BuildEdgeList(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TrussNumbers(g, el));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_TrussDecomposition)->Arg(1000)->Arg(10000);

void BM_ClusteringCoefficients(benchmark::State& state) {
  Graph g = MakeGraph(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LocalClusteringCoefficients(g));
  }
}
BENCHMARK(BM_ClusteringCoefficients)->Arg(1000)->Arg(10000);

void BM_BfsSample(benchmark::State& state) {
  Graph g = MakeGraph(10000);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BfsSample(g, rng.NextInt(g.num_nodes()),
                                       state.range(0), &rng));
  }
}
BENCHMARK(BM_BfsSample)->Arg(200)->Arg(2000);

void BM_InducedSubgraph(benchmark::State& state) {
  Graph g = MakeGraph(10000);
  Rng rng(8);
  const auto nodes = BfsSample(g, 0, state.range(0), &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(InducedSubgraph(g, nodes).num_edges());
  }
}
BENCHMARK(BM_InducedSubgraph)->Arg(200)->Arg(2000);

// The serving benchmark's graph shape: 5,000 nodes in 25 planted
// communities, intra degree 12, inter 1.5, 3 of 16 attributes per node.
Graph ServingShapedGraph() {
  Rng rng(11);
  SyntheticConfig cfg;
  cfg.num_nodes = 5000;
  cfg.num_communities = 25;
  cfg.intra_degree = 12;
  cfg.inter_degree = 1.5;
  cfg.attribute_dim = 16;
  cfg.attrs_per_node = 3;
  cfg.attrs_per_community_pool = 5;
  cfg.attr_affinity = 0.9;
  return GenerateSyntheticGraph(cfg, &rng);
}

// One cgnp query's task: 200-node BFS sample, induced CSR, Section VII-A
// features, zero-shot support. Cycles through 64 query nodes.
void BM_BuildQueryTask(benchmark::State& state) {
  const Graph g = ServingShapedGraph();
  const int64_t attr_dim = AttributeDim(g);
  TaskConfig tasks;
  tasks.subgraph_size = state.range(0);
  NodeId q = 0;
  for (auto _ : state) {
    auto task = BuildQueryTask(g, q, {}, tasks, attr_dim, /*seed=*/7);
    benchmark::DoNotOptimize(task.value().graph.num_edges());
    q = (q + 79) % 64;
  }
}
BENCHMARK(BM_BuildQueryTask)->Arg(200);

// Clustering coefficients of one 200-node task subgraph, the largest part
// of the feature attach.
void BM_LocalClusteringCoefficients(benchmark::State& state) {
  const Graph g = ServingShapedGraph();
  Rng rng(13);
  const Graph sub = InducedSubgraph(g, BfsSample(g, 0, state.range(0), &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(LocalClusteringCoefficients(sub));
  }
}
BENCHMARK(BM_LocalClusteringCoefficients)->Arg(200);

void BM_GraphBuildThreadSweep(benchmark::State& state) {
  // CSR construction (count + scatter + per-node sort/dedup + compaction)
  // from a messy edge list with duplicates and self loops; the per-node
  // sort phase is the parallel part (common/parallel.h).
  const int threads = static_cast<int>(state.range(0));
  const int64_t n = 50000;
  Rng rng(21);
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(n * 12);
  for (int64_t i = 0; i < n * 12; ++i) {
    edges.emplace_back(rng.NextInt(n), rng.NextInt(n));
  }
  set_num_threads(threads);
  for (auto _ : state) {
    GraphBuilder b(n);
    for (auto [u, v] : edges) b.AddEdge(u, v);
    benchmark::DoNotOptimize(b.Build().num_edges());
  }
  set_num_threads(1);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(edges.size()));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_GraphBuildThreadSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_SyntheticGeneration(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(9);
    benchmark::DoNotOptimize(MakeGraph(state.range(0)).num_edges());
  }
}
BENCHMARK(BM_SyntheticGeneration)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace cgnp

int main(int argc, char** argv) {
  return cgnp::bench::RunMicroSuite(argc, argv, "micro_graph");
}
