// Google-benchmark microbenchmarks for the tensor/autograd substrate: the
// inner-loop operations every training step in the library is built from.
//
// The *ThreadSweep benchmarks pin the global kernel thread count per run
// (common/parallel.h) and use real time, so comparing the threads=1 and
// threads=N rows gives the intra-op speedup directly; all other benchmarks
// run serial (threads=1) so historical numbers stay comparable.
#include <benchmark/benchmark.h>

#include "bench/gbench_export.h"
#include "common/check.h"
#include "common/parallel.h"
#include "data/synthetic.h"
#include "graph/graph.h"
#include "graph/sampling.h"
#include "nn/gat_conv.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "tensor/optim.h"
#include "tensor/simd.h"
#include "tensor/workspace.h"

namespace cgnp {
namespace {

// Serial by default: each benchmark that wants parallel kernels sets the
// thread count itself and restores 1 on exit.
const int kForceSerialDefault = [] {
  set_num_threads(1);
  return 1;
}();

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulBackward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  Tensor a = Tensor::Randn({n, n}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({n, n}, &rng, 1.0f, /*requires_grad=*/true);
  for (auto _ : state) {
    Tensor loss = Sum(MatMul(a, b));
    loss.Backward();
    a.ZeroGrad();
    b.ZeroGrad();
  }
}
BENCHMARK(BM_MatMulBackward)->Arg(32)->Arg(64)->Arg(128);

void BM_SpMMChainGcnLayer(benchmark::State& state) {
  // A GCN layer's core: SpMM over a sparse graph then a dense projection.
  const int64_t n = state.range(0);
  GraphBuilder builder(n);
  Rng rng(3);
  for (int64_t v = 0; v < n; ++v) {
    for (int j = 0; j < 8; ++j) builder.AddEdge(v, rng.NextInt(n));
  }
  Graph g = builder.Build();
  Tensor x = Tensor::Randn({n, 64}, &rng);
  Tensor w = Tensor::Randn({64, 64}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(SpMM(g.GcnAdjacency(), x), w).data());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * 64);
}
BENCHMARK(BM_SpMMChainGcnLayer)->Arg(1000)->Arg(10000);

void BM_SegmentSoftmax(benchmark::State& state) {
  const int64_t n = state.range(0);
  GraphBuilder builder(n);
  Rng rng(4);
  for (int64_t v = 0; v < n; ++v) {
    for (int j = 0; j < 8; ++j) builder.AddEdge(v, rng.NextInt(n));
  }
  Graph g = builder.Build();
  const auto& ei = g.AttentionEdges();
  Tensor scores =
      Tensor::Randn({static_cast<int64_t>(ei.src.size()), 1}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SegmentSoftmax(scores, ei.seg_ptr).data());
  }
}
BENCHMARK(BM_SegmentSoftmax)->Arg(1000)->Arg(10000);

// A BFS task of `nodes` nodes from a graph shaped like the serving
// benchmark's (5,000 nodes, 25 planted communities, intra degree 12,
// inter 1.5): the graph one cgnp cache miss encodes.
Graph GatTaskGraph(int64_t nodes) {
  Rng rng(11);
  SyntheticConfig cfg;
  cfg.num_nodes = 5000;
  cfg.num_communities = 25;
  cfg.intra_degree = 12;
  cfg.inter_degree = 1.5;
  const Graph g = GenerateSyntheticGraph(cfg, &rng);
  return InducedSubgraph(g, BfsSample(g, 0, nodes, &rng));
}

// One GAT layer (hidden 32 -> 32, the encoder's width) on a 200-node
// task, as a cache miss runs it: no tape, intermediates in the arena.
void BM_GatLayer(benchmark::State& state) {
  const Graph g = GatTaskGraph(state.range(0));
  Rng rng(17);
  GatConv conv(32, 32, &rng);
  const Tensor x = Tensor::Randn({g.num_nodes(), 32}, &rng);
  const int64_t m = static_cast<int64_t>(g.AttentionEdges().src.size());
  NoGradGuard no_grad;
  for (auto _ : state) {
    WorkspaceScope workspace;
    benchmark::DoNotOptimize(conv.Forward(g, x).data());
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_GatLayer)->Arg(200);

// The same layer forward and backward, as a training step runs it (the
// input requires grad, as every layer after the first sees).
void BM_GatLayerBackward(benchmark::State& state) {
  const Graph g = GatTaskGraph(state.range(0));
  Rng rng(17);
  GatConv conv(32, 32, &rng);
  Tensor x = Tensor::Randn({g.num_nodes(), 32}, &rng, 1.0f,
                           /*requires_grad=*/true);
  const int64_t m = static_cast<int64_t>(g.AttentionEdges().src.size());
  for (auto _ : state) {
    Tensor loss = Sum(conv.Forward(g, x));
    loss.Backward();
    conv.ZeroGrad();
    x.ZeroGrad();
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_GatLayerBackward)->Arg(200);

// The large synthetic graph of docs/BENCHMARKS.md: 20k nodes, ~16 directed
// random edges per node, 64-dim features -- big enough that one SpMM is
// several hundred kParallelCutoff units of work.
Graph LargeSyntheticGraph() {
  const int64_t n = 20000;
  GraphBuilder builder(n);
  Rng rng(13);
  for (int64_t v = 0; v < n; ++v) {
    for (int j = 0; j < 16; ++j) builder.AddEdge(v, rng.NextInt(n));
  }
  return builder.Build();
}

void BM_SpMMThreadSweep(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Graph g = LargeSyntheticGraph();
  const SparseMatrix& a = g.GcnAdjacency();
  Rng rng(14);
  const int64_t d = 64;
  Tensor x = Tensor::Randn({a.cols(), d}, &rng);
  std::vector<float> y(a.rows() * d);
  set_num_threads(threads);
  for (auto _ : state) {
    a.Multiply(x.data(), d, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  set_num_threads(1);
  state.SetItemsProcessed(state.iterations() * a.nnz() * d);
  state.counters["threads"] = threads;
}
BENCHMARK(BM_SpMMThreadSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_SpMMBackwardThreadSweep(benchmark::State& state) {
  // Forward + backward through the tape: the mean adjacency is asymmetric,
  // so backward multiplies by the materialised A^T (also row-parallel).
  const int threads = static_cast<int>(state.range(0));
  Graph g = LargeSyntheticGraph();
  const SparseMatrix& a = g.MeanAdjacency();
  Rng rng(15);
  const int64_t d = 64;
  Tensor x = Tensor::Randn({a.cols(), d}, &rng, 1.0f, /*requires_grad=*/true);
  set_num_threads(threads);
  for (auto _ : state) {
    Tensor loss = Sum(SpMM(a, x));
    loss.Backward();
    x.ZeroGrad();
  }
  set_num_threads(1);
  state.SetItemsProcessed(state.iterations() * a.nnz() * d * 2);
  state.counters["threads"] = threads;
}
BENCHMARK(BM_SpMMBackwardThreadSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_MatMulThreadSweep(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  Rng rng(16);
  const int64_t n = 256;
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  set_num_threads(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).data());
  }
  set_num_threads(1);
  state.SetItemsProcessed(state.iterations() * n * n * n);
  state.counters["threads"] = threads;
}
BENCHMARK(BM_MatMulThreadSweep)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Observability hot path: one counter bump + one histogram record per
// iteration -- the per-request record cost the serving layer pays. Runs
// the loop body on N concurrent threads (benchmark ->Threads), so the
// sharded-atomic design shows up directly: per-op cost should stay flat
// as threads grow instead of collapsing onto one contended cache line.
void BM_ObsHotPathThreadSweep(benchmark::State& state) {
  static obs::Counter* counter =
      &obs::MetricsRegistry::Default().GetCounter("cgnp_bench_hot_total");
  static obs::Histogram* hist =
      &obs::MetricsRegistry::Default().GetHistogram("cgnp_bench_hot_ms");
  for (auto _ : state) {
    counter->Increment();
    hist->Record(0.42);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["threads"] =
      benchmark::Counter(state.threads(), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_ObsHotPathThreadSweep)
    ->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

// Same body with the runtime kill switch off: the record path reduces to
// a relaxed load + branch. The gap to the enabled rows is the entire
// runtime cost of observability (the compile-time CGNP_OBS=OFF path is
// cheaper still: the calls inline away to nothing).
void BM_ObsHotPathDisabledThreadSweep(benchmark::State& state) {
  static obs::Counter* counter =
      &obs::MetricsRegistry::Default().GetCounter("cgnp_bench_hot_total");
  static obs::Histogram* hist =
      &obs::MetricsRegistry::Default().GetHistogram("cgnp_bench_hot_ms");
  for (auto _ : state) {
    counter->Increment();
    hist->Record(0.42);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["threads"] =
      benchmark::Counter(state.threads(), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_ObsHotPathDisabledThreadSweep)
    ->Setup([](const benchmark::State&) { obs::SetEnabled(false); })
    ->Teardown([](const benchmark::State&) { obs::SetEnabled(true); })
    ->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

// --- SIMD dispatch sweep ----------------------------------------------------
//
// The *SimdSweep benchmarks force one dispatch level (tensor/simd.h) per
// row and run serial, so comparing rows gives the vectorization speedup on
// this host directly. Arg(i) indexes AvailableSimdLevels() -- always
// ascending with scalar first, so Arg(0) is the forced-scalar baseline and
// the last row is the widest level the host supports. Each row labels
// itself with the level name and exports it as the simd_level counter;
// tools/run_bench_tier.sh ships these rows to CI, which diffs them against
// bench/baselines/ and asserts the native/scalar ratio advisorily.

void SimdSweepArgs(benchmark::internal::Benchmark* b) {
  const auto levels = simd::AvailableSimdLevels();
  for (size_t i = 0; i < levels.size(); ++i) {
    b->Arg(static_cast<int64_t>(i));
  }
}

// Forces the dispatch level for one benchmark run, restoring the previous
// level (and the serial thread count other rows expect) on destruction.
class SimdLevelForcer {
 public:
  explicit SimdLevelForcer(benchmark::State& state)
      : prev_(simd::ActiveSimdLevel()) {
    const auto levels = simd::AvailableSimdLevels();
    level_ = levels[static_cast<size_t>(state.range(0))];
    CGNP_CHECK(simd::SetSimdLevel(level_).ok());
    state.SetLabel(simd::SimdLevelName(level_));
    state.counters["simd_level"] = static_cast<double>(level_);
  }
  ~SimdLevelForcer() { CGNP_CHECK(simd::SetSimdLevel(prev_).ok()); }

  simd::SimdLevel level() const { return level_; }

 private:
  simd::SimdLevel prev_;
  simd::SimdLevel level_;
};

void BM_MatMulSimdSweep(benchmark::State& state) {
  SimdLevelForcer forcer(state);
  Rng rng(21);
  const int64_t n = 256;
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulSimdSweep)->Apply(SimdSweepArgs);

void BM_SpMMSimdSweep(benchmark::State& state) {
  SimdLevelForcer forcer(state);
  Graph g = LargeSyntheticGraph();
  const SparseMatrix& a = g.GcnAdjacency();
  Rng rng(22);
  const int64_t d = 64;
  Tensor x = Tensor::Randn({a.cols(), d}, &rng);
  std::vector<float> y(a.rows() * d);
  for (auto _ : state) {
    a.Multiply(x.data(), d, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * d);
}
BENCHMARK(BM_SpMMSimdSweep)->Apply(SimdSweepArgs);

void BM_SoftmaxSimdSweep(benchmark::State& state) {
  // Row softmax over attention-logit-shaped data: max + exp_sum + scale
  // kernels back to back, the reduction-heavy end of the dispatch table.
  SimdLevelForcer forcer(state);
  Rng rng(23);
  Tensor scores = Tensor::Randn({4096, 64}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(scores).data());
  }
  state.SetItemsProcessed(state.iterations() * 4096 * 64);
}
BENCHMARK(BM_SoftmaxSimdSweep)->Apply(SimdSweepArgs);

void BM_AdamStep(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5);
  Tensor p = Tensor::Randn({n, n}, &rng, 1.0f, /*requires_grad=*/true);
  p.mutable_grad().assign(n * n, 0.01f);
  Adam opt({p}, 1e-3f);
  for (auto _ : state) {
    opt.Step();
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_AdamStep)->Arg(64)->Arg(256);

void BM_BceWithLogits(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(6);
  Tensor logits = Tensor::Randn({n, 1}, &rng);
  std::vector<float> targets(n, 1.0f), mask(n, 1.0f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BceWithLogits(logits, targets, mask).Item());
  }
}
BENCHMARK(BM_BceWithLogits)->Arg(1000)->Arg(100000);

}  // namespace
}  // namespace cgnp

int main(int argc, char** argv) {
  return cgnp::bench::RunMicroSuite(argc, argv, "micro_tensor");
}
