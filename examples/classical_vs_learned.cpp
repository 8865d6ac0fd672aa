// Side-by-side comparison of every community-search approach in the
// library on one attributed graph, in two acts:
//
//   1. The v1 backend registry: one loop over registry *names* --
//      "cgnp" (restored from a checkpoint) and the seven classical
//      algorithms -- all answering the same queries through the uniform
//      CommunitySearcher interface. Switching backends is a string.
//   2. The paper's headline comparison (Tables II-III shape): the three
//      classical attributed algorithms (ATC, ACQ, CTC), the structural
//      baselines, and the three CGNP variants evaluated on sampled tasks.
#include <cstdio>
#include <cstdlib>

#include "core/cgnp.h"
#include "core/engine.h"
#include "cs/searcher.h"
#include "data/profiles.h"
#include "data/tasks.h"
#include "meta/classical.h"

using namespace cgnp;

namespace {

double F1Of(const Graph& g, NodeId q, const std::vector<NodeId>& members) {
  const int64_t c = g.CommunityOf(q);
  std::vector<char> in_set(g.num_nodes(), 0);
  for (NodeId v : members) in_set[v] = 1;
  int64_t tp = 0, fp = 0, fn = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == q) continue;
    const bool truth = g.CommunityOf(v) == c;
    if (in_set[v] && truth) ++tp;
    if (in_set[v] && !truth) ++fp;
    if (!in_set[v] && truth) ++fn;
  }
  const double p =
      tp + fp > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fp) : 0;
  const double r =
      tp + fn > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fn) : 0;
  return p + r > 0 ? 2 * p * r / (p + r) : 0;
}

}  // namespace

int main() {
  Rng rng(31);
  const Graph g = MakeDataset(CiteseerProfile(), &rng)[0];
  std::printf("Citeseer-like graph: %lld nodes, %lld edges, "
              "%lld topic communities, attributed\n",
              (long long)g.num_nodes(), (long long)g.num_edges(),
              (long long)g.num_communities());

  // ---- Act 1: every backend through the registry, selected by name. ------
  // Train a small CGNP engine and checkpoint it so the learned backend is
  // constructible from a string + config, exactly like the classical ones.
  CgnpConfig quick_cfg;
  quick_cfg.encoder = GnnKind::kGcn;
  quick_cfg.hidden_dim = 32;
  quick_cfg.num_layers = 2;
  quick_cfg.epochs = 10;
  quick_cfg.lr = 2e-3f;
  TaskConfig quick_tasks;
  quick_tasks.subgraph_size = 100;
  quick_tasks.shots = 3;
  auto built = EngineBuilder()
                   .WithModel(quick_cfg)
                   .WithTasks(quick_tasks)
                   .WithTrainTasks(10)
                   .WithSeed(33)
                   .Build();
  if (!built.ok()) {
    std::fprintf(stderr, "engine config rejected: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::printf("\nmeta-training the cgnp backend...\n");
  if (const Status fitted = built->Fit(g); !fitted.ok()) {
    std::fprintf(stderr, "Fit failed: %s\n", fitted.ToString().c_str());
    return 1;
  }
  const char* ckpt = "classical_vs_learned.ckpt";
  if (const Status saved = built->SaveCheckpoint(ckpt); !saved.ok()) {
    std::fprintf(stderr, "checkpoint save failed: %s\n",
                 saved.ToString().c_str());
    return 1;
  }

  const NodeId query = 42;
  std::printf("\ncommunity of node %lld, per registry backend:\n",
              (long long)query);
  std::printf("%-10s %10s %8s %10s\n", "backend", "members", "F1",
              "time_ms");
  SearcherConfig searcher_cfg;
  searcher_cfg.checkpoint = ckpt;  // consumed by "cgnp", ignored by the rest
  for (const std::string& name : RegisteredSearcherNames()) {
    auto searcher = MakeSearcher(name, searcher_cfg);
    if (!searcher.ok()) {
      std::printf("%-10s construction failed: %s\n", name.c_str(),
                  searcher.status().ToString().c_str());
      continue;
    }
    const auto result = (*searcher)->Search(g, query, {}, {});
    if (!result.ok()) {
      std::printf("%-10s %s\n", name.c_str(),
                  result.status().ToString().c_str());
      continue;
    }
    std::printf("%-10s %10zu %8.4f %10.2f\n", result->backend.c_str(),
                result->members.size(), F1Of(g, query, result->members),
                result->elapsed_ms);
  }
  std::remove(ckpt);

  // An unknown name is an error value, not an abort -- the registry lists
  // the alternatives.
  const auto typo = MakeSearcher("k-core");
  std::printf("\nMakeSearcher(\"k-core\") -> %s\n",
              typo.status().ToString().c_str());

  // ---- Act 2: the paper's task-level evaluation. --------------------------
  TaskConfig tc;
  tc.subgraph_size = 100;
  tc.shots = 3;
  tc.query_set_size = 8;
  Rng task_rng(32);
  const TaskSplit split =
      MakeSingleGraphTasks(g, TaskRegime::kSgsc, tc, 12, 2, 4, &task_rng);
  std::printf("\n%zu training tasks, %zu test tasks, 3-shot\n\n",
              split.train.size(), split.test.size());

  std::printf("%-10s %8s %8s %8s %8s\n", "Method", "Acc", "Pre", "Rec", "F1");

  auto run = [&](CsMethod* method) {
    method->MetaTrain(split.train);
    const EvalStats s = EvaluateMethod(method, split.test);
    std::printf("%-10s %8.4f %8.4f %8.4f %8.4f\n", method->name().c_str(),
                s.accuracy, s.precision, s.recall, s.f1);
  };

  for (ClassicalMethod method :
       {ClassicalMethod::Atc(), ClassicalMethod::Acq(), ClassicalMethod::Ctc(),
        ClassicalMethod::KCore(), ClassicalMethod::KTruss(),
        ClassicalMethod::KClique(), ClassicalMethod::KEcc()}) {
    run(&method);
  }

  for (DecoderKind d :
       {DecoderKind::kInnerProduct, DecoderKind::kMlp, DecoderKind::kGnn}) {
    CgnpConfig cfg;
    cfg.encoder = GnnKind::kGat;
    cfg.decoder = d;
    cfg.hidden_dim = 32;
    cfg.num_layers = 2;
    cfg.epochs = 15;
    cfg.lr = 2e-3f;
    CgnpMethod cgnp(cfg);
    run(&cgnp);
  }

  std::printf("\nExpected shape (paper Tables II-III): classical algorithms "
              "post high precision but very low recall; the CGNP variants "
              "dominate on F1.\n");
  return 0;
}
