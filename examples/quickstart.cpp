// Quickstart: train a CGNP meta model on a labelled graph and answer a
// community-search query, through the v1 public API:
//
//   * EngineBuilder -- fluent, validating construction;
//   * Status/StatusOr -- bad input comes back as an error value, it never
//     aborts the process;
//   * the backend registry -- the same query answered by a classical
//     algorithm, switched purely by name.
//
//   $ ./quickstart
//
// The example generates a small planted-community graph (stand-in for a
// labelled real-world graph), meta-trains the engine on tasks sampled from
// it, and asks for the community of one node -- first zero-shot, then with
// a handful of labelled examples, showing how a little supervision sharpens
// the answer.
#include <algorithm>
#include <cstdio>

#include "core/engine.h"
#include "cs/searcher.h"
#include "data/synthetic.h"

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
  // 1. A labelled data graph. Swap in LoadGraphFromFiles(...) for real data
  // (it returns StatusOr<Graph>, same error discipline as below).
  Rng rng(7);
  SyntheticConfig data_cfg;
  data_cfg.num_nodes = 800;
  data_cfg.num_communities = 8;
  data_cfg.intra_degree = 12;
  data_cfg.inter_degree = 1.5;
  data_cfg.attribute_dim = 24;
  data_cfg.attrs_per_node = 4;
  data_cfg.attrs_per_community_pool = 6;
  Graph g = GenerateSyntheticGraph(data_cfg, &rng);
  std::printf("data graph: %lld nodes, %lld edges, %lld communities\n",
              (long long)g.num_nodes(), (long long)g.num_edges(),
              (long long)g.num_communities());

  // 2. Configure the engine through the fluent builder. Build() validates
  // the configuration and returns InvalidArgument instead of constructing
  // an engine that would misbehave later.
  CgnpConfig model_cfg;
  model_cfg.encoder = GnnKind::kGat;  // paper default
  model_cfg.decoder = DecoderKind::kInnerProduct;
  model_cfg.hidden_dim = 32;
  model_cfg.num_layers = 2;
  model_cfg.epochs = 20;
  TaskConfig task_cfg;
  task_cfg.subgraph_size = 100;
  task_cfg.shots = 3;
  auto built = EngineBuilder()
                   .WithModel(model_cfg)
                   .WithTasks(task_cfg)
                   .WithTrainTasks(16)
                   .WithSeed(7)
                   .Build();
  if (!built.ok()) {
    std::fprintf(stderr, "engine config rejected: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  CommunitySearchEngine engine = std::move(built).value();
  std::printf("meta-training on 16 sampled tasks...\n");
  if (const Status fitted = engine.Fit(g); !fitted.ok()) {
    std::fprintf(stderr, "Fit failed: %s\n", fitted.ToString().c_str());
    return 1;
  }

  // 3. Query: zero-shot (only the query node conditions the model). Query
  // returns the full result -- members, probabilities, backend, timing.
  const NodeId q = 123;
  const auto zero_shot = engine.Query(g, q);
  if (!zero_shot.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 zero_shot.status().ToString().c_str());
    return 1;
  }
  std::printf("[%s] zero-shot community of node %lld: %zu members, "
              "F1 = %.3f (%.2f ms)\n",
              zero_shot->backend.c_str(), (long long)q,
              zero_shot->members.size(), F1Of(g, q, zero_shot->members),
              zero_shot->elapsed_ms);

  // 4. Query again with a few labelled observations (the few-shot setting).
  // Labels near the query are the realistic case -- a user inspecting the
  // neighborhood -- and they land inside the engine's task subgraph.
  QueryExample obs;
  obs.query = q;
  for (NodeId u : g.Neighbors(q)) {
    if (obs.pos.size() >= 5) break;
    if (g.CommunityOf(u) == g.CommunityOf(q)) obs.pos.push_back(u);
  }
  for (NodeId u : g.Neighbors(q)) {
    for (NodeId w : g.Neighbors(u)) {
      if (obs.neg.size() >= 10) break;
      if (g.CommunityOf(w) != g.CommunityOf(q)) obs.neg.push_back(w);
    }
  }
  const auto few_shot = engine.Query(g, q, {obs});
  if (!few_shot.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 few_shot.status().ToString().c_str());
    return 1;
  }
  std::printf("[%s] few-shot community of node %lld:  %zu members, "
              "F1 = %.3f (%.2f ms)\n",
              few_shot->backend.c_str(), (long long)q,
              few_shot->members.size(), F1Of(g, q, few_shot->members),
              few_shot->elapsed_ms);

  std::printf("ground-truth community size: %zu\n",
              g.CommunityMembers(g.CommunityOf(q)).size());

  // 5. The same question to a classical backend, switched by registry
  // name -- no code change, no retraining.
  const auto ktruss = MakeSearcher("ktruss");
  if (ktruss.ok()) {
    const auto result = (*ktruss)->Search(g, q, {}, {});
    if (result.ok()) {
      std::printf("[%s] community of node %lld: %zu members, F1 = %.3f "
                  "(%.2f ms)\n",
                  result->backend.c_str(), (long long)q,
                  result->members.size(), F1Of(g, q, result->members),
                  result->elapsed_ms);
    }
  }

  // 6. Errors are values: a malformed query cannot crash a server built on
  // this API.
  const auto bad = engine.Query(g, g.num_nodes() + 40);
  std::printf("out-of-range query returns: %s\n",
              bad.status().ToString().c_str());
  return 0;
}
