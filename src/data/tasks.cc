#include "data/tasks.h"

#include <algorithm>

#include "common/check.h"
#include "graph/algorithms.h"
#include "graph/sampling.h"

namespace cgnp {

const char* TaskRegimeName(TaskRegime r) {
  switch (r) {
    case TaskRegime::kSgsc:
      return "SGSC";
    case TaskRegime::kSgdc:
      return "SGDC";
    case TaskRegime::kMgod:
      return "MGOD";
    case TaskRegime::kMgdd:
      return "MGDD";
  }
  return "?";
}

int64_t AttributeDim(const Graph& g) {
  if (!g.has_attributes()) return 0;
  int32_t mx = -1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (int32_t a : g.Attributes(v)) mx = std::max(mx, a);
  }
  return mx + 1;
}

Graph AttachTaskFeatures(Graph sub, int64_t attribute_dim) {
  const int64_t n = sub.num_nodes();
  const int64_t dim = attribute_dim + 2;
  const std::vector<int64_t> core = CoreNumbers(sub);
  const std::vector<double> lcc = LocalClusteringCoefficients(sub);
  int64_t max_core = 1;
  for (int64_t c : core) max_core = std::max(max_core, c);

  std::vector<float> feats(n * dim, 0.0f);
  for (NodeId v = 0; v < n; ++v) {
    float* row = feats.data() + v * dim;
    for (int32_t a : sub.Attributes(v)) {
      CGNP_CHECK_LT(a, attribute_dim);
      row[a] = 1.0f;
    }
    row[attribute_dim] =
        static_cast<float>(core[v]) / static_cast<float>(max_core);
    row[attribute_dim + 1] = static_cast<float>(lcc[v]);
  }
  sub.SetFeatures(dim, std::move(feats));
  return sub;
}

bool SampleTask(const Graph& g, const TaskConfig& cfg,
                const std::vector<char>& allowed, int64_t attribute_dim,
                Rng* rng, CsTask* out) {
  CGNP_CHECK(g.has_communities()) << " task sampling needs ground truth";
  constexpr int kMaxAttempts = 24;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    // Seed from an allowed community so the subgraph has usable queries.
    NodeId seed = rng->NextInt(g.num_nodes());
    if (!allowed.empty()) {
      bool ok = false;
      for (int tries = 0; tries < 64; ++tries) {
        if (allowed[g.CommunityOf(seed)]) {
          ok = true;
          break;
        }
        seed = rng->NextInt(g.num_nodes());
      }
      if (!ok) continue;
    }
    const std::vector<NodeId> nodes = BfsSample(g, seed, cfg.subgraph_size, rng);
    const int64_t min_nodes =
        cfg.clamp_samples ? 8 : cfg.pos_samples + cfg.neg_samples + 2;
    if (static_cast<int64_t>(nodes.size()) < min_nodes) continue;
    Graph sub = InducedSubgraph(g, nodes);

    // Community membership counts within the subgraph.
    const int64_t n = sub.num_nodes();
    std::vector<NodeId> eligible;
    std::vector<int64_t> comm_count;
    for (NodeId v = 0; v < n; ++v) {
      const int64_t c = sub.CommunityOf(v);
      if (c >= static_cast<int64_t>(comm_count.size())) {
        comm_count.resize(c + 1, 0);
      }
      ++comm_count[c];
    }
    const int64_t min_pos = cfg.clamp_samples ? 1 : cfg.pos_samples;
    const int64_t min_neg = cfg.clamp_samples ? 1 : cfg.neg_samples;
    for (NodeId v = 0; v < n; ++v) {
      const int64_t c = sub.CommunityOf(v);
      if (!allowed.empty() && !allowed[c]) continue;
      if (comm_count[c] < min_pos + 1) continue;   // enough positives
      if (n - comm_count[c] < min_neg) continue;   // enough negatives
      eligible.push_back(v);
    }
    if (static_cast<int64_t>(eligible.size()) < cfg.shots + 1) continue;

    rng->Shuffle(&eligible);
    const int64_t num_query = std::min<int64_t>(
        cfg.query_set_size, static_cast<int64_t>(eligible.size()) - cfg.shots);

    auto make_example = [&](NodeId q) {
      QueryExample ex;
      ex.query = q;
      ex.truth.assign(n, 0);
      std::vector<NodeId> pos_pool, neg_pool;
      const int64_t c = sub.CommunityOf(q);
      for (NodeId v = 0; v < n; ++v) {
        if (sub.CommunityOf(v) == c) {
          ex.truth[v] = 1;
          if (v != q) pos_pool.push_back(v);
        } else {
          neg_pool.push_back(v);
        }
      }
      ex.pos = rng->SampleWithoutReplacement(pos_pool, cfg.pos_samples);
      ex.neg = rng->SampleWithoutReplacement(neg_pool, cfg.neg_samples);
      return ex;
    };

    out->support.clear();
    out->query.clear();
    for (int64_t i = 0; i < cfg.shots; ++i) {
      out->support.push_back(make_example(eligible[i]));
    }
    for (int64_t i = 0; i < num_query; ++i) {
      out->query.push_back(make_example(eligible[cfg.shots + i]));
    }
    out->graph = AttachTaskFeatures(std::move(sub), attribute_dim);
    return true;
  }
  return false;
}

TaskSplit MakeSingleGraphTasks(const Graph& g, TaskRegime regime,
                               const TaskConfig& cfg, int64_t num_train,
                               int64_t num_valid, int64_t num_test, Rng* rng) {
  CGNP_CHECK(regime == TaskRegime::kSgsc || regime == TaskRegime::kSgdc);
  const int64_t attr_dim = AttributeDim(g);
  const int64_t num_comms = g.num_communities();

  std::vector<char> train_allowed;  // empty = all
  std::vector<char> test_allowed;
  if (regime == TaskRegime::kSgdc) {
    // Disjoint community split: half for training tasks, half for test.
    std::vector<int64_t> ids(num_comms);
    for (int64_t c = 0; c < num_comms; ++c) ids[c] = c;
    rng->Shuffle(&ids);
    train_allowed.assign(num_comms, 0);
    test_allowed.assign(num_comms, 0);
    for (int64_t i = 0; i < num_comms; ++i) {
      if (i < num_comms / 2) {
        train_allowed[ids[i]] = 1;
      } else {
        test_allowed[ids[i]] = 1;
      }
    }
  }

  TaskSplit split;
  auto fill = [&](std::vector<CsTask>* dst, int64_t count,
                  const std::vector<char>& allowed) {
    for (int64_t i = 0; i < count; ++i) {
      CsTask t;
      if (SampleTask(g, cfg, allowed, attr_dim, rng, &t)) {
        dst->push_back(std::move(t));
      }
    }
  };
  fill(&split.train, num_train, train_allowed);
  fill(&split.valid, num_valid, train_allowed);
  fill(&split.test, num_test, test_allowed);
  return split;
}

TaskSplit MakeMultiGraphTasks(const std::vector<Graph>& graphs,
                              const TaskConfig& cfg, Rng* rng) {
  CGNP_CHECK_GE(graphs.size(), 3u);
  int64_t attr_dim = 0;
  for (const auto& g : graphs) attr_dim = std::max(attr_dim, AttributeDim(g));

  const int64_t n = static_cast<int64_t>(graphs.size());
  const int64_t num_test = std::max<int64_t>(1, n / 5);
  const int64_t num_valid = std::max<int64_t>(1, n / 5);
  const int64_t num_train = n - num_test - num_valid;

  TaskSplit split;
  TaskConfig per_graph = cfg;
  for (int64_t i = 0; i < n; ++i) {
    // Ego networks are whole task graphs: sample within each graph but use
    // (up to) the full graph as the task subgraph.
    per_graph.subgraph_size = std::min<int64_t>(cfg.subgraph_size * 4,
                                                graphs[i].num_nodes());
    CsTask t;
    if (!SampleTask(graphs[i], per_graph, {}, attr_dim, rng, &t)) continue;
    if (i < num_train) {
      split.train.push_back(std::move(t));
    } else if (i < num_train + num_valid) {
      split.valid.push_back(std::move(t));
    } else {
      split.test.push_back(std::move(t));
    }
  }
  return split;
}

TaskSplit MakeCrossDatasetTasks(const Graph& train_graph,
                                const Graph& test_graph, const TaskConfig& cfg,
                                int64_t num_train, int64_t num_valid,
                                int64_t num_test, Rng* rng) {
  const int64_t attr_dim =
      std::max(AttributeDim(train_graph), AttributeDim(test_graph));
  TaskSplit split;
  for (int64_t i = 0; i < num_train; ++i) {
    CsTask t;
    if (SampleTask(train_graph, cfg, {}, attr_dim, rng, &t)) {
      split.train.push_back(std::move(t));
    }
  }
  for (int64_t i = 0; i < num_valid; ++i) {
    CsTask t;
    if (SampleTask(test_graph, cfg, {}, attr_dim, rng, &t)) {
      split.valid.push_back(std::move(t));
    }
  }
  for (int64_t i = 0; i < num_test; ++i) {
    CsTask t;
    if (SampleTask(test_graph, cfg, {}, attr_dim, rng, &t)) {
      split.test.push_back(std::move(t));
    }
  }
  return split;
}

}  // namespace cgnp
