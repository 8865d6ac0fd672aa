// Reference implementations of the task-build pipeline, written the
// straightforward way, for differential tests of the library's one-pass
// versions: BFS with a deque and a fresh neighbour copy per expansion,
// induced subgraphs and feature attachment through GraphBuilder, triangle
// counts by sorted-row merge, Rng::NextInt with the rejection limit taken
// on every draw, and BuildQueryTask / SampleTask assembled from these.
// Each must give bitwise the output of its library counterpart on any
// input and leave the rng in the same state.
#ifndef CGNP_TESTS_TASK_ORACLES_H_
#define CGNP_TESTS_TASK_ORACLES_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

#include "core/engine.h"
#include "data/tasks.h"
#include "graph/algorithms.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "tensor/rng.h"

namespace cgnp {
namespace oracle {

inline int64_t NextInt(Rng* rng, int64_t n) {
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t v = rng->NextU64();
  while (v >= limit) v = rng->NextU64();
  return static_cast<int64_t>(v % un);
}

template <typename T>
void Shuffle(Rng* rng, std::vector<T>* v) {
  for (int64_t i = static_cast<int64_t>(v->size()) - 1; i > 0; --i) {
    std::swap((*v)[i], (*v)[NextInt(rng, i + 1)]);
  }
}

// One BFS from `start`; appends dequeued nodes to `out` until the frontier
// empties or `out` holds `max_nodes`.
inline void BfsFrom(const Graph& g, NodeId start, int64_t max_nodes, Rng* rng,
                    std::vector<char>* seen, std::vector<NodeId>* out) {
  std::deque<NodeId> frontier;
  (*seen)[start] = 1;
  frontier.push_back(start);
  while (!frontier.empty() && static_cast<int64_t>(out->size()) < max_nodes) {
    const NodeId v = frontier.front();
    frontier.pop_front();
    out->push_back(v);
    std::vector<NodeId> nbrs(g.Neighbors(v).begin(), g.Neighbors(v).end());
    Shuffle(rng, &nbrs);
    for (NodeId u : nbrs) {
      if (!(*seen)[u]) {
        (*seen)[u] = 1;
        frontier.push_back(u);
      }
    }
  }
}

inline std::vector<NodeId> BfsSample(const Graph& g, NodeId seed,
                                     int64_t max_nodes, Rng* rng) {
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> out;
  BfsFrom(g, seed, max_nodes, rng, &seen, &out);
  return out;
}

inline Graph InducedSubgraph(const Graph& g, const std::vector<NodeId>& nodes,
                             std::vector<NodeId>* new_of_old = nullptr) {
  std::vector<NodeId> map(g.num_nodes(), -1);
  for (size_t i = 0; i < nodes.size(); ++i) map[nodes[i]] = NodeId(i);
  GraphBuilder b(static_cast<int64_t>(nodes.size()));
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (NodeId u : g.Neighbors(nodes[i])) {
      if (map[u] > NodeId(i)) b.AddEdge(NodeId(i), map[u]);
    }
  }
  if (g.has_features()) {
    const int64_t d = g.feature_dim();
    std::vector<float> feats(nodes.size() * d);
    for (size_t i = 0; i < nodes.size(); ++i) {
      const float* src = g.features().data() + nodes[i] * d;
      std::copy(src, src + d, feats.data() + i * d);
    }
    b.SetFeatures(d, std::move(feats));
  }
  if (g.has_attributes()) {
    std::vector<std::vector<int32_t>> attrs(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) attrs[i] = g.Attributes(nodes[i]);
    b.SetAttributes(std::move(attrs));
  }
  if (g.has_communities()) {
    std::vector<int64_t> comm(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) comm[i] = g.CommunityOf(nodes[i]);
    b.SetCommunities(std::move(comm));
  }
  if (new_of_old != nullptr) *new_of_old = std::move(map);
  return b.Build();
}

inline std::vector<int64_t> TriangleCounts(const Graph& g) {
  std::vector<int64_t> tri(g.num_nodes(), 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nu = g.Neighbors(u);
    for (NodeId v : nu) {
      if (v <= u) continue;
      const auto nv = g.Neighbors(v);
      size_t i = 0, j = 0;
      while (i < nu.size() && j < nv.size()) {
        if (nu[i] < nv[j]) {
          ++i;
        } else if (nu[i] > nv[j]) {
          ++j;
        } else {
          if (nu[i] > v) {
            ++tri[u];
            ++tri[v];
            ++tri[nu[i]];
          }
          ++i;
          ++j;
        }
      }
    }
  }
  return tri;
}

inline std::vector<double> LocalClusteringCoefficients(const Graph& g) {
  const std::vector<int64_t> tri = oracle::TriangleCounts(g);
  std::vector<double> lcc(g.num_nodes(), 0.0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const int64_t d = g.Degree(v);
    if (d >= 2) {
      lcc[v] = 2.0 * static_cast<double>(tri[v]) /
               (static_cast<double>(d) * static_cast<double>(d - 1));
    }
  }
  return lcc;
}

inline Graph AttachTaskFeatures(const Graph& sub, int64_t attribute_dim) {
  const int64_t n = sub.num_nodes();
  const int64_t dim = attribute_dim + 2;
  const std::vector<int64_t> core = CoreNumbers(sub);
  const std::vector<double> lcc = oracle::LocalClusteringCoefficients(sub);
  int64_t max_core = 1;
  for (int64_t c : core) max_core = std::max(max_core, c);
  std::vector<float> feats(n * dim, 0.0f);
  for (NodeId v = 0; v < n; ++v) {
    float* row = feats.data() + v * dim;
    for (int32_t a : sub.Attributes(v)) row[a] = 1.0f;
    row[attribute_dim] =
        static_cast<float>(core[v]) / static_cast<float>(max_core);
    row[attribute_dim + 1] = static_cast<float>(lcc[v]);
  }
  GraphBuilder b(n);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u : sub.Neighbors(v)) {
      if (u > v) b.AddEdge(v, u);
    }
  }
  if (sub.has_attributes()) {
    std::vector<std::vector<int32_t>> attrs(n);
    for (NodeId v = 0; v < n; ++v) attrs[v] = sub.Attributes(v);
    b.SetAttributes(std::move(attrs));
  }
  if (sub.has_communities()) {
    const auto comm = sub.communities();
    b.SetCommunities({comm.begin(), comm.end()});
  }
  b.SetFeatures(dim, std::move(feats));
  return b.Build();
}

// BuildQueryTask for valid input (the Status checks are not modelled).
inline LocalQueryTask BuildQueryTask(const Graph& g, NodeId query,
                                     const std::vector<QueryExample>& labelled,
                                     const TaskConfig& tasks,
                                     int64_t attribute_dim, uint64_t seed) {
  LocalQueryTask out;
  Rng rng(seed ^ static_cast<uint64_t>(query + 1));
  out.nodes = oracle::BfsSample(g, query, tasks.subgraph_size, &rng);
  std::vector<NodeId> new_of_old;
  Graph sub = oracle::InducedSubgraph(g, out.nodes, &new_of_old);
  out.graph = oracle::AttachTaskFeatures(sub, attribute_dim);
  out.query = new_of_old[query];
  for (const auto& ex : labelled) {
    if (new_of_old[ex.query] < 0) continue;
    QueryExample local;
    local.query = new_of_old[ex.query];
    for (NodeId v : ex.pos) {
      if (new_of_old[v] >= 0) local.pos.push_back(new_of_old[v]);
    }
    for (NodeId v : ex.neg) {
      if (new_of_old[v] >= 0) local.neg.push_back(new_of_old[v]);
    }
    out.support.push_back(std::move(local));
  }
  if (out.support.empty()) {
    QueryExample self;
    self.query = out.query;
    out.support.push_back(std::move(self));
  }
  return out;
}

inline bool SampleTask(const Graph& g, const TaskConfig& cfg,
                       const std::vector<char>& allowed, int64_t attribute_dim,
                       Rng* rng, CsTask* out) {
  for (int attempt = 0; attempt < 24; ++attempt) {
    NodeId seed = NextInt(rng, g.num_nodes());
    if (!allowed.empty()) {
      bool ok = false;
      for (int tries = 0; tries < 64; ++tries) {
        if (allowed[g.CommunityOf(seed)]) {
          ok = true;
          break;
        }
        seed = NextInt(rng, g.num_nodes());
      }
      if (!ok) continue;
    }
    const std::vector<NodeId> nodes =
        oracle::BfsSample(g, seed, cfg.subgraph_size, rng);
    const int64_t min_nodes =
        cfg.clamp_samples ? 8 : cfg.pos_samples + cfg.neg_samples + 2;
    if (static_cast<int64_t>(nodes.size()) < min_nodes) continue;
    Graph sub = oracle::InducedSubgraph(g, nodes);
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
      if (comm_count[c] < min_pos + 1) continue;
      if (n - comm_count[c] < min_neg) continue;
      eligible.push_back(v);
    }
    if (static_cast<int64_t>(eligible.size()) < cfg.shots + 1) continue;
    Shuffle(rng, &eligible);
    const int64_t num_query = std::min<int64_t>(
        cfg.query_set_size, static_cast<int64_t>(eligible.size()) - cfg.shots);
    auto sample = [&](std::vector<NodeId> pool, int64_t k) {
      Shuffle(rng, &pool);
      if (k < static_cast<int64_t>(pool.size())) pool.resize(k);
      return pool;
    };
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
      ex.pos = sample(pos_pool, cfg.pos_samples);
      ex.neg = sample(neg_pool, cfg.neg_samples);
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
    out->graph = oracle::AttachTaskFeatures(sub, attribute_dim);
    return true;
  }
  return false;
}

}  // namespace oracle

namespace testing {

// Random graph for the differential tests: `n` nodes, about `edges` random
// pairs (self loops and repeats included; GraphBuilder drops them), nodes
// at or past `isolated_from` left without edges, and each optional part
// present when asked for.
struct RandomGraphSpec {
  int64_t n = 300;
  int64_t edges = 1200;
  int64_t isolated_from = 300;
  bool features = false;
  bool attributes = false;
  bool communities = false;
};

inline Graph RandomGraph(const RandomGraphSpec& spec, uint64_t seed) {
  Rng rng(seed);
  const int64_t wired = std::max<int64_t>(1, spec.isolated_from);
  GraphBuilder b(spec.n);
  for (int64_t i = 0; i < spec.edges; ++i) {
    b.AddEdge(rng.NextInt(wired), rng.NextInt(wired));
  }
  if (spec.features) {
    std::vector<float> feats(spec.n * 3);
    for (auto& f : feats) f = rng.Uniform(-1.0f, 1.0f);
    b.SetFeatures(3, std::move(feats));
  }
  if (spec.attributes) {
    std::vector<std::vector<int32_t>> attrs(spec.n);
    for (auto& a : attrs) {
      for (int64_t k = rng.NextInt(4); k > 0; --k) {
        a.push_back(static_cast<int32_t>(rng.NextInt(12)));
      }
      std::sort(a.begin(), a.end());
      a.erase(std::unique(a.begin(), a.end()), a.end());
    }
    b.SetAttributes(std::move(attrs));
  }
  if (spec.communities) {
    std::vector<int64_t> comm(spec.n);
    for (auto& c : comm) c = rng.NextInt(6);
    b.SetCommunities(std::move(comm));
  }
  return b.Build();
}

// Bitwise graph equality: CSR arrays, features by memcmp, attributes and
// community labels.
inline void ExpectSameGraph(const Graph& got, const Graph& want,
                            const std::string& tag) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << tag;
  EXPECT_TRUE(std::ranges::equal(got.row_ptr(), want.row_ptr())) << tag;
  EXPECT_TRUE(std::ranges::equal(got.col_idx(), want.col_idx())) << tag;
  ASSERT_EQ(got.feature_dim(), want.feature_dim()) << tag;
  ASSERT_EQ(got.features().size(), want.features().size()) << tag;
  if (!got.features().empty()) {
    EXPECT_EQ(std::memcmp(got.features().data(), want.features().data(),
                          got.features().size() * sizeof(float)),
              0)
        << tag;
  }
  ASSERT_EQ(got.has_attributes(), want.has_attributes()) << tag;
  for (NodeId v = 0; v < got.num_nodes(); ++v) {
    EXPECT_EQ(got.Attributes(v), want.Attributes(v)) << tag << " node " << v;
  }
  EXPECT_TRUE(std::ranges::equal(got.communities(), want.communities()))
      << tag;
}

inline void ExpectSameExample(const QueryExample& got,
                              const QueryExample& want,
                              const std::string& tag) {
  EXPECT_EQ(got.query, want.query) << tag;
  EXPECT_EQ(got.pos, want.pos) << tag;
  EXPECT_EQ(got.neg, want.neg) << tag;
  EXPECT_EQ(got.truth, want.truth) << tag;
}

}  // namespace testing
}  // namespace cgnp

#endif  // CGNP_TESTS_TASK_ORACLES_H_
