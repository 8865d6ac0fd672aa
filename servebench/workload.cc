#include "workload.h"

#include <algorithm>
#include <cmath>

namespace servebench {

namespace {

// Independent sub-seeds of the run seed, one per use.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr uint64_t kGraphSalt = 1;
constexpr uint64_t kHotSalt = 2;
constexpr uint64_t kColdSalt = 3;
constexpr uint64_t kEditSalt = 4;
constexpr uint64_t kStreamSalt = 16;

bool HasEdge(const Graph& g, NodeId u, NodeId v) {
  const auto nb = g.Neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

}  // namespace

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kLearnedHot:
      return "learned_hot";
    case Workload::kLearnedCold:
      return "learned_cold";
    case Workload::kClassicalMix:
      return "classical_mix";
    case Workload::kDynamicMixed:
      return "dynamic_mixed";
  }
  return "?";
}

cgnp::StatusOr<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kLearnedHot, Workload::kLearnedCold,
                     Workload::kClassicalMix, Workload::kDynamicMixed}) {
    if (name == WorkloadName(w)) return w;
  }
  return cgnp::InvalidArgumentError("unknown workload: " + name);
}

bool UsesEngine(Workload w) { return w != Workload::kClassicalMix; }

const char* ClassicalBackendName(int b) {
  static const char* const kNames[kClassicalBackends] = {"kcore", "ktruss",
                                                         "ctc"};
  return kNames[b];
}

cgnp::SyntheticConfig GraphConfig() {
  cgnp::SyntheticConfig cfg;
  cfg.num_nodes = kNumNodes;
  cfg.num_communities = 25;
  cfg.intra_degree = 12;
  cfg.inter_degree = 1.5;
  cfg.attribute_dim = 16;
  cfg.attrs_per_node = 3;
  cfg.attrs_per_community_pool = 5;
  cfg.attr_affinity = 0.9;
  return cfg;
}

Graph MakeGraph(uint64_t seed) {
  cgnp::Rng rng(Mix(seed, kGraphSalt));
  return cgnp::GenerateSyntheticGraph(GraphConfig(), &rng);
}

cgnp::CommunitySearchEngine::Options EngineOptions(uint64_t seed) {
  cgnp::CommunitySearchEngine::Options opt;
  opt.model.hidden_dim = 32;
  opt.model.epochs = 15;
  opt.model.seed = seed;
  opt.tasks.subgraph_size = 200;
  opt.num_train_tasks = 12;
  opt.seed = seed;
  return opt;
}

HotSet MakeHotSet(const Graph& g, uint64_t seed) {
  cgnp::Rng rng(Mix(seed, kHotSalt));
  std::vector<NodeId> all(static_cast<size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  HotSet hot;
  hot.nodes = rng.SampleWithoutReplacement(std::move(all), kHotSetSize);
  double total = 0;
  for (size_t r = 0; r < hot.nodes.size(); ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    hot.cdf.push_back(total);
  }
  for (double& c : hot.cdf) c /= total;
  hot.cdf.back() = 1.0;
  return hot;
}

std::vector<cgnp::QueryExample> ColdSupport(const Graph& g, uint64_t seed,
                                            NodeId q, int variant) {
  cgnp::Rng rng(Mix(Mix(seed, kColdSalt),
                    static_cast<uint64_t>(q) * kColdVariants +
                        static_cast<uint64_t>(variant)));
  const int64_t c = g.CommunityOf(q);
  std::vector<NodeId> same, other;
  std::vector<char> seen(static_cast<size_t>(g.num_nodes()), 0);
  seen[q] = 1;
  auto visit = [&](NodeId w) {
    if (seen[w]) return;
    seen[w] = 1;
    (g.CommunityOf(w) == c ? same : other).push_back(w);
  };
  for (NodeId u : g.Neighbors(q)) {
    visit(u);
    for (NodeId w : g.Neighbors(u)) visit(w);
  }
  cgnp::QueryExample ex;
  ex.query = q;
  ex.pos = rng.SampleWithoutReplacement(std::move(same), kColdSupportSamples);
  ex.neg = rng.SampleWithoutReplacement(std::move(other), kColdSupportSamples);
  std::sort(ex.pos.begin(), ex.pos.end());
  std::sort(ex.neg.begin(), ex.neg.end());
  return {std::move(ex)};
}

std::vector<std::pair<NodeId, NodeId>> EditPairs(const Graph& g,
                                                 uint64_t seed, int client) {
  // The region: every member of the community of a seed-chosen node.
  cgnp::Rng rng(Mix(seed, kEditSalt));
  const NodeId anchor = static_cast<NodeId>(rng.NextInt(g.num_nodes()));
  std::vector<NodeId> region = g.CommunityMembers(g.CommunityOf(anchor));
  std::sort(region.begin(), region.end());
  // Candidate pairs (i < j over the region) absent from the graph, walked
  // in a seed-shuffled order; pair k goes to client k % kClients.
  std::vector<std::pair<NodeId, NodeId>> absent;
  for (size_t i = 0; i < region.size(); ++i) {
    for (size_t j = i + 1; j < region.size(); ++j) {
      if (!HasEdge(g, region[i], region[j])) {
        absent.emplace_back(region[i], region[j]);
      }
    }
  }
  rng.Shuffle(&absent);
  std::vector<std::pair<NodeId, NodeId>> mine;
  for (size_t k = static_cast<size_t>(client);
       k < absent.size() &&
       static_cast<int64_t>(mine.size()) < kEditPairsPerClient;
       k += kClients) {
    mine.push_back(absent[k]);
  }
  return mine;
}

RequestStream::RequestStream(Workload w, const Graph* g, const HotSet* hot,
                             uint64_t seed, int client)
    : workload_(w),
      graph_(g),
      hot_(hot),
      client_(client),
      rng_(Mix(Mix(seed, kStreamSalt), static_cast<uint64_t>(client))) {
  if (w == Workload::kDynamicMixed) pairs_ = EditPairs(*g, seed, client);
}

NodeId RequestStream::NextHot() {
  const double u = rng_.NextDouble();
  const auto it = std::lower_bound(hot_->cdf.begin(), hot_->cdf.end(), u);
  return hot_->nodes[static_cast<size_t>(it - hot_->cdf.begin())];
}

Op RequestStream::Next() {
  Op op;
  const uint64_t i = ops_++;
  switch (workload_) {
    case Workload::kLearnedHot:
      op.query = NextHot();
      break;
    case Workload::kLearnedCold:
      op.query = static_cast<NodeId>(rng_.NextInt(graph_->num_nodes()));
      op.variant = static_cast<int>(rng_.NextInt(kColdVariants));
      break;
    case Workload::kClassicalMix:
      // Clients start on different backends; shares stay equal.
      op.backend = static_cast<int>((i + static_cast<uint64_t>(client_)) %
                                    kClassicalBackends);
      op.query = static_cast<NodeId>(rng_.NextInt(graph_->num_nodes()));
      break;
    case Workload::kDynamicMixed:
      if (i % kEditEvery == kEditEvery - 1 && !pairs_.empty()) {
        // Insert every pair, then delete every pair, and again.
        const uint64_t n = pairs_.size();
        const uint64_t e = edits_++;
        const auto& p = pairs_[e % n];
        op.kind = Op::Kind::kEdit;
        op.edit = cgnp::GraphEdit{/*insert=*/(e / n) % 2 == 0, p.first,
                                  p.second};
      } else {
        op.query = NextHot();
      }
      break;
  }
  return op;
}

std::vector<int64_t> CommunitySizes(const Graph& g) {
  std::vector<int64_t> sizes;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const int64_t c = g.CommunityOf(v);
    if (c < 0) continue;
    if (c >= static_cast<int64_t>(sizes.size())) sizes.resize(c + 1, 0);
    ++sizes[c];
  }
  return sizes;
}

double AnswerF1(const Graph& g, const std::vector<int64_t>& community_sizes,
                NodeId q, const std::vector<NodeId>& members) {
  const int64_t c = g.CommunityOf(q);
  int64_t tp = 0, fp = 0;
  for (NodeId v : members) {
    if (v == q) continue;
    (g.CommunityOf(v) == c ? tp : fp) += 1;
  }
  const int64_t fn = community_sizes[c] - 1 - tp;
  const int64_t denom = 2 * tp + fp + fn;
  return denom > 0 ? 2.0 * static_cast<double>(tp) / static_cast<double>(denom)
                   : 0.0;
}

}  // namespace servebench
