// Load model of the serving benchmark: the generated graph, the trained
// engine's configuration, and the per-client request streams of each
// workload. Everything here is a pure function of the seed, so two runs
// with one seed send the program the same inputs.
#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <utility>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "data/synthetic.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "tensor/rng.h"

namespace servebench {

using cgnp::Graph;
using cgnp::NodeId;

enum class Workload { kLearnedHot, kLearnedCold, kClassicalMix, kDynamicMixed };

const char* WorkloadName(Workload w);
cgnp::StatusOr<Workload> ParseWorkload(const std::string& name);
bool UsesEngine(Workload w);  // learned and dynamic workloads Fit an engine

// Closed-loop clients in one process, each waiting for its reply.
constexpr int kClients = 2;
// Nodes of the planted-partition graph every workload runs on.
constexpr int64_t kNumNodes = 5000;
// Context-cache capacity of every learned server (the serve default).
constexpr int64_t kCacheCapacity = 256;
// learned_hot / dynamic_mixed draw queries from this many nodes, which
// fit in the cache.
constexpr int64_t kHotSetSize = 192;
static_assert(kHotSetSize <= kCacheCapacity,
              "learned_hot's working set must fit the context cache");
// Zipf exponent over hot-set ranks. At 1.0 about 18 nodes carried the
// traffic and f1 and latency swung with which nodes the seed made hot; at
// 0.6 the top node gets 5% of the traffic and about 90 nodes carry it.
constexpr double kZipfExponent = 0.6;
// learned_cold: support variants per query node, and samples per list.
constexpr int kColdVariants = 4;
static_assert(kNumNodes * kColdVariants > 10 * kCacheCapacity,
              "learned_cold's working set must dwarf the context cache");
constexpr int64_t kColdSupportSamples = 3;
// dynamic_mixed: every kEditEvery-th operation of a client is an edit.
constexpr int kEditEvery = 4;
// dynamic_mixed: absent node pairs each client toggles (insert all, then
// delete all, repeat), disjoint across clients so every edit is valid
// whatever the interleaving.
constexpr int64_t kEditPairsPerClient = 32;
// The classical backends of classical_mix, served round-robin.
constexpr int kClassicalBackends = 3;
const char* ClassicalBackendName(int b);  // "kcore", "ktruss", "ctc"

// Planted-partition graph: 5k nodes, 25 communities, attributed.
cgnp::SyntheticConfig GraphConfig();
Graph MakeGraph(uint64_t seed);
// Engine configuration: Section VII-A subgraph size, hidden dim 32.
cgnp::CommunitySearchEngine::Options EngineOptions(uint64_t seed);

// Zipf-weighted hot set of query nodes.
struct HotSet {
  std::vector<NodeId> nodes;  // rank order
  std::vector<double> cdf;    // cumulative weights, last = 1
};
HotSet MakeHotSet(const Graph& g, uint64_t seed);

// Few-shot support of a learned_cold request: one example of the query
// with positives from its own community and negatives from others, both
// drawn from its two-hop neighbourhood (so they survive the task's BFS
// sample). Deterministic in (g, seed, q, variant).
std::vector<cgnp::QueryExample> ColdSupport(const Graph& g, uint64_t seed,
                                            NodeId q, int variant);

// Node pairs absent from `g` inside the edit region (the members of one
// planted community), disjoint across clients.
std::vector<std::pair<NodeId, NodeId>> EditPairs(const Graph& g,
                                                 uint64_t seed, int client);

// One client operation.
struct Op {
  enum class Kind { kQuery, kEdit };
  Kind kind = Kind::kQuery;
  NodeId query = -1;
  int variant = -1;  // learned_cold support variant; -1 = zero-shot
  int backend = -1;  // classical_mix backend index; -1 = cgnp
  cgnp::GraphEdit edit;
};

// Infinite, deterministic operation stream of one client.
class RequestStream {
 public:
  RequestStream(Workload w, const Graph* g, const HotSet* hot, uint64_t seed,
                int client);
  Op Next();

 private:
  NodeId NextHot();

  Workload workload_;
  const Graph* graph_;
  const HotSet* hot_;
  int client_;
  cgnp::Rng rng_;
  uint64_t ops_ = 0;
  std::vector<std::pair<NodeId, NodeId>> pairs_;
  uint64_t edits_ = 0;
};

// F1 of an answer against the query's planted community, the query node
// excluded (the convention of data/metrics.h). `community_sizes[c]` is the
// size of community c.
double AnswerF1(const Graph& g, const std::vector<int64_t>& community_sizes,
                NodeId q, const std::vector<NodeId>& members);
std::vector<int64_t> CommunitySizes(const Graph& g);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
