// k-edge-connected-component community search (the "k-ECC" model of the
// paper's related work [10,11], Chang et al. / Hu et al.).
//
// The community of q is the maximal subgraph containing q whose global
// minimum cut is >= k: recursively split along minimum cuts (Stoer-Wagner)
// until the component containing q is k-edge-connected. With k = -1 the
// largest feasible k is found by binary search over the query component's
// degeneracy bound.
//
// The config-only form computes a fresh core decomposition of g per call
// (the batch oracle); the registry adapter passes g.Cores(), the
// decomposition cached on the graph, to the overload and gets the same
// answer. The min-cut recursion re-peels its own pruned subgraphs.
#ifndef CGNP_CS_KECC_COMMUNITY_H_
#define CGNP_CS_KECC_COMMUNITY_H_

#include <vector>

#include "graph/decomposition.h"
#include "graph/graph.h"

namespace cgnp {

struct KEccConfig {
  // Required edge connectivity; -1 = maximise.
  int64_t k = -1;
};

std::vector<NodeId> KEccCommunity(const Graph& g, NodeId q,
                                  const KEccConfig& config = {});
std::vector<NodeId> KEccCommunity(const Graph& g, NodeId q,
                                  const KEccConfig& config,
                                  const CoreDecomposition& cores);

// Helper (exposed for tests): the maximal k-edge-connected subgraph
// containing q, or empty when none exists with >= 2 nodes.
std::vector<NodeId> SteinerKEcc(const Graph& g, NodeId q, int64_t k);

}  // namespace cgnp

#endif  // CGNP_CS_KECC_COMMUNITY_H_
