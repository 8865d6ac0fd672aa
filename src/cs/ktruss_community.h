// k-truss based community search (Huang et al. 2014 flavour): the maximal
// connected subgraph containing q whose every edge has support >= k-2.
// With k = -1 the largest feasible k for q is used.
//
// The two-argument form computes a fresh truss decomposition of g per call
// (the batch oracle); the registry adapter passes g.Trusses(), the
// decomposition cached on the graph, to the overload and gets the same
// answer.
#ifndef CGNP_CS_KTRUSS_COMMUNITY_H_
#define CGNP_CS_KTRUSS_COMMUNITY_H_

#include <vector>

#include "graph/decomposition.h"
#include "graph/graph.h"

namespace cgnp {

std::vector<NodeId> KTrussCommunity(const Graph& g, NodeId q, int64_t k = -1);
std::vector<NodeId> KTrussCommunity(const Graph& g, NodeId q, int64_t k,
                                    const TrussDecomposition& trusses);

}  // namespace cgnp

#endif  // CGNP_CS_KTRUSS_COMMUNITY_H_
