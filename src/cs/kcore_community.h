// k-core based community search (Sozio & Gionis 2010 flavour): the maximal
// connected subgraph containing the query node in which every node has
// degree >= k. With k = -1 the largest feasible k (the query's core number)
// is used, which matches the "find the densest community around q" usage.
//
// The two-argument form peels a fresh core decomposition of g per call (the
// batch oracle); the registry adapter passes g.Cores(), the decomposition
// cached on the graph, to the overload and gets the same answer.
#ifndef CGNP_CS_KCORE_COMMUNITY_H_
#define CGNP_CS_KCORE_COMMUNITY_H_

#include <vector>

#include "graph/decomposition.h"
#include "graph/graph.h"

namespace cgnp {

std::vector<NodeId> KCoreCommunity(const Graph& g, NodeId q, int64_t k = -1);
std::vector<NodeId> KCoreCommunity(const Graph& g, NodeId q, int64_t k,
                                   const CoreDecomposition& cores);

}  // namespace cgnp

#endif  // CGNP_CS_KCORE_COMMUNITY_H_
