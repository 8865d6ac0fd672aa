// Closest Truss Community (Huang, Lakshmanan, Yu, Cheng; VLDB 2015).
//
// Finds the connected k-truss with the largest k containing the query node,
// then greedily shrinks it toward small query distance: repeatedly remove
// the node furthest from the query (with its incident edges), restore the
// k-truss constraint by peeling, and keep the feasible intermediate with the
// smallest diameter-proxy (maximum query distance). This follows the
// published bulk-delete approximation; the exact diameter computation is
// replaced by query eccentricity, which the original paper also uses as the
// optimisation driver.
//
// The config-only form computes a fresh truss decomposition of g per call
// (the batch oracle); the registry adapter passes g.Trusses(), the
// decomposition cached on the graph, to the overload and gets the same
// answer. Only the whole-graph steps read the decomposition: the shrink
// loop re-peels its small pruned subgraphs.
#ifndef CGNP_CS_CTC_H_
#define CGNP_CS_CTC_H_

#include <vector>

#include "graph/decomposition.h"
#include "graph/graph.h"

namespace cgnp {

struct CtcConfig {
  // Truss parameter; -1 = the largest k feasible for the query node.
  int64_t k = -1;
  // Upper bound on shrink iterations (each removes >= 1 node).
  int64_t max_peel_iters = 64;
};

std::vector<NodeId> ClosestTrussCommunity(const Graph& g, NodeId q,
                                          const CtcConfig& config = {});
std::vector<NodeId> ClosestTrussCommunity(const Graph& g, NodeId q,
                                          const CtcConfig& config,
                                          const TrussDecomposition& trusses);

}  // namespace cgnp

#endif  // CGNP_CS_CTC_H_
