// Subgraph sampling used by the task generators (Section VII-A of the
// paper: "one task is generated by sampling a subgraph of 200 nodes by BFS").
#ifndef CGNP_GRAPH_SAMPLING_H_
#define CGNP_GRAPH_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "tensor/rng.h"

namespace cgnp {

// Breadth-first sample of up to `max_nodes` nodes starting from `seed`.
// Neighbor expansion order is randomised via `rng` so repeated calls from
// the same seed produce different (overlapping) subgraphs. The returned
// node ids are in visitation order; the result always contains `seed`.
std::vector<NodeId> BfsSample(const Graph& g, NodeId seed, int64_t max_nodes,
                              Rng* rng);

}  // namespace cgnp

#endif  // CGNP_GRAPH_SAMPLING_H_
