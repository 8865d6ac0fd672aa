// Structural decomposition of a graph for the classical community-search
// patterns: the core number of every node (k-core) and the truss number
// of every CSR slot (k-truss, closest truss). One decomposition answers
// every k-core / k-truss query on its graph with a BFS, instead of peeling
// the whole graph per query -- the idea of the TCP-index of Huang et al.,
// "Querying k-truss community in large and dynamic graphs" (SIGMOD 2014).
//
// Two ways to get one:
//   * Graph::Cores() / Graph::Trusses() (graph/graph.h) return the copy
//     cached on that Graph: built on first call, once, thread-safe, and
//     freed with the Graph. The two parts build independently, so a
//     k-core query never pays for truss peeling, and a graph that never
//     answers a classical query allocates nothing.
//   * ComputeCoreDecomposition / ComputeTrussDecomposition build a fresh
//     copy from the batch algorithms of graph/algorithms.h. The batch
//     community functions use these, which makes them the oracle the
//     cached copy is tested against (tests/classical_index_test.cc).
//
// Memory: 4 bytes per node (core) plus 4 bytes per CSR slot (truss; both
// directions of an edge carry the same value).
#ifndef CGNP_GRAPH_DECOMPOSITION_H_
#define CGNP_GRAPH_DECOMPOSITION_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace cgnp {

struct CoreDecomposition {
  std::vector<int32_t> core;  // core number per node
};

struct TrussDecomposition {
  // Truss number per CSR slot, indexed like Graph::col_idx(): the largest
  // k such that the slot's edge is in the k-truss (2 for edges in no
  // triangle).
  std::vector<int32_t> truss;
};

CoreDecomposition ComputeCoreDecomposition(const Graph& g);
TrussDecomposition ComputeTrussDecomposition(const Graph& g);

}  // namespace cgnp

#endif  // CGNP_GRAPH_DECOMPOSITION_H_
