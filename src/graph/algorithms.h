// Classical graph algorithms used as (a) node features for the learned
// models (core number, local clustering coefficient, per the paper's
// Section VII-A) and (b) primitives for the community-search baselines
// (k-core / k-truss peeling, connectivity, distances).
#ifndef CGNP_GRAPH_ALGORITHMS_H_
#define CGNP_GRAPH_ALGORITHMS_H_

#include <cstdint>
#include <vector>

#include "graph/decomposition.h"
#include "graph/graph.h"

namespace cgnp {

// Core number of every node (bucket peeling, O(m)).
std::vector<int64_t> CoreNumbers(const Graph& g);

// The Batagelj-Zaversnik peel behind CoreNumbers, with the order it removed
// the nodes in. Core numbers never decrease along `order`, and each node
// has at most core[v] neighbours after it: a k-order, the starting point
// of the order-based core maintenance in cs/dynamic.h.
struct CorePeel {
  std::vector<int64_t> core;
  std::vector<NodeId> order;
};
CorePeel PeelCores(const Graph& g);

// Connected-component label per node (labels are 0-based, by discovery).
std::vector<int64_t> ConnectedComponents(const Graph& g);

// Local clustering coefficient per node: 2*tri(v) / (deg(v)*(deg(v)-1)),
// and 0 for deg < 2. Uses sorted-adjacency intersection.
std::vector<double> LocalClusteringCoefficients(const Graph& g);

// Number of triangles through each node.
std::vector<int64_t> TriangleCounts(const Graph& g);

// Undirected edge list with (u < v) plus a lookup from CSR position to edge
// id, shared by the truss routines.
struct EdgeList {
  std::vector<std::pair<NodeId, NodeId>> edges;  // canonical u < v
  std::vector<int64_t> edge_of_pos;              // CSR position -> edge id
};
EdgeList BuildEdgeList(const Graph& g);

// Truss number per undirected edge (indexed like EdgeList.edges): the
// largest k such that the edge is in the k-truss. Edges in no triangle get
// truss number 2.
std::vector<int64_t> TrussNumbers(const Graph& g, const EdgeList& el);

// BFS hop distances from src; -1 for unreachable. When `mask` is non-null
// only nodes with (*mask)[v] != 0 are traversed (src must be unmasked).
std::vector<int64_t> BfsDistances(const Graph& g, NodeId src,
                                  const std::vector<char>* mask = nullptr);

// Nodes of the maximal connected subgraph containing q in which every node
// has degree >= k (the connected k-core containing q), in ascending id
// order. Empty if q itself cannot satisfy the constraint.
std::vector<NodeId> ConnectedKCoreContaining(const Graph& g, NodeId q, int64_t k);

// Nodes of the maximal connected k-truss containing q (every edge has
// support >= k-2 within the subgraph), in BFS discovery order from q.
// Empty if no such subgraph.
std::vector<NodeId> ConnectedKTrussContaining(const Graph& g, NodeId q, int64_t k);

// Largest k such that ConnectedKCoreContaining(g, q, k) is non-empty.
int64_t MaxCoreOf(const Graph& g, NodeId q);

// Largest k such that q is contained in a k-truss (max truss number over
// q's incident edges; 2 when q has no triangle edges, 1 when isolated).
int64_t MaxTrussOf(const Graph& g, NodeId q, const EdgeList& el,
                   const std::vector<int64_t>& truss);

// The same three questions answered from a decomposition of `g`
// (graph/decomposition.h) with a BFS or a scan of q's slots, instead of
// peeling the whole graph. Identical answers, order included; the
// ConnectedK*Containing overloads above compute a fresh decomposition and
// call these (for k <= 2 the k-truss needs none: every edge is in it).
std::vector<NodeId> ConnectedKCoreContaining(const Graph& g, NodeId q,
                                             int64_t k,
                                             const CoreDecomposition& cores);
std::vector<NodeId> ConnectedKTrussContaining(
    const Graph& g, NodeId q, int64_t k, const TrussDecomposition& trusses);
int64_t MaxTrussOf(const Graph& g, NodeId q,
                   const TrussDecomposition& trusses);

}  // namespace cgnp

#endif  // CGNP_GRAPH_ALGORITHMS_H_
