// Classical graph algorithms used as (a) node features for the learned
// models (core number, local clustering coefficient, per the paper's
// Section VII-A) and (b) primitives for the community-search baselines
// (k-core / k-truss peeling, connectivity, distances).
#ifndef CGNP_GRAPH_ALGORITHMS_H_
#define CGNP_GRAPH_ALGORITHMS_H_

#include <algorithm>
#include <cstdint>
#include <span>
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
// and 0 for deg < 2, from TriangleCounts.
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

// --- Connected communities over a row source -------------------------------
//
// The connected k-core and k-truss communities, written once for every
// graph representation that can list a node's neighbours: the CSR Graph,
// with its Cores()/Trusses() or a fresh decomposition, and the sorted rows
// of the dynamic index with the numbers it maintains (cs/dynamic.h). The
// k-truss community is the one of Huang et al.,
// "Querying k-truss community in large and dynamic graphs" (SIGMOD 2014),
// which CTC (cs/ctc.h) then shrinks. A row source `rows` provides
//   rows.num_nodes()
//   rows.Neighbors(v)  v's neighbours in ascending id order
//   rows.Trusses(v)    the truss numbers of those edges, parallel to
//                      Neighbors(v) (read by the k-truss routines only)
// and core numbers come as any per-node indexable `core`. Ascending rows
// give every source the same answers, order included.
//
// The *Community routines resolve k the way every classical backend does:
//   * k < 0 means the query's maximal feasible k (its core number, or
//     MaxTrussIn);
//   * k = 0 means {q} for the k-core;
//   * k <= 2 on an isolated q means {q} for the k-truss.
// q must be in [0, rows.num_nodes()): callers validate it.

// Nodes of the connected k-core containing q -- the maximal connected
// subgraph in which every node has core number >= k -- in ascending id
// order. Empty when core[q] < k.
template <typename Rows, typename Cores>
std::vector<NodeId> ConnectedKCoreIn(const Rows& rows, const Cores& core,
                                     NodeId q, int64_t k) {
  if (core[q] < k) return {};
  const int64_t n = rows.num_nodes();
  std::vector<char> seen(n, 0);
  std::vector<NodeId> stack = {q};
  seen[q] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (const NodeId u : rows.Neighbors(v)) {
      if (!seen[u] && core[u] >= k) {
        seen[u] = 1;
        stack.push_back(u);
      }
    }
  }
  std::vector<NodeId> out;
  for (NodeId v = 0; v < n; ++v) {
    if (seen[v]) out.push_back(v);
  }
  return out;
}

template <typename Rows, typename Cores>
std::vector<NodeId> KCoreCommunityIn(const Rows& rows, const Cores& core,
                                     NodeId q, int64_t k) {
  if (k < 0) k = core[q];
  if (k == 0) return {q};
  return ConnectedKCoreIn(rows, core, q, k);
}

// Nodes of the maximal connected k-truss containing q -- BFS from q over
// the edges of truss number >= k -- in BFS discovery order. Empty when q
// has no such edge and k > 2.
template <typename Rows>
std::vector<NodeId> ConnectedKTrussIn(const Rows& rows, NodeId q, int64_t k) {
  std::vector<char> seen(rows.num_nodes(), 0);
  std::vector<NodeId> out{q};  // doubles as the BFS queue
  seen[q] = 1;
  bool q_has_edge = false;
  for (size_t head = 0; head < out.size(); ++head) {
    const NodeId v = out[head];
    const auto& nbrs = rows.Neighbors(v);
    const auto& truss = rows.Trusses(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (truss[i] < k) continue;
      if (v == q) q_has_edge = true;
      const NodeId u = nbrs[i];
      if (!seen[u]) {
        seen[u] = 1;
        out.push_back(u);
      }
    }
  }
  if (!q_has_edge && k > 2) return {};
  return out;
}

// Largest k such that q is in a k-truss: the largest truss number of q's
// edges; 2 when q has no triangle edges, 1 when isolated.
template <typename Rows>
int64_t MaxTrussIn(const Rows& rows, NodeId q) {
  const auto& nbrs = rows.Neighbors(q);
  const auto& truss = rows.Trusses(q);
  int64_t best = nbrs.empty() ? 1 : 2;
  for (size_t i = 0; i < nbrs.size(); ++i) {
    best = std::max<int64_t>(best, truss[i]);
  }
  return best;
}

template <typename Rows>
std::vector<NodeId> KTrussCommunityIn(const Rows& rows, NodeId q, int64_t k) {
  if (k < 0) k = MaxTrussIn(rows, q);
  if (k <= 2 && rows.Neighbors(q).empty()) return {q};
  return ConnectedKTrussIn(rows, q, k);
}

// A CSR graph with per-slot truss numbers (a TrussDecomposition's) as a
// row source. A Graph alone is one for the k-core routines.
struct CsrTrussRows {
  const Graph& g;
  const int32_t* truss;  // indexed like g.col_idx()

  int64_t num_nodes() const { return g.num_nodes(); }
  std::span<const NodeId> Neighbors(NodeId v) const { return g.Neighbors(v); }
  const int32_t* Trusses(NodeId v) const { return truss + g.row_ptr()[v]; }
};

// The routines above on a CSR graph. The three-argument forms compute a
// fresh decomposition of g per call (for k <= 2 the k-truss needs none:
// every edge is in it); the others read the one given, typically
// g.Cores() / g.Trusses(). Identical answers, order included.
std::vector<NodeId> ConnectedKCoreContaining(const Graph& g, NodeId q, int64_t k);
std::vector<NodeId> ConnectedKCoreContaining(const Graph& g, NodeId q,
                                             int64_t k,
                                             const CoreDecomposition& cores);
std::vector<NodeId> ConnectedKTrussContaining(const Graph& g, NodeId q, int64_t k);
std::vector<NodeId> ConnectedKTrussContaining(
    const Graph& g, NodeId q, int64_t k, const TrussDecomposition& trusses);
int64_t MaxTrussOf(const Graph& g, NodeId q,
                   const TrussDecomposition& trusses);

// Largest k such that ConnectedKCoreContaining(g, q, k) is non-empty: q's
// core number, from a fresh peel of g.
int64_t MaxCoreOf(const Graph& g, NodeId q);

// MaxTrussOf from edge-indexed truss numbers (TrussNumbers).
int64_t MaxTrussOf(const Graph& g, NodeId q, const EdgeList& el,
                   const std::vector<int64_t>& truss);

}  // namespace cgnp

#endif  // CGNP_GRAPH_ALGORITHMS_H_
