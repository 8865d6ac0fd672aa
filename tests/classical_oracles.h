// Reference implementations of the classical community routines as they
// were written before the connected k-core / k-truss communities became
// one routine over a row source (graph/algorithms.h): the closest truss
// community with a BFS per shrink step at both ends of the step, the
// attributed truss community with an edge-list truss peel for its k and a
// second decomposition for its k-truss, and the dynamic index's own
// k-core and k-truss BFSes over sorted rows. Each must give its library
// counterpart's members in the same order.
#ifndef CGNP_TESTS_CLASSICAL_ORACLES_H_
#define CGNP_TESTS_CLASSICAL_ORACLES_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "cs/atc.h"
#include "cs/ctc.h"
#include "graph/algorithms.h"
#include "graph/decomposition.h"
#include "graph/delta.h"
#include "graph/graph.h"

namespace cgnp {
namespace oracle {

inline std::vector<NodeId> ClosestTrussCommunity(
    const Graph& g, NodeId q, const CtcConfig& config,
    const TrussDecomposition& trusses) {
  CGNP_CHECK_GE(q, 0);  // NOLINT(cgnp-no-abort): validated precondition -- the registry adapter's ValidateQueryInput rejects this with Status before dispatch
  CGNP_CHECK_LT(q, g.num_nodes());  // NOLINT(cgnp-no-abort): validated precondition -- the registry adapter's ValidateQueryInput rejects this with Status before dispatch
  const int64_t k = config.k < 0 ? MaxTrussOf(g, q, trusses) : config.k;
  std::vector<NodeId> base = ConnectedKTrussContaining(g, q, k, trusses);
  if (base.size() <= 1) return {q};

  // Work on the induced subgraph; local ids index into `global`.
  std::vector<NodeId> global = base;
  std::vector<NodeId> new_of_old;
  Graph sub = InducedSubgraph(g, global, &new_of_old);
  NodeId local_q = new_of_old[q];

  std::vector<NodeId> best = global;
  int64_t best_ecc = -1;
  {
    const auto dist = BfsDistances(sub, local_q);
    for (NodeId v = 0; v < sub.num_nodes(); ++v)
      best_ecc = std::max(best_ecc, dist[v]);
  }

  for (int64_t iter = 0; iter < config.max_peel_iters; ++iter) {
    const auto dist = BfsDistances(sub, local_q);
    int64_t ecc = 0;
    for (NodeId v = 0; v < sub.num_nodes(); ++v) ecc = std::max(ecc, dist[v]);
    if (ecc <= 1) break;  // cannot shrink below the query's neighborhood
    // Bulk-delete every node at maximum distance, then restore the k-truss.
    std::vector<NodeId> keep;
    for (NodeId v = 0; v < sub.num_nodes(); ++v) {
      if (dist[v] >= 0 && dist[v] < ecc) keep.push_back(v);
    }
    if (static_cast<int64_t>(keep.size()) <= 1) break;
    std::vector<NodeId> keep_global(keep.size());
    for (size_t i = 0; i < keep.size(); ++i) keep_global[i] = global[keep[i]];
    Graph pruned = InducedSubgraph(sub, keep, &new_of_old);
    const NodeId pruned_q = new_of_old[local_q];
    CGNP_CHECK_GE(pruned_q, 0);  // NOLINT(cgnp-no-abort): validated precondition -- the registry adapter's ValidateQueryInput rejects this with Status before dispatch
    std::vector<NodeId> reduced = ConnectedKTrussContaining(pruned, pruned_q, k);
    if (reduced.size() <= 1) break;  // infeasible; keep the last feasible set
    // Re-index to global ids and adopt as the new working subgraph.
    std::vector<NodeId> reduced_global(reduced.size());
    for (size_t i = 0; i < reduced.size(); ++i)
      reduced_global[i] = keep_global[reduced[i]];
    global = std::move(reduced_global);
    sub = InducedSubgraph(g, global, &new_of_old);
    local_q = new_of_old[q];
    // Evaluate the new candidate.
    const auto d2 = BfsDistances(sub, local_q);
    int64_t ecc2 = 0;
    for (NodeId v = 0; v < sub.num_nodes(); ++v) ecc2 = std::max(ecc2, d2[v]);
    if (ecc2 < best_ecc ||
        (ecc2 == best_ecc && global.size() < best.size())) {
      best_ecc = ecc2;
      best = global;
    }
  }
  return best;
}

inline std::vector<NodeId> AttributedTrussCommunity(const Graph& g, NodeId q,
                                                    const AtcConfig& config) {
  CGNP_CHECK_GE(q, 0);  // NOLINT(cgnp-no-abort): validated precondition -- the registry adapter's ValidateQueryInput rejects this with Status before dispatch
  CGNP_CHECK_LT(q, g.num_nodes());  // NOLINT(cgnp-no-abort): validated precondition -- the registry adapter's ValidateQueryInput rejects this with Status before dispatch
  const std::vector<int32_t> query_attrs = g.Attributes(q);

  // Step 1: restrict to the d-hop ball around q.
  const auto dist = BfsDistances(g, q);
  std::vector<NodeId> ball;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (dist[v] >= 0 && dist[v] <= config.d) ball.push_back(v);
  }
  std::vector<NodeId> new_of_old;
  Graph sub = InducedSubgraph(g, ball, &new_of_old);
  NodeId local_q = new_of_old[q];

  // Step 2: maximal connected k-truss containing q inside the ball.
  int64_t k = config.k;
  if (k < 0) {
    const EdgeList el = BuildEdgeList(sub);
    const std::vector<int64_t> truss = TrussNumbers(sub, el);
    k = MaxTrussOf(sub, local_q, el, truss);
  }
  std::vector<NodeId> local = ConnectedKTrussContaining(sub, local_q, k);
  if (local.size() <= 1) return {q};
  std::vector<NodeId> global(local.size());
  for (size_t i = 0; i < local.size(); ++i) global[i] = ball[local[i]];

  // Step 3: greedy peel driven by attribute score.
  std::vector<NodeId> best = global;
  double best_score = AtcAttributeScore(g, global, query_attrs);
  std::vector<NodeId> current = global;
  for (int64_t iter = 0; iter < config.max_peel_iters; ++iter) {
    if (current.size() <= 2) break;
    // Candidate to remove: the member with the fewest query attributes
    // (cheap proxy for the score gradient used by LocATC).
    NodeId worst = -1;
    int64_t worst_overlap = INT64_MAX;
    for (NodeId v : current) {
      if (v == q) continue;
      const auto& av = g.Attributes(v);
      int64_t overlap = 0;
      for (int32_t w : query_attrs) {
        if (std::binary_search(av.begin(), av.end(), w)) ++overlap;
      }
      if (overlap < worst_overlap) {
        worst_overlap = overlap;
        worst = v;
      }
    }
    if (worst == -1) break;
    // Remove it and restore the (k, d)-truss constraint.
    std::vector<NodeId> keep;
    for (NodeId v : current) {
      if (v != worst) keep.push_back(v);
    }
    std::vector<NodeId> map;
    Graph pruned = InducedSubgraph(g, keep, &map);
    const NodeId pruned_q = map[q];
    std::vector<NodeId> reduced = ConnectedKTrussContaining(pruned, pruned_q, k);
    if (reduced.size() <= 1) break;
    std::vector<NodeId> reduced_global(reduced.size());
    for (size_t i = 0; i < reduced.size(); ++i)
      reduced_global[i] = keep[reduced[i]];
    current = std::move(reduced_global);
    const double score = AtcAttributeScore(g, current, query_attrs);
    if (score > best_score) {
      best_score = score;
      best = current;
    }
  }
  return best;
}

// The body of DynamicCommunityIndex::KCoreCommunity after validation, over
// the index's rows and core numbers.
inline std::vector<NodeId> IndexKCoreCommunity(const SortedAdjacency& adj,
                                               const std::vector<int64_t>& core,
                                               NodeId q, int64_t k) {
  // Same contract as the batch KCoreCommunity: k = -1 means the maximal
  // feasible k for q (its core number), k = 0 is trivially {q}.
  if (k < 0) k = core[q];
  if (k == 0) return std::vector<NodeId>{q};
  if (core[q] < k) return std::vector<NodeId>{};
  // Connected k-core containing q, members in ascending id order --
  // exactly what ConnectedKCoreContaining produces.
  const int64_t n = static_cast<int64_t>(adj.size());
  std::vector<char> seen(n, 0);
  std::vector<NodeId> stack{q};
  seen[q] = 1;
  while (!stack.empty()) {
    const NodeId w = stack.back();
    stack.pop_back();
    for (const NodeId x : adj[w]) {
      if (core[x] >= k && !seen[x]) {
        seen[x] = 1;
        stack.push_back(x);
      }
    }
  }
  std::vector<NodeId> out;
  for (NodeId v = 0; v < n; ++v) {
    if (seen[v]) out.push_back(v);
  }
  return out;
}

// The body of DynamicCommunityIndex::KTrussCommunity after validation,
// over the index's rows and the truss numbers parallel to them.
inline std::vector<NodeId> IndexKTrussCommunity(
    const SortedAdjacency& adj, const std::vector<std::vector<int32_t>>& rows,
    NodeId q, int64_t k) {
  if (k < 0) {
    // Max feasible k for q: the strongest truss among q's incident edges
    // (2 when q has edges but no triangles, 1 when isolated) -- the
    // MaxTrussOf contract.
    int64_t best = adj[q].empty() ? 1 : 2;
    for (const int32_t t : rows[q]) best = std::max<int64_t>(best, t);
    k = best;
  }
  if (k <= 2 && adj[q].empty()) return std::vector<NodeId>{q};
  // BFS from q over edges with truss >= k, members in BFS discovery order
  // -- byte-for-byte the ConnectedKTrussContaining traversal (sorted
  // adjacency gives the same push order as the CSR).
  const int64_t n = static_cast<int64_t>(adj.size());
  std::vector<char> seen(n, 0);
  std::vector<NodeId> out{q};  // doubles as the BFS queue
  seen[q] = 1;
  bool q_has_edge = false;
  for (size_t head = 0; head < out.size(); ++head) {
    const NodeId w = out[head];
    const std::vector<int32_t>& truss = rows[w];
    for (size_t i = 0; i < adj[w].size(); ++i) {
      if (truss[i] < k) continue;
      const NodeId x = adj[w][i];
      if (w == q) q_has_edge = true;
      if (!seen[x]) {
        seen[x] = 1;
        out.push_back(x);
      }
    }
  }
  if (!q_has_edge && k > 2) return std::vector<NodeId>{};
  return out;
}

}  // namespace oracle
}  // namespace cgnp

#endif  // CGNP_TESTS_CLASSICAL_ORACLES_H_
