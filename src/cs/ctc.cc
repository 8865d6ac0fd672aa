#include "cs/ctc.h"

#include <algorithm>

#include "common/check.h"
#include "graph/algorithms.h"

namespace cgnp {

std::vector<NodeId> ClosestTrussCommunity(const Graph& g, NodeId q,
                                          const CtcConfig& config) {
  return ClosestTrussCommunity(g, q, config, ComputeTrussDecomposition(g));
}

std::vector<NodeId> ClosestTrussCommunity(const Graph& g, NodeId q,
                                          const CtcConfig& config,
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

}  // namespace cgnp
