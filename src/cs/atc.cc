#include "cs/atc.h"

#include <algorithm>

#include "common/check.h"
#include "graph/algorithms.h"

namespace cgnp {

double AtcAttributeScore(const Graph& g, const std::vector<NodeId>& members,
                         const std::vector<int32_t>& query_attrs) {
  if (members.empty() || query_attrs.empty()) return 0.0;
  double score = 0.0;
  for (int32_t w : query_attrs) {
    int64_t count = 0;
    for (NodeId v : members) {
      const auto& av = g.Attributes(v);
      if (std::binary_search(av.begin(), av.end(), w)) ++count;
    }
    score += static_cast<double>(count) * static_cast<double>(count) /
             static_cast<double>(members.size());
  }
  return score;
}

std::vector<NodeId> AttributedTrussCommunity(const Graph& g, NodeId q,
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
  // With k < 0, one decomposition of the ball serves both the k and the
  // k-truss.
  int64_t k = config.k;
  std::vector<NodeId> local;
  if (k < 0) {
    const TrussDecomposition trusses = ComputeTrussDecomposition(sub);
    k = MaxTrussOf(sub, local_q, trusses);
    local = ConnectedKTrussContaining(sub, local_q, k, trusses);
  } else {
    local = ConnectedKTrussContaining(sub, local_q, k);
  }
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

}  // namespace cgnp
