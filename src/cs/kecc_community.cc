#include "cs/kecc_community.h"

#include <algorithm>

#include "common/check.h"
#include "graph/algorithms.h"
#include "graph/mincut.h"

namespace cgnp {

namespace {

// SteinerKEcc with its whole-graph k-core step read from `cores`; the
// recursion re-peels its own pruned subgraphs.
std::vector<NodeId> SteinerKEccFrom(const Graph& g, NodeId q, int64_t k,
                                    const CoreDecomposition& cores) {
  CGNP_CHECK_GE(k, 1);  // NOLINT(cgnp-no-abort): validated precondition -- the registry adapter's ValidateQueryInput rejects this with Status before dispatch
  // Start from the connected k-core around q (edge connectivity k implies
  // min degree k, so the k-core is a sound pruning step that shrinks the
  // min-cut recursion).
  std::vector<NodeId> nodes = ConnectedKCoreContaining(g, q, k, cores);
  if (nodes.size() < 2) return {};
  while (true) {
    std::vector<NodeId> map;
    Graph sub = InducedSubgraph(g, nodes, &map);
    const MinCutResult cut = GlobalMinCut(sub);
    if (cut.cut_weight >= k) return nodes;
    // Split along the cut; keep the side containing q, restore the k-core
    // invariant, and recurse.
    std::vector<char> in_partition(sub.num_nodes(), 0);
    for (NodeId v : cut.partition) in_partition[v] = 1;
    const bool q_side = in_partition[map[q]];
    std::vector<NodeId> kept_local;
    for (NodeId v = 0; v < sub.num_nodes(); ++v) {
      if ((in_partition[v] != 0) == q_side) kept_local.push_back(v);
    }
    if (static_cast<int64_t>(kept_local.size()) >= static_cast<int64_t>(nodes.size())) {
      return {};  // no progress (defensive; cannot happen for cut < k)
    }
    std::vector<NodeId> kept_global(kept_local.size());
    for (size_t i = 0; i < kept_local.size(); ++i) {
      kept_global[i] = nodes[kept_local[i]];
    }
    std::vector<NodeId> remap;
    Graph pruned = InducedSubgraph(g, kept_global, &remap);
    if (remap[q] < 0) return {};
    std::vector<NodeId> core_local = ConnectedKCoreContaining(pruned, remap[q], k);
    if (core_local.size() < 2) return {};
    std::vector<NodeId> next(core_local.size());
    for (size_t i = 0; i < core_local.size(); ++i) {
      next[i] = kept_global[core_local[i]];
    }
    nodes = std::move(next);
  }
}

}  // namespace

std::vector<NodeId> SteinerKEcc(const Graph& g, NodeId q, int64_t k) {
  return SteinerKEccFrom(g, q, k, ComputeCoreDecomposition(g));
}

std::vector<NodeId> KEccCommunity(const Graph& g, NodeId q,
                                  const KEccConfig& config) {
  return KEccCommunity(g, q, config, ComputeCoreDecomposition(g));
}

std::vector<NodeId> KEccCommunity(const Graph& g, NodeId q,
                                  const KEccConfig& config,
                                  const CoreDecomposition& cores) {
  CGNP_CHECK_GE(q, 0);  // NOLINT(cgnp-no-abort): validated precondition -- the registry adapter's ValidateQueryInput rejects this with Status before dispatch
  CGNP_CHECK_LT(q, g.num_nodes());  // NOLINT(cgnp-no-abort): validated precondition -- the registry adapter's ValidateQueryInput rejects this with Status before dispatch
  if (config.k > 0) {
    auto result = SteinerKEccFrom(g, q, config.k, cores);
    if (result.empty()) result.push_back(q);
    return result;
  }
  // Maximise k: edge connectivity around q is bounded by its core number.
  const int64_t k_max = std::max<int64_t>(1, cores.core[q]);
  std::vector<NodeId> best = {q};
  // Binary search over feasibility (feasible(k) is monotone decreasing).
  int64_t lo = 1, hi = k_max;
  while (lo <= hi) {
    const int64_t mid = (lo + hi) / 2;
    auto result = SteinerKEccFrom(g, q, mid, cores);
    if (!result.empty()) {
      best = std::move(result);
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return best;
}

}  // namespace cgnp
