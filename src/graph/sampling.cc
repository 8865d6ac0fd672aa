#include "graph/sampling.h"

#include "common/check.h"

namespace cgnp {

std::vector<NodeId> BfsSample(const Graph& g, NodeId seed, int64_t max_nodes,
                              Rng* rng) {
  CGNP_CHECK_GE(seed, 0);
  CGNP_CHECK_LT(seed, g.num_nodes());
  CGNP_CHECK_GT(max_nodes, 0);
  // `order` is the BFS queue and the sample at once: nodes are dequeued in
  // the order they were enqueued, so the sample is its first `max_nodes`
  // entries. Each expansion shuffles a copy of the node's neighbours with
  // `rng` and enqueues the unseen ones.
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> order{seed};
  seen[seed] = 1;
  std::vector<NodeId> nbrs;
  const size_t limit = static_cast<size_t>(max_nodes);
  size_t head = 0;
  while (head < order.size() && head < limit) {
    if (order.size() >= limit) {
      // The sample is complete: every later expansion only enqueues nodes
      // past `max_nodes`, and the queue cannot empty before `max_nodes`
      // dequeues. Keep the rng where those expansions would leave it --
      // one Shuffle of deg(v) elements each -- without touching the rows.
      for (; head < limit; ++head) {
        for (int64_t i = g.Degree(order[head]) - 1; i > 0; --i) {
          rng->NextInt(i + 1);
        }
      }
      break;
    }
    const auto row = g.Neighbors(order[head++]);
    nbrs.assign(row.begin(), row.end());
    rng->Shuffle(&nbrs);
    for (NodeId u : nbrs) {
      if (!seen[u]) {
        seen[u] = 1;
        order.push_back(u);
      }
    }
  }
  if (order.size() > limit) order.resize(limit);
  return order;
}

}  // namespace cgnp
