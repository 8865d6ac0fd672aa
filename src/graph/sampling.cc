#include "graph/sampling.h"

#include "common/check.h"

namespace cgnp {

namespace {

// Runs the BFS queued in `order` from `*head` until the queue is empty or
// `max_nodes` nodes have been dequeued. `order` is the queue and the
// sample at once: nodes are dequeued in the order they were enqueued, so
// the sample is its first `max_nodes` entries. Each expansion shuffles a
// copy of the node's neighbours with `rng` and enqueues the unseen ones.
void ExpandBfs(const Graph& g, int64_t max_nodes, Rng* rng,
               std::vector<char>* seen, std::vector<NodeId>* order,
               size_t* head) {
  std::vector<NodeId> nbrs;
  const size_t limit = static_cast<size_t>(max_nodes);
  while (*head < order->size() && *head < limit) {
    if (order->size() >= limit) {
      // The sample is complete: every later expansion only enqueues nodes
      // past `max_nodes`, and the queue cannot empty before `max_nodes`
      // dequeues. Keep the rng where those expansions would leave it --
      // one Shuffle of deg(v) elements each -- without touching the rows.
      for (; *head < limit; ++*head) {
        for (int64_t i = g.Degree((*order)[*head]) - 1; i > 0; --i) {
          rng->NextInt(i + 1);
        }
      }
      break;
    }
    const auto row = g.Neighbors((*order)[(*head)++]);
    nbrs.assign(row.begin(), row.end());
    rng->Shuffle(&nbrs);
    for (NodeId u : nbrs) {
      if (!(*seen)[u]) {
        (*seen)[u] = 1;
        order->push_back(u);
      }
    }
  }
}

}  // namespace

std::vector<NodeId> BfsSample(const Graph& g, NodeId seed, int64_t max_nodes,
                              Rng* rng) {
  CGNP_CHECK_GE(seed, 0);
  CGNP_CHECK_LT(seed, g.num_nodes());
  CGNP_CHECK_GT(max_nodes, 0);
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> order{seed};
  seen[seed] = 1;
  size_t head = 0;
  ExpandBfs(g, max_nodes, rng, &seen, &order, &head);
  if (static_cast<int64_t>(order.size()) > max_nodes) order.resize(max_nodes);
  return order;
}

std::vector<NodeId> BfsSampleWithRestarts(const Graph& g, NodeId seed,
                                          int64_t max_nodes, Rng* rng) {
  std::vector<char> seen(g.num_nodes(), 0);
  std::vector<NodeId> order;
  size_t head = 0;
  NodeId start = seed;
  while (static_cast<int64_t>(head) < max_nodes) {
    if (seen[start]) {
      // Find an unseen restart node; give up when the graph is exhausted.
      NodeId candidate = -1;
      for (int attempts = 0; attempts < 32; ++attempts) {
        const NodeId r = rng->NextInt(g.num_nodes());
        if (!seen[r]) {
          candidate = r;
          break;
        }
      }
      if (candidate == -1) {
        for (NodeId v = 0; v < g.num_nodes() && candidate == -1; ++v) {
          if (!seen[v]) candidate = v;
        }
      }
      if (candidate == -1) break;  // whole graph sampled
      start = candidate;
    }
    seen[start] = 1;
    order.push_back(start);
    ExpandBfs(g, max_nodes, rng, &seen, &order, &head);
  }
  if (static_cast<int64_t>(order.size()) > max_nodes) order.resize(max_nodes);
  return order;
}

}  // namespace cgnp
