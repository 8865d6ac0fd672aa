#include "graph/algorithms.h"

#include <algorithm>
#include <deque>

#include "common/check.h"

namespace cgnp {

std::vector<int64_t> CoreNumbers(const Graph& g) {
  const int64_t n = g.num_nodes();
  std::vector<int64_t> deg(n);
  int64_t max_deg = 0;
  for (NodeId v = 0; v < n; ++v) {
    deg[v] = g.Degree(v);
    max_deg = std::max(max_deg, deg[v]);
  }
  // Bucket sort by degree (Batagelj-Zaversnik peeling).
  std::vector<int64_t> bin(max_deg + 2, 0);
  for (NodeId v = 0; v < n; ++v) ++bin[deg[v]];
  int64_t start = 0;
  for (int64_t d = 0; d <= max_deg; ++d) {
    const int64_t count = bin[d];
    bin[d] = start;
    start += count;
  }
  std::vector<int64_t> pos(n), vert(n);
  for (NodeId v = 0; v < n; ++v) {
    pos[v] = bin[deg[v]]++;
    vert[pos[v]] = v;
  }
  for (int64_t d = max_deg; d > 0; --d) bin[d] = bin[d - 1];
  bin[0] = 0;

  std::vector<int64_t> core(deg);
  for (int64_t i = 0; i < n; ++i) {
    const NodeId v = vert[i];
    for (NodeId u : g.Neighbors(v)) {
      if (core[u] > core[v]) {
        // Move u one bucket down.
        const int64_t du = core[u];
        const int64_t pu = pos[u];
        const int64_t pw = bin[du];
        const NodeId w = vert[pw];
        if (u != w) {
          std::swap(vert[pu], vert[pw]);
          pos[u] = pw;
          pos[w] = pu;
        }
        ++bin[du];
        --core[u];
      }
    }
  }
  return core;
}

std::vector<int64_t> ConnectedComponents(const Graph& g) {
  const int64_t n = g.num_nodes();
  std::vector<int64_t> label(n, -1);
  int64_t next = 0;
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < n; ++s) {
    if (label[s] != -1) continue;
    label[s] = next;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (NodeId u : g.Neighbors(v)) {
        if (label[u] == -1) {
          label[u] = next;
          stack.push_back(u);
        }
      }
    }
    ++next;
  }
  return label;
}

std::vector<int64_t> TriangleCounts(const Graph& g) {
  const int64_t n = g.num_nodes();
  std::vector<int64_t> tri(n, 0);
  // For each edge (u, v) with u < v, intersect sorted neighbor lists.
  for (NodeId u = 0; u < n; ++u) {
    auto nu = g.Neighbors(u);
    for (NodeId v : nu) {
      if (v <= u) continue;
      auto nv = g.Neighbors(v);
      size_t i = 0, j = 0;
      while (i < nu.size() && j < nv.size()) {
        if (nu[i] < nv[j]) {
          ++i;
        } else if (nu[i] > nv[j]) {
          ++j;
        } else {
          // Count each triangle once at its smallest vertex pair scan:
          // here w = nu[i] forms a triangle with (u, v); attribute to all
          // three endpoints but only when w > v to avoid double counting.
          const NodeId w = nu[i];
          if (w > v) {
            ++tri[u];
            ++tri[v];
            ++tri[w];
          }
          ++i;
          ++j;
        }
      }
    }
  }
  return tri;
}

std::vector<double> LocalClusteringCoefficients(const Graph& g) {
  const std::vector<int64_t> tri = TriangleCounts(g);
  const int64_t n = g.num_nodes();
  std::vector<double> lcc(n, 0.0);
  for (NodeId v = 0; v < n; ++v) {
    const int64_t d = g.Degree(v);
    if (d >= 2) {
      lcc[v] = 2.0 * static_cast<double>(tri[v]) /
               (static_cast<double>(d) * static_cast<double>(d - 1));
    }
  }
  return lcc;
}

EdgeList BuildEdgeList(const Graph& g) {
  EdgeList el;
  const int64_t n = g.num_nodes();
  el.edge_of_pos.assign(g.col_idx().size(), -1);
  // First pass: canonical edges in CSR order of the smaller endpoint.
  for (NodeId u = 0; u < n; ++u) {
    for (int64_t p = g.row_ptr()[u]; p < g.row_ptr()[u + 1]; ++p) {
      const NodeId v = g.col_idx()[p];
      if (u < v) {
        el.edge_of_pos[p] = static_cast<int64_t>(el.edges.size());
        el.edges.emplace_back(u, v);
      }
    }
  }
  // Second pass: mirror positions (u > v) point at the same edge id.
  for (NodeId u = 0; u < n; ++u) {
    for (int64_t p = g.row_ptr()[u]; p < g.row_ptr()[u + 1]; ++p) {
      const NodeId v = g.col_idx()[p];
      if (u > v) {
        // Find the mirrored CSR position via binary search in v's list.
        auto nb = g.Neighbors(v);
        const auto it = std::lower_bound(nb.begin(), nb.end(), u);
        const int64_t q = g.row_ptr()[v] + (it - nb.begin());
        el.edge_of_pos[p] = el.edge_of_pos[q];
      }
    }
  }
  return el;
}

namespace {

// Support (= number of triangles through the edge) for every edge.
std::vector<int64_t> EdgeSupports(const Graph& g, const EdgeList& el) {
  std::vector<int64_t> sup(el.edges.size(), 0);
  for (size_t e = 0; e < el.edges.size(); ++e) {
    const auto [u, v] = el.edges[e];
    auto nu = g.Neighbors(u);
    auto nv = g.Neighbors(v);
    size_t i = 0, j = 0;
    int64_t s = 0;
    while (i < nu.size() && j < nv.size()) {
      if (nu[i] < nv[j]) {
        ++i;
      } else if (nu[i] > nv[j]) {
        ++j;
      } else {
        ++s;
        ++i;
        ++j;
      }
    }
    sup[e] = s;
  }
  return sup;
}

}  // namespace

std::vector<int64_t> TrussNumbers(const Graph& g, const EdgeList& el) {
  const int64_t m = static_cast<int64_t>(el.edges.size());
  std::vector<int64_t> sup = EdgeSupports(g, el);
  int64_t max_sup = 0;
  for (int64_t e = 0; e < m; ++e) max_sup = std::max(max_sup, sup[e]);
  // Bucket sort by support, then peel in order: the Batagelj-Zaversnik
  // layout of CoreNumbers over edges (Wang & Cheng, VLDB 2012). bin[s] is
  // the position in `order` of the first unpeeled edge of support s.
  std::vector<int64_t> bin(max_sup + 2, 0);
  for (int64_t e = 0; e < m; ++e) ++bin[sup[e]];
  int64_t start = 0;
  for (int64_t s = 0; s <= max_sup; ++s) {
    const int64_t count = bin[s];
    bin[s] = start;
    start += count;
  }
  std::vector<int64_t> pos(m), order(m);
  for (int64_t e = 0; e < m; ++e) {
    pos[e] = bin[sup[e]]++;
    order[pos[e]] = e;
  }
  for (int64_t s = max_sup; s > 0; --s) bin[s] = bin[s - 1];
  bin[0] = 0;
  // Moves edge f one bucket down: swap it to the front of its bucket,
  // then shrink the bucket past it.
  const auto demote = [&](int64_t f) {
    const int64_t sf = sup[f];
    const int64_t pf = pos[f];
    const int64_t pw = bin[sf];
    const int64_t w = order[pw];
    if (f != w) {
      std::swap(order[pf], order[pw]);
      pos[f] = pw;
      pos[w] = pf;
    }
    ++bin[sf];
    --sup[f];
  };

  std::vector<int64_t> truss(m, 0);
  std::vector<char> removed(m, 0);
  for (int64_t i = 0; i < m; ++i) {
    // Supports only fall to the current level, so the peel visits them in
    // non-decreasing order and the level is the truss number.
    const int64_t e = order[i];
    const int64_t s = sup[e];
    truss[e] = s + 2;
    // Decrement supports of edges forming triangles with e.
    const auto [u, v] = el.edges[e];
    auto nu = g.Neighbors(u);
    auto nv = g.Neighbors(v);
    size_t a = 0, b = 0;
    while (a < nu.size() && b < nv.size()) {
      if (nu[a] < nv[b]) {
        ++a;
      } else if (nu[a] > nv[b]) {
        ++b;
      } else {
        // nu[a] == nv[b]: a and b locate the CSR slots of the other two
        // edges of the triangle.
        const int64_t e1 =
            el.edge_of_pos[g.row_ptr()[u] + static_cast<int64_t>(a)];
        const int64_t e2 =
            el.edge_of_pos[g.row_ptr()[v] + static_cast<int64_t>(b)];
        if (!removed[e1] && !removed[e2]) {
          if (sup[e1] > s) demote(e1);
          if (sup[e2] > s) demote(e2);
        }
        ++a;
        ++b;
      }
    }
    removed[e] = 1;
  }
  return truss;
}

std::vector<int64_t> BfsDistances(const Graph& g, NodeId src,
                                  const std::vector<char>* mask) {
  const int64_t n = g.num_nodes();
  std::vector<int64_t> dist(n, -1);
  if (mask != nullptr) {
    CGNP_CHECK((*mask)[src]) << " BfsDistances: masked-out source";
  }
  std::deque<NodeId> q;
  dist[src] = 0;
  q.push_back(src);
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop_front();
    for (NodeId u : g.Neighbors(v)) {
      if (dist[u] != -1) continue;
      if (mask != nullptr && !(*mask)[u]) continue;
      dist[u] = dist[v] + 1;
      q.push_back(u);
    }
  }
  return dist;
}

std::vector<NodeId> ConnectedKCoreContaining(const Graph& g, NodeId q, int64_t k) {
  return ConnectedKCoreContaining(g, q, k, ComputeCoreDecomposition(g));
}

std::vector<NodeId> ConnectedKCoreContaining(const Graph& g, NodeId q,
                                             int64_t k,
                                             const CoreDecomposition& cores) {
  const std::vector<int32_t>& core = cores.core;
  if (core[q] < k) return {};
  // BFS over nodes of core >= k, then members in ascending id order.
  const int64_t n = g.num_nodes();
  std::vector<char> seen(n, 0);
  std::vector<NodeId> stack = {q};
  seen[q] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId u : g.Neighbors(v)) {
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

namespace {

// BFS from q over the CSR slots `keep(p)` accepts: the connected k-truss
// containing q when `keep` selects the slots of truss >= k.
template <typename KeepSlot>
std::vector<NodeId> KTrussBfs(const Graph& g, NodeId q, int64_t k,
                              KeepSlot keep) {
  const auto row_ptr = g.row_ptr();
  const auto col_idx = g.col_idx();
  std::vector<char> seen(g.num_nodes(), 0);
  std::deque<NodeId> queue;
  std::vector<NodeId> out;
  seen[q] = 1;
  queue.push_back(q);
  bool q_has_edge = false;
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    out.push_back(v);
    for (int64_t p = row_ptr[v]; p < row_ptr[v + 1]; ++p) {
      if (!keep(p)) continue;
      if (v == q) q_has_edge = true;
      const NodeId u = col_idx[p];
      if (!seen[u]) {
        seen[u] = 1;
        queue.push_back(u);
      }
    }
  }
  if (!q_has_edge && k > 2) return {};
  return out;
}

}  // namespace

std::vector<NodeId> ConnectedKTrussContaining(const Graph& g, NodeId q, int64_t k) {
  // Every edge is in the 2-truss: below k = 3 there is nothing to peel.
  if (k <= 2) return KTrussBfs(g, q, k, [](int64_t) { return true; });
  return ConnectedKTrussContaining(g, q, k, ComputeTrussDecomposition(g));
}

std::vector<NodeId> ConnectedKTrussContaining(
    const Graph& g, NodeId q, int64_t k, const TrussDecomposition& trusses) {
  const std::vector<int32_t>& truss = trusses.truss;
  return KTrussBfs(g, q, k, [&truss, k](int64_t p) { return truss[p] >= k; });
}

int64_t MaxCoreOf(const Graph& g, NodeId q) {
  const std::vector<int64_t> core = CoreNumbers(g);
  return core[q];
}

int64_t MaxTrussOf(const Graph& g, NodeId q, const EdgeList& el,
                   const std::vector<int64_t>& truss) {
  int64_t best = g.Degree(q) > 0 ? 2 : 1;
  for (int64_t p = g.row_ptr()[q]; p < g.row_ptr()[q + 1]; ++p) {
    best = std::max(best, truss[el.edge_of_pos[p]]);
  }
  return best;
}

int64_t MaxTrussOf(const Graph& g, NodeId q,
                   const TrussDecomposition& trusses) {
  int64_t best = g.Degree(q) > 0 ? 2 : 1;
  for (int64_t p = g.row_ptr()[q]; p < g.row_ptr()[q + 1]; ++p) {
    best = std::max<int64_t>(best, trusses.truss[p]);
  }
  return best;
}

}  // namespace cgnp
