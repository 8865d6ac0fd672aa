#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>

#include "common/check.h"
#include "common/parallel.h"

namespace cgnp {

namespace {

// BuildFromSortedRows's contract on the rows: offsets non-decreasing, each
// row strictly ascending (so duplicate-free), in range, loop-free, and
// every entry mirrored in its neighbour's row.
[[maybe_unused]] bool RowsAreCanonical(const std::vector<int64_t>& row_ptr,
                                       const std::vector<NodeId>& col_idx) {
  const int64_t n = static_cast<int64_t>(row_ptr.size()) - 1;
  for (NodeId v = 0; v < n; ++v) {
    if (row_ptr[v] > row_ptr[v + 1]) return false;
    for (int64_t e = row_ptr[v]; e < row_ptr[v + 1]; ++e) {
      const NodeId u = col_idx[e];
      if (u < 0 || u >= n || u == v) return false;
      if (e > row_ptr[v] && col_idx[e - 1] >= u) return false;
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    for (int64_t e = row_ptr[v]; e < row_ptr[v + 1]; ++e) {
      const NodeId u = col_idx[e];
      if (!std::binary_search(col_idx.begin() + row_ptr[u],
                              col_idx.begin() + row_ptr[u + 1], v)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

Status CheckNodeId(const Graph& g, NodeId v, const char* what) {
  if (v < 0 || v >= g.num_nodes()) {
    return OutOfRangeError(std::string(what) + " node id " +
                           std::to_string(v) + " out of range [0, " +
                           std::to_string(g.num_nodes()) + ")");
  }
  return Status::Ok();
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  auto nb = Neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

Tensor Graph::FeatureTensor() const {
  CGNP_CHECK(has_features());
  const auto f = features();
  return Tensor::FromVector({num_nodes_, feature_dim_},
                            std::vector<float>(f.begin(), f.end()));
}

void Graph::SetFeatures(int64_t dim, std::vector<float> features) {
  CGNP_CHECK_GT(dim, 0);
  CGNP_CHECK_EQ(static_cast<int64_t>(features.size()), num_nodes_ * dim);
  feature_dim_ = dim;
  features_ = std::move(features);
  features_view_ = {};
}

const std::vector<int32_t>& Graph::Attributes(NodeId v) const {
  static const std::vector<int32_t> kEmpty;
  if (attrs_.empty()) return kEmpty;
  return attrs_[v];
}

int64_t Graph::num_communities() const {
  int64_t mx = -1;
  for (int64_t c : communities()) mx = std::max(mx, c);
  return mx + 1;
}

std::vector<NodeId> Graph::CommunityMembers(int64_t c) const {
  const auto comm = communities();
  std::vector<NodeId> out;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    if (comm[v] == c) out.push_back(v);
  }
  return out;
}

const SparseMatrix& Graph::GcnAdjacency() const {
  if (gcn_adj_built_) return gcn_adj_;
  // A_hat = D^{-1/2} (A + I) D^{-1/2}, with D the degree of (A + I).
  const int64_t n = num_nodes_;
  std::vector<float> inv_sqrt_deg(n);
  ParallelFor(0, n, /*grain=*/1024, [&](int64_t lo, int64_t hi) {
    for (NodeId v = lo; v < hi; ++v) {
      inv_sqrt_deg[v] = 1.0f / std::sqrt(static_cast<float>(Degree(v) + 1));
    }
  });
  std::vector<int64_t> rp(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) rp[v + 1] = rp[v] + Degree(v) + 1;
  std::vector<int64_t> ci(rp[n]);
  std::vector<float> vals(rp[n]);
  // Each node fills its own [rp[v], rp[v+1]) slice -- disjoint per chunk.
  ParallelFor(0, n, /*grain=*/256, [&](int64_t lo, int64_t hi) {
    for (NodeId v = lo; v < hi; ++v) {
      int64_t pos = rp[v];
      bool self_placed = false;
      for (NodeId u : Neighbors(v)) {
        if (!self_placed && u > v) {
          ci[pos] = v;
          vals[pos] = inv_sqrt_deg[v] * inv_sqrt_deg[v];
          ++pos;
          self_placed = true;
        }
        ci[pos] = u;
        vals[pos] = inv_sqrt_deg[v] * inv_sqrt_deg[u];
        ++pos;
      }
      if (!self_placed) {
        ci[pos] = v;
        vals[pos] = inv_sqrt_deg[v] * inv_sqrt_deg[v];
        ++pos;
      }
      CGNP_CHECK_EQ(pos, rp[v + 1]);
    }
  });
  gcn_adj_ = SparseMatrix(n, n, std::move(rp), std::move(ci), std::move(vals));
  gcn_adj_.set_is_symmetric(true);
  gcn_adj_built_ = true;
  return gcn_adj_;
}

const SparseMatrix& Graph::MeanAdjacency() const {
  if (mean_adj_built_) return mean_adj_;
  const int64_t n = num_nodes_;
  std::vector<int64_t> rp(row_ptr().begin(), row_ptr().end());
  std::vector<int64_t> ci(col_idx().begin(), col_idx().end());
  std::vector<float> vals(ci.size());
  ParallelFor(0, n, /*grain=*/512, [&](int64_t lo, int64_t hi) {
    for (NodeId v = lo; v < hi; ++v) {
      const float inv =
          Degree(v) > 0 ? 1.0f / static_cast<float>(Degree(v)) : 0.0f;
      for (int64_t e = rp[v]; e < rp[v + 1]; ++e) vals[e] = inv;
    }
  });
  mean_adj_ = SparseMatrix(n, n, std::move(rp), std::move(ci), std::move(vals));
  // Row-normalisation breaks symmetry; backward uses the explicit transpose.
  mean_adj_.set_is_symmetric(false);
  mean_adj_built_ = true;
  return mean_adj_;
}

const Graph::EdgeIndex& Graph::AttentionEdges() const {
  if (attn_edges_built_) return attn_edges_;
  const int64_t n = num_nodes_;
  EdgeIndex idx;
  idx.seg_ptr.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) idx.seg_ptr[v + 1] = idx.seg_ptr[v] + Degree(v) + 1;
  const int64_t m = idx.seg_ptr[n];
  idx.src.resize(m);
  idx.dst.resize(m);
  // Each node fills its own segment -- disjoint per chunk.
  ParallelFor(0, n, /*grain=*/256, [&](int64_t lo, int64_t hi) {
    for (NodeId v = lo; v < hi; ++v) {
      int64_t pos = idx.seg_ptr[v];
      idx.src[pos] = v;  // self loop first
      idx.dst[pos] = v;
      ++pos;
      for (NodeId u : Neighbors(v)) {
        idx.src[pos] = u;
        idx.dst[pos] = v;
        ++pos;
      }
    }
  });
  attn_edges_ = std::move(idx);
  attn_edges_built_ = true;
  return attn_edges_;
}

GraphBuilder::GraphBuilder(int64_t num_nodes) : num_nodes_(num_nodes) {
  CGNP_CHECK_GE(num_nodes, 0);
}

void GraphBuilder::AddEdge(NodeId u, NodeId v) {
  CGNP_CHECK_GE(u, 0);
  CGNP_CHECK_LT(u, num_nodes_);
  CGNP_CHECK_GE(v, 0);
  CGNP_CHECK_LT(v, num_nodes_);
  edges_.emplace_back(u, v);
}

void GraphBuilder::SetFeatures(int64_t dim, std::vector<float> features) {
  CGNP_CHECK_EQ(static_cast<int64_t>(features.size()), num_nodes_ * dim);
  feature_dim_ = dim;
  features_ = std::move(features);
}

void GraphBuilder::SetAttributes(std::vector<std::vector<int32_t>> attrs) {
  CGNP_CHECK_EQ(static_cast<int64_t>(attrs.size()), num_nodes_);
  attrs_ = std::move(attrs);
  for (auto& a : attrs_) {
    if (!std::is_sorted(a.begin(), a.end())) std::sort(a.begin(), a.end());
  }
}

void GraphBuilder::SetCommunities(std::vector<int64_t> community) {
  CGNP_CHECK_EQ(static_cast<int64_t>(community.size()), num_nodes_);
  community_ = std::move(community);
}

Graph GraphBuilder::Build() {
  // Canonicalise: drop self loops, deduplicate, emit both directions sorted.
  //
  // Parallel CSR construction. Instead of globally sorting the directed edge
  // list (O(E log E) serial), bucket edges per node with a counting pass and
  // prefix sum, then sort + dedup each node's bucket independently
  // (ParallelFor over nodes) and compact through a second prefix sum. Every
  // adjacency list ends up sorted and duplicate-free, which is exactly what
  // the global sort produced -- the CSR is identical for any thread count.
  const int64_t n = num_nodes_;
  std::vector<int64_t> deg(n, 0);
  for (auto [u, v] : edges_) {
    if (u == v) continue;
    ++deg[u];
    ++deg[v];
  }
  std::vector<int64_t> bucket_ptr(n + 1, 0);
  for (int64_t i = 0; i < n; ++i) bucket_ptr[i + 1] = bucket_ptr[i] + deg[i];
  std::vector<NodeId> bucket(bucket_ptr[n]);
  {
    std::vector<int64_t> cursor(bucket_ptr.begin(), bucket_ptr.end() - 1);
    for (auto [u, v] : edges_) {
      if (u == v) continue;
      bucket[cursor[u]++] = v;
      bucket[cursor[v]++] = u;
    }
  }
  // The buckets hold every edge now; release the soup before the CSR is
  // allocated (a builder builds once: features and labels move out too).
  std::vector<std::pair<NodeId, NodeId>>().swap(edges_);
  // Per-node sort + dedup, in place within each node's disjoint slice.
  std::vector<int64_t> uniq(n, 0);
  ParallelFor(0, n, /*grain=*/256, [&](int64_t lo, int64_t hi) {
    for (int64_t v = lo; v < hi; ++v) {
      NodeId* first = bucket.data() + bucket_ptr[v];
      NodeId* last = bucket.data() + bucket_ptr[v + 1];
      std::sort(first, last);
      uniq[v] = std::unique(first, last) - first;
    }
  });

  std::vector<int64_t> row_ptr(n + 1, 0);
  for (int64_t i = 0; i < n; ++i) row_ptr[i + 1] = row_ptr[i] + uniq[i];
  if (row_ptr[n] == bucket_ptr[n]) {
    // No duplicates: the buckets already are the CSR.
    return BuildFromSortedRows(std::move(row_ptr), std::move(bucket));
  }
  std::vector<NodeId> col_idx(row_ptr[n]);
  ParallelFor(0, n, /*grain=*/256, [&](int64_t lo, int64_t hi) {
    for (int64_t v = lo; v < hi; ++v) {
      std::copy(bucket.begin() + bucket_ptr[v],
                bucket.begin() + bucket_ptr[v] + uniq[v],
                col_idx.begin() + row_ptr[v]);
    }
  });
  return BuildFromSortedRows(std::move(row_ptr), std::move(col_idx));
}

Graph GraphBuilder::BuildFromSortedRows(std::vector<int64_t> row_ptr,
                                        std::vector<NodeId> col_idx) {
  CGNP_CHECK(edges_.empty()) << " BuildFromSortedRows takes no AddEdge pairs";
  CGNP_CHECK_EQ(static_cast<int64_t>(row_ptr.size()), num_nodes_ + 1);
  CGNP_CHECK_EQ(row_ptr.front(), 0);
  CGNP_CHECK_EQ(row_ptr.back(), static_cast<int64_t>(col_idx.size()));
  assert(RowsAreCanonical(row_ptr, col_idx));
  Graph g;
  g.num_nodes_ = num_nodes_;
  g.row_ptr_ = std::move(row_ptr);
  g.col_idx_ = std::move(col_idx);
  g.feature_dim_ = feature_dim_;
  g.features_ = std::move(features_);
  g.attrs_ = std::move(attrs_);
  g.community_ = std::move(community_);
  return g;
}

Graph InducedSubgraph(const Graph& g, const std::vector<NodeId>& nodes,
                      std::vector<NodeId>* new_of_old) {
  std::vector<NodeId> map(g.num_nodes(), -1);
  for (size_t i = 0; i < nodes.size(); ++i) {
    CGNP_CHECK_EQ(map[nodes[i]], -1) << " duplicate node in InducedSubgraph";
    map[nodes[i]] = static_cast<NodeId>(i);
  }
  // Two passes over the parent's rows, no sort. The first keeps each
  // sampled node's sampled neighbours, renamed to local ids, in `kept`
  // (branch-free: every id is written, the cursor only advances past
  // sampled ones), which sizes every row. The second walks `kept` in
  // local-id order j and appends j to the row of each neighbour i: rows
  // fill in ascending order, and by symmetry row i ends up holding exactly
  // the local neighbours of i.
  const int64_t k = static_cast<int64_t>(nodes.size());
  int64_t parent_slots = 0;
  for (NodeId v : nodes) parent_slots += g.Degree(v);
  std::vector<NodeId> kept(static_cast<size_t>(parent_slots));
  std::vector<int64_t> row_ptr(k + 1, 0);
  int64_t pos = 0;
  for (int64_t j = 0; j < k; ++j) {
    for (NodeId u : g.Neighbors(nodes[j])) {
      kept[pos] = map[u];
      pos += map[u] >= 0;
    }
    row_ptr[j + 1] = pos;
  }
  std::vector<NodeId> col_idx(static_cast<size_t>(pos));
  std::vector<int64_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (int64_t j = 0; j < k; ++j) {
    for (int64_t e = row_ptr[j]; e < row_ptr[j + 1]; ++e) {
      col_idx[cursor[kept[e]]++] = j;
    }
  }
  GraphBuilder b(k);
  if (g.has_features()) {
    const int64_t d = g.feature_dim();
    std::vector<float> feats(nodes.size() * d);
    for (size_t i = 0; i < nodes.size(); ++i) {
      const float* src = g.features().data() + nodes[i] * d;
      std::copy(src, src + d, feats.data() + i * d);
    }
    b.SetFeatures(d, std::move(feats));
  }
  if (g.has_attributes()) {
    std::vector<std::vector<int32_t>> attrs(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) attrs[i] = g.Attributes(nodes[i]);
    b.SetAttributes(std::move(attrs));
  }
  if (g.has_communities()) {
    std::vector<int64_t> comm(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) comm[i] = g.CommunityOf(nodes[i]);
    b.SetCommunities(std::move(comm));
  }
  if (new_of_old != nullptr) *new_of_old = std::move(map);
  return b.BuildFromSortedRows(std::move(row_ptr), std::move(col_idx));
}

}  // namespace cgnp
