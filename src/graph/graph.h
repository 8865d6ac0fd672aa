// Immutable undirected attributed graph in CSR form.
//
// A Graph stores:
//   * structure: CSR adjacency (every undirected edge appears in both
//     directions; no self loops; no parallel edges),
//   * optional dense node features (row-major n x d floats) used as GNN
//     inputs,
//   * optional discrete attribute-id sets per node (used by the attributed
//     community-search algorithms ACQ and ATC, mirroring the paper's one-hot
//     attribute vectors A(v)),
//   * optional ground-truth community labels (community id per node, -1 if
//     unlabelled) used by the dataset substrate to derive training samples.
//
// Construction goes through GraphBuilder, which deduplicates edges and
// canonicalises the CSR ordering (sorted neighbor lists), so algorithms can
// rely on sorted adjacency for O(deg) set intersections. Builders whose
// rows are canonical already (induced subgraphs, delta compaction) hand
// them over as they are through GraphBuilder::BuildFromSortedRows.
//
// Storage backing. A Graph is a *view over storage*: the CSR arrays (and
// the dense feature / community arrays) are exposed as spans which are
// backed either by owned heap vectors (GraphBuilder::Build, the loaders'
// copying path) or by a read-only memory-mapped graph container
// (graph/format.h, MapGraphBinary) -- million-node graphs then load in
// O(pages touched) without materialising vectors. Both backings satisfy
// the same invariants (the binary loader validates them before handing a
// Graph out) and every algorithm in the library runs on either. Copies of
// a mapped Graph share one mapping via shared_ptr; the pages unmap when
// the last copy dies.
#ifndef CGNP_GRAPH_GRAPH_H_
#define CGNP_GRAPH_GRAPH_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/lazy.h"
#include "common/status.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace cgnp {

using NodeId = int64_t;

class MappedFile;  // graph/storage.h; held only behind shared_ptr here
struct CoreDecomposition;   // graph/decomposition.h
struct TrussDecomposition;  // graph/decomposition.h

// Which storage backs a Graph's CSR spans.
enum class GraphBacking {
  kVector,  // owned heap vectors (GraphBuilder, copying loaders)
  kMapped,  // read-only mmap of a binary graph container (format.h)
};

class Graph {
 public:
  Graph() = default;

  int64_t num_nodes() const { return num_nodes_; }
  // Number of undirected edges. No precondition: a default-constructed /
  // empty graph answers 0 (row_ptr() is always at least {0}).
  int64_t num_edges() const { return static_cast<int64_t>(col_idx().size()) / 2; }

  // Precondition: v in [0, num_nodes()) -- in particular NO id is valid on
  // an empty graph. Asserted in debug builds; it is unchecked in release
  // builds (this is the hottest accessor in the library), so external
  // input must be gated through the Status-returning CheckNodeId() below
  // before reaching here. Same contract for Neighbors().
  int64_t Degree(NodeId v) const {
    assert(v >= 0 && v < num_nodes_);
    const auto rp = row_ptr();
    return rp[v + 1] - rp[v];
  }
  // Sorted neighbor list of v. Precondition: v in [0, num_nodes()), as
  // Degree() documents.
  std::span<const NodeId> Neighbors(NodeId v) const {
    assert(v >= 0 && v < num_nodes_);
    const auto rp = row_ptr();
    return col_idx().subspan(rp[v], static_cast<size_t>(rp[v + 1] - rp[v]));
  }
  bool HasEdge(NodeId u, NodeId v) const;

  // CSR arrays of the current backing. Valid as long as this Graph (or any
  // copy of it) is alive; for mapped graphs they point straight into the
  // file's pages.
  std::span<const int64_t> row_ptr() const {
    return mapping_ ? row_ptr_view_ : std::span<const int64_t>(row_ptr_);
  }
  std::span<const NodeId> col_idx() const {
    return mapping_ ? col_idx_view_ : std::span<const NodeId>(col_idx_);
  }

  // --- Storage backing ------------------------------------------------------
  GraphBacking backing() const {
    return mapping_ ? GraphBacking::kMapped : GraphBacking::kVector;
  }
  // Stable identity of the backing container for mapped graphs: an FNV-1a
  // fold of the file header and every section checksum (graph/format.h),
  // identical across processes mapping the same file -- a ready-made
  // SearchRequest::graph_id for the serving context cache. 0 for
  // vector-backed graphs (they have no durable identity).
  uint64_t storage_fingerprint() const { return storage_fingerprint_; }

  // --- Dense features -------------------------------------------------------
  bool has_features() const { return feature_dim_ > 0; }
  int64_t feature_dim() const { return feature_dim_; }
  // Feature matrix as a (non-differentiable) {n, d} tensor.
  Tensor FeatureTensor() const;
  std::span<const float> features() const {
    return features_view_.empty() ? std::span<const float>(features_)
                                  : features_view_;
  }
  // Replaces the feature matrix (row-major num_nodes() x dim, dim > 0).
  // Structure, attributes, labels and the cached views are kept: none of
  // them reads the features. A mapped graph's new features live on the
  // heap; its CSR stays mapped.
  void SetFeatures(int64_t dim, std::vector<float> features);

  // --- Discrete attributes (for ACQ / ATC) ----------------------------------
  bool has_attributes() const { return !attrs_.empty(); }
  // Sorted attribute ids of node v (empty when absent).
  const std::vector<int32_t>& Attributes(NodeId v) const;

  // --- Ground-truth communities ---------------------------------------------
  bool has_communities() const { return !communities().empty(); }
  // Community id of v, or -1 when unlabelled.
  int64_t CommunityOf(NodeId v) const { return communities()[v]; }
  std::span<const int64_t> communities() const {
    return mapping_ ? community_view_ : std::span<const int64_t>(community_);
  }
  int64_t num_communities() const;
  // All members of community c.
  std::vector<NodeId> CommunityMembers(int64_t c) const;

  // --- GNN adjacency views (cached) -----------------------------------------
  // Symmetrically normalised adjacency with self loops:
  //   D^{-1/2} (A + I) D^{-1/2}       (GCN propagation matrix)
  const SparseMatrix& GcnAdjacency() const;
  // Row-normalised adjacency without self loops: mean over neighbors (SAGE).
  const SparseMatrix& MeanAdjacency() const;

  // Per-edge index with self loops for attention layers: edges grouped by
  // destination (CSR segments).
  struct EdgeIndex {
    std::vector<int64_t> seg_ptr;  // n+1; in-edges of node i in [seg_ptr[i], seg_ptr[i+1])
    std::vector<int64_t> src;      // source node per edge
    std::vector<int64_t> dst;      // destination node per edge
  };
  const EdgeIndex& AttentionEdges() const;

  // --- Structural decomposition (cached, thread-safe) -----------------------
  // Core number per node and truss number per CSR slot
  // (graph/decomposition.h), each built on its first call -- the first
  // classical query on this graph pays for it -- and kept for the life of
  // this Graph. Unlike the GNN views above, first calls may come from many
  // threads at once: one builds, the others wait. Copies made after a
  // build share it; InducedSubgraph results start without one.
  const CoreDecomposition& Cores() const;
  const TrussDecomposition& Trusses() const;

 private:
  friend class GraphBuilder;
  // Binary container load paths (graph/format.cc): the only code that may
  // hand out mapped-backed Graphs, after full validation of the file.
  friend class GraphFormatAccess;

  int64_t num_nodes_ = 0;
  std::vector<int64_t> row_ptr_{0};
  std::vector<NodeId> col_idx_;

  int64_t feature_dim_ = 0;
  std::vector<float> features_;
  std::vector<std::vector<int32_t>> attrs_;
  std::vector<int64_t> community_;

  // Mapped backing: when mapping_ is set, the *_view_ spans point into the
  // mapping and the owned vectors above stay empty (attrs_ excepted -- the
  // ragged attribute sets are materialised on load either way -- and
  // features_ once SetFeatures empties features_view_). The views
  // reference the file's pages, not this object, so Graph copies stay
  // valid and cheap (they bump the mapping's refcount).
  std::shared_ptr<const MappedFile> mapping_;
  std::span<const int64_t> row_ptr_view_;
  std::span<const NodeId> col_idx_view_;
  std::span<const float> features_view_;
  std::span<const int64_t> community_view_;
  uint64_t storage_fingerprint_ = 0;

  // Lazily built, cached adjacency views.
  mutable SparseMatrix gcn_adj_;
  mutable bool gcn_adj_built_ = false;
  mutable SparseMatrix mean_adj_;
  mutable bool mean_adj_built_ = false;
  mutable EdgeIndex attn_edges_;
  mutable bool attn_edges_built_ = false;

  // Lazily built structural decomposition (decomposition.cc).
  LazyShared<CoreDecomposition> cores_;
  LazyShared<TrussDecomposition> trusses_;
};

// Assembles a canonical CSR Graph from an edge soup. Edge semantics are an
// explicit contract (tests/graph_test.cc pins them):
//   * AddEdge(u, v) records one undirected edge; orientation is
//     irrelevant (AddEdge(u, v) and AddEdge(v, u) are the same edge).
//   * Self loops (u == v) are silently dropped at Build.
//   * Duplicate edges -- same pair added any number of times, in either
//     orientation -- collapse to a single undirected edge at Build.
//   * Node ids outside [0, num_nodes) are a programmer error (CGNP_CHECK
//     aborts; external input must be range-checked before AddEdge -- the
//     data loaders do).
class GraphBuilder {
 public:
  explicit GraphBuilder(int64_t num_nodes);

  // Adds an undirected edge; self loops and duplicates are dropped at Build
  // (see the class contract above).
  void AddEdge(NodeId u, NodeId v);

  // Dense feature matrix, row-major num_nodes x dim.
  void SetFeatures(int64_t dim, std::vector<float> features);
  // Discrete attribute ids per node (will be sorted).
  void SetAttributes(std::vector<std::vector<int32_t>> attrs);
  // Ground-truth community id per node (-1 = unlabelled).
  void SetCommunities(std::vector<int64_t> community);

  int64_t num_nodes() const { return num_nodes_; }

  // Consumes the builder: edges, features, attributes and labels move
  // into the Graph, so call it once.
  Graph Build();

  // Build() for a CSR that is canonical already, given instead of AddEdge'd
  // pairs (there must be none): row_ptr has num_nodes() + 1 offsets from 0,
  // every row is sorted ascending without duplicates or self loops, and
  // the rows are symmetric (u in row v iff v in row u) -- what Build()
  // itself emits. The arrays move into the Graph as they are: no bucketing,
  // sort or dedup. The row invariants are checked in debug builds only.
  Graph BuildFromSortedRows(std::vector<int64_t> row_ptr,
                            std::vector<NodeId> col_idx);

 private:
  int64_t num_nodes_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
  int64_t feature_dim_ = 0;
  std::vector<float> features_;
  std::vector<std::vector<int32_t>> attrs_;
  std::vector<int64_t> community_;
};

// CGNP_CHECK-free bounds gate for node ids arriving from external input:
// OutOfRange when v is outside [0, g.num_nodes()) -- which is every v when
// the graph is empty -- with `what` naming the id's role in the message
// ("query", "support", "edge endpoint"). The single validation shared by
// the delta mutation API (graph/delta.h) and the serving-side task builder
// (via ValidateQueryInput in cs/searcher.cc), so every user-reachable path
// rejects the same bad id with the same Status instead of tripping
// Degree()'s unchecked precondition.
Status CheckNodeId(const Graph& g, NodeId v, const char* what = "node");

// Induced subgraph on `nodes` (order defines new ids). Features, attributes
// and community labels are carried over. If `new_of_old` is non-null it
// receives a num_nodes-sized map old-id -> new-id (-1 when dropped).
// Always returns a vector-backed Graph, whatever backs `g` -- task
// subgraphs stay small and owned even when the parent graph is mapped.
Graph InducedSubgraph(const Graph& g, const std::vector<NodeId>& nodes,
                      std::vector<NodeId>* new_of_old = nullptr);

}  // namespace cgnp

#endif  // CGNP_GRAPH_GRAPH_H_
