// The one mutable graph: an immutable Graph snapshot plus the current edge
// set, one sorted row per node -- the write half of the versioned
// snapshot + delta architecture (docs/ARCHITECTURE.md, "Dynamic graphs").
//
// A GraphDelta borrows a compacted base snapshot, seeds its rows from the
// base CSR once, and applies edge insertions and deletions to those rows
// without touching the CSR. The rows are the graph at version(), in the
// CSR order of a compacted snapshot, so the incremental indices of
// cs/dynamic.h read them directly through adjacency(). Memory is O(n + m)
// for the rows, whatever the number of edits. Every applied edit inserts
// or erases exactly one slot in each endpoint's row, advances version()
// by exactly one and marks both endpoints dirty, so downstream caches can
// invalidate by region (core/context_cache.h) instead of flushing.
// Compact() feeds the rows to GraphBuilder, so the snapshot it returns is
// bitwise identical -- row_ptr and col_idx both -- to a from-scratch build
// of the same edge set, which is what tests/graph_delta_test.cc pins.
//
// Mutation contract (all paths return Status, never abort -- this file is
// under the cgnp-no-abort lint rule like the other user-input-reachable
// layers):
//   * endpoints outside [0, num_nodes())        -> OutOfRange
//   * self loops (u == v)                       -> InvalidArgument
//   * InsertEdge of an edge already present     -> Ok, a no-op (idempotent;
//     version() does NOT advance -- callers can detect the no-op by
//     comparing version() around the call)
//   * DeleteEdge of an edge not present         -> NotFound
// Node ids are fixed by the base snapshot: the delta edits edges only.
// The read accessors (Degree / HasEdge / NeighborsOf) require ids in
// [0, num_nodes()); callers holding external input gate them through
// CheckNodeId() (graph/graph.h) first. Deltas are not serialised -- a CGRF
// container always stores a compacted snapshot (docs/GRAPH_FORMAT.md).
//
// Thread safety: none. A delta is a single-writer object; the serving
// layer wraps it in DynamicCommunityIndex (cs/dynamic.h), which owns the
// locking.
#ifndef CGNP_GRAPH_DELTA_H_
#define CGNP_GRAPH_DELTA_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace cgnp {

// One edge edit, the unit of the apply-edits text format below.
struct GraphEdit {
  bool insert = true;  // false = delete
  NodeId u = -1;
  NodeId v = -1;
};

// Current adjacency, one sorted row per node: the edge set at a delta's
// version, in the CSR order of a compacted snapshot.
using SortedAdjacency = std::vector<std::vector<NodeId>>;

class GraphDelta {
 public:
  // `base` must be non-null -- shared ownership keeps the snapshot (and a
  // mapped container behind it) alive while the delta reads it. The
  // version starts at 0.
  explicit GraphDelta(std::shared_ptr<const Graph> base);

  int64_t num_nodes() const { return base_->num_nodes(); }
  // Number of undirected edges at version().
  int64_t num_edges() const { return num_edges_; }
  // Advances by one per applied edit, so two equal versions of the same
  // lineage imply an identical edge set.
  uint64_t version() const { return version_; }
  int64_t Degree(NodeId v) const {
    return static_cast<int64_t>(rows_[v].size());
  }
  bool HasEdge(NodeId u, NodeId v) const;
  // Sorted neighbour list of v at version().
  const std::vector<NodeId>& NeighborsOf(NodeId v) const { return rows_[v]; }
  // All rows at once, for the incremental indices.
  const SortedAdjacency& adjacency() const { return rows_; }

  // --- Mutation (see the contract above) ------------------------------------
  Status InsertEdge(NodeId u, NodeId v);
  Status DeleteEdge(NodeId u, NodeId v);
  Status Apply(const GraphEdit& edit);

  // --- Introspection --------------------------------------------------------
  const Graph& base() const { return *base_; }
  // Applied (non-no-op) edits since construction or the last Rebase().
  int64_t depth() const { return depth_; }
  // A node is dirty when some applied edit touched an incident edge. The
  // scoped cache invalidation in serve/ evicts exactly the entries whose
  // task subgraph intersects this set.
  bool IsDirty(NodeId v) const { return dirty_.count(v) > 0; }
  std::vector<NodeId> DirtyNodes() const;  // ascending

  // Builds a fresh vector-backed snapshot of the rows, carrying features,
  // attributes and community labels over from the base. The result is
  // bitwise identical to GraphBuilder fed the current edges from scratch.
  // The delta itself is left untouched.
  Graph Compact() const;
  // What one Rebase() folded: the new base, the version it holds, and the
  // nodes dirtied since the previous base. Taken in one step, so a caller
  // that locks around Rebase() gets a dirty set that covers exactly the
  // edits in the snapshot.
  struct Rebased {
    std::shared_ptr<const Graph> base;
    uint64_t version = 0;
    std::vector<NodeId> dirty;  // ascending
  };
  // Compact(), then makes the result the base: version() carries on, and
  // depth() and the dirty set start again from empty. The rows already
  // hold the new base's edge set and are kept as they are.
  Rebased Rebase();

 private:
  void MarkEdited(NodeId u, NodeId v);

  std::shared_ptr<const Graph> base_;
  SortedAdjacency rows_;
  uint64_t version_ = 0;
  int64_t depth_ = 0;
  int64_t num_edges_ = 0;
  std::unordered_set<NodeId> dirty_;
};

// Parses the apply-edits text format: one edit per line, `+u v` to insert
// and `-u v` to delete (whitespace after the sign and between the ids is
// free-form), blank lines and `#` comments skipped. Malformed lines --
// missing sign, non-numeric or overflowing ids, trailing garbage --
// return InvalidArgument naming the 1-based line. Ids are validated
// against a concrete graph only at apply time, so an edit list parses
// independently of any snapshot. Fuzzed under CGNP_FUZZ
// (fuzz/fuzz_edit_list.cc).
StatusOr<std::vector<GraphEdit>> ParseEditList(std::string_view text);

// Applies `edits` in order, stopping at the first failure with that
// edit's Status annotated with its 0-based index. Inserting an edge that
// is already present is a no-op per the delta contract, not a failure.
Status ApplyEditList(GraphDelta* delta, const std::vector<GraphEdit>& edits);

}  // namespace cgnp

#endif  // CGNP_GRAPH_DELTA_H_
