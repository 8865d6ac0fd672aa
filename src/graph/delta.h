// Edit overlay over an immutable Graph snapshot -- the write half of the
// versioned snapshot + delta architecture (see graph/view.h for the read
// half and docs/ARCHITECTURE.md for the layer map).
//
// A GraphDelta borrows a compacted base snapshot and records edge
// insertions and deletions (tombstones) against it without touching the
// CSR. Reads route through the GraphView interface and see the merged
// state; every applied edit advances version() by exactly one and marks
// both endpoints dirty, so downstream caches can invalidate by region
// (core/context_cache.h) instead of flushing. Compact() folds the
// overlay into a fresh snapshot that is bitwise identical -- row_ptr and
// col_idx both -- to a from-scratch GraphBuilder build of the surviving
// edge set, which is what tests/graph_delta_test.cc pins.
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
// Deltas are not serialised -- a CGRF container always stores a compacted
// snapshot (docs/GRAPH_FORMAT.md).
//
// Thread safety: none. A delta is a single-writer object; the serving
// layer wraps it in DynamicCommunityIndex (cs/dynamic.h), which owns the
// locking.
#ifndef CGNP_GRAPH_DELTA_H_
#define CGNP_GRAPH_DELTA_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/view.h"

namespace cgnp {

// One edge edit, the unit of the apply-edits text format below.
struct GraphEdit {
  bool insert = true;  // false = delete
  NodeId u = -1;
  NodeId v = -1;
};

class GraphDelta final : public GraphView {
 public:
  // `base` must be non-null and outlive nothing -- shared ownership keeps
  // the snapshot (and a mapped container behind it) alive while edits
  // reference it. `base_version` seeds the version counter so a delta
  // rebased after Compact() continues the lineage instead of restarting
  // at zero.
  explicit GraphDelta(std::shared_ptr<const Graph> base,
                      uint64_t base_version = 0);

  // --- GraphView ------------------------------------------------------------
  int64_t num_nodes() const override { return base_->num_nodes(); }
  int64_t num_edges() const override { return num_edges_; }
  uint64_t version() const override { return version_; }
  int64_t Degree(NodeId v) const override;
  bool HasEdge(NodeId u, NodeId v) const override;
  std::vector<NodeId> NeighborsOf(NodeId v) const override;

  // --- Mutation (see the contract above) ------------------------------------
  Status InsertEdge(NodeId u, NodeId v);
  Status DeleteEdge(NodeId u, NodeId v);
  Status Apply(const GraphEdit& edit);

  // --- Introspection --------------------------------------------------------
  const Graph& base() const { return *base_; }
  const std::shared_ptr<const Graph>& base_ptr() const { return base_; }
  // Applied (non-no-op) edits since construction: version() - base version.
  int64_t depth() const { return depth_; }
  // Surviving overlay size: edges inserted on top of / tombstoned out of
  // the base. An insert that revokes a tombstone (or vice versa) shrinks
  // these, so depth() >= num_added() + num_removed().
  int64_t num_added() const { return num_added_; }
  int64_t num_removed() const { return num_removed_; }
  // A node is dirty when some applied edit touched an incident edge. The
  // scoped cache invalidation in serve/ evicts exactly the entries whose
  // task subgraph intersects this set.
  bool IsDirty(NodeId v) const { return dirty_.count(v) > 0; }
  std::vector<NodeId> DirtyNodes() const;  // ascending

  // Folds base + overlay into a fresh vector-backed snapshot, carrying
  // features, attributes and community labels over from the base. The
  // result is bitwise identical to GraphBuilder fed the surviving edges
  // from scratch. The delta itself is left untouched; callers wanting to
  // continue editing construct a new delta over the result with
  // base_version = version().
  Graph Compact() const;

 private:
  // Sorted per-node overlay rows; absent key = empty. removed_ rows are
  // always subsets of the base adjacency, added_ rows always disjoint
  // from it.
  using Overlay = std::unordered_map<NodeId, std::vector<NodeId>>;

  static const std::vector<NodeId>* RowOf(const Overlay& o, NodeId v);
  void OverlayInsert(Overlay* o, NodeId u, NodeId v);
  void OverlayErase(Overlay* o, NodeId u, NodeId v);
  void MarkEdited(NodeId u, NodeId v);

  std::shared_ptr<const Graph> base_;
  uint64_t version_ = 0;
  int64_t depth_ = 0;
  int64_t num_edges_ = 0;
  int64_t num_added_ = 0;
  int64_t num_removed_ = 0;
  Overlay added_;
  Overlay removed_;
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
