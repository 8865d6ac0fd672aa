// Incremental community-search maintenance over the one mutable graph
// (graph/delta.h): k-core and k-truss numbers kept current under edge
// insertions and deletions by local repair, instead of from-scratch
// recomputation per edit.
//
// The algorithms are the classical maintenance results:
//   * k-core: order-based maintenance (Zhang, Yu, Zhang and Qin, "A Fast
//     Order-Based Approach for Core Maintenance", ICDE 2017). The index
//     keeps a k-order -- a removal order of the Batagelj-Zaversnik peel,
//     one list O_K per core level -- and deg+(v), the neighbours of v
//     later in it; an order is valid iff deg+(v) <= core(v) everywhere.
//     An edit changes a core number by at most one, only at level
//     K = min core of the endpoints. Insertion bumps deg+ of the earlier
//     endpoint; when that breaks the bound it scans O_K forward from it
//     through a label-keyed heap, visiting only nodes that gained a
//     candidate neighbour, and the surviving candidates move to the head
//     of O_{K+1}. Deletion cascades on mcd (neighbours with core >= K),
//     counted only for nodes the cascade reaches; dropped nodes are
//     appended to O_{K-1}. The cost follows the nodes whose order position
//     changes, not the size of the K-class.
//   * k-truss: greatest-fixpoint repair. Truss numbers are the greatest
//     assignment T with every edge f = (a, b) supported by >= T(f)-2
//     triangles whose other two edges carry >= T(f). From any upper bound,
//     re-proving edges downward until consistent lands on exactly them,
//     and one such routine serves both edits. Deletion keeps the old
//     values as the bound and queues the partners of the vanished
//     triangles. Insertion raises an edge by at most one, and only a
//     candidate edge -- in a level-k triangle-connected class seeded from
//     the new edge's triangles, for k below the new edge's ceiling kub --
//     can rise: the candidates go up one, the new edge to kub, and the
//     same routine settles them. Triangles come from one merge of the two
//     sorted rows, which also yields both partner slots.
//
// Both indices are asserted node-for-node / edge-for-edge identical to
// the batch algorithms (graph/algorithms.h) over randomized edit
// sequences in tests/incremental_cs_test.cc -- core numbers and the
// k-order invariants after every edit, truss numbers at checkpoints of
// the mixed streams and after every clique edit -- the acceptance
// contract of this file. Both keep their per-edit scratch as members, so
// a warm edit -- one whose rows and scratch earlier edits already grew --
// allocates nothing.
//
// DynamicCommunityIndex bundles a GraphDelta, whose sorted rows both
// indices read, and both indices behind one internally-locked facade
// (queries take a shared lock, edits an exclusive one). Its community
// queries run the connected k-core / k-truss routines of
// graph/algorithms.h -- the ones the batch KCoreCommunity /
// KTrussCommunity run on a CSR graph -- over the delta's rows and the
// maintained numbers, so with numbers equal to batch the answers match the
// batch ones, output order included, by construction. The index reaches
// the registry as the "kcore_inc" / "ktruss_inc" backends via
// SearcherConfig::dynamic_index (cs/searcher.h).
#ifndef CGNP_CS_DYNAMIC_H_
#define CGNP_CS_DYNAMIC_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "obs/metrics.h"

namespace cgnp {

// Core numbers under maintenance, seeded from a peel of the base graph.
// OnInsert/OnDelete must be called exactly once per edge actually applied,
// with `adj` already holding (insert) or already lacking (delete) the
// edge and endpoints validated -- the DynamicCommunityIndex facade
// guarantees all three. Warm edits allocate nothing. Not thread-safe on
// its own.
class IncrementalCoreIndex {
 public:
  explicit IncrementalCoreIndex(const Graph& base);

  void OnInsert(const SortedAdjacency& adj, NodeId u, NodeId v);
  void OnDelete(const SortedAdjacency& adj, NodeId u, NodeId v);

  const std::vector<int64_t>& core() const { return core_; }

  // Checks the k-order against `adj`: every level list is well formed and
  // holds exactly the nodes of that core number, labels strictly increase
  // along it, deg+ equals the count of later neighbours and is <= core,
  // and the per-edit scratch is clean. Internal error naming the first
  // violation otherwise. O(n + m), for tests.
  Status CheckOrder(const SortedAdjacency& adj) const;

 private:
  // Per-node state of the insertion scan (state_); a deletion marks its
  // queued drops kQueued.
  enum : uint8_t { kIdle, kQueued, kCandidate, kEvicting, kSettled };

  bool Precedes(NodeId a, NodeId b) const;
  void Unlink(int64_t k, NodeId w);  // from level k's list
  // Links run[0..m) in order into level k right after `after` (-1 = at
  // the head) and labels it inside the gap, relabelling the level when
  // the gap is too small.
  void LinkRun(int64_t k, NodeId after, const NodeId* run, size_t m);
  void Relabel(int64_t k);
  // Evicts the candidates queued in evict_ to just behind `anchor`.
  void Evict(const SortedAdjacency& adj, int64_t K, NodeId anchor);
  // Neighbours of x with core >= K, counted on first use within an edit.
  int64_t& Mcd(const SortedAdjacency& adj, NodeId x, int64_t K);

  // The k-order: per node its core, deg+, label and list links; per level
  // its list ends (-1 when empty).
  std::vector<int64_t> core_;
  std::vector<int64_t> deg_plus_;
  std::vector<uint64_t> label_;
  std::vector<NodeId> prev_, next_;
  std::vector<NodeId> head_, tail_;

  // Per-edit scratch, sized once and left clean after every edit.
  std::vector<int64_t> deg_star_;  // insertion: candidate neighbours before v
  std::vector<int64_t> mcd_;       // deletion: -1 = not counted this edit
  std::vector<uint8_t> state_;
  std::vector<NodeId> heap_, cand_, evict_, evicted_, anchors_, touched_;
};

// Truss numbers under maintenance, one per adjacency slot (both directions
// of an edge carry the same value), seeded from the base graph's cached
// decomposition (Graph::Trusses). Same call contract as
// IncrementalCoreIndex, and warm edits allocate nothing here either.
class IncrementalTrussIndex {
 public:
  explicit IncrementalTrussIndex(const Graph& base);

  void OnInsert(const SortedAdjacency& adj, NodeId u, NodeId v);
  void OnDelete(const SortedAdjacency& adj, NodeId u, NodeId v);

  // Truss number of edge (u, v); 0 when the edge is not present.
  int64_t TrussOf(const SortedAdjacency& adj, NodeId u, NodeId v) const;
  // Truss numbers of u's edges, parallel to adj[u].
  const std::vector<int32_t>& row(NodeId u) const { return truss_[u]; }

 private:
  // Position of v in adj[u], or where it would be inserted.
  static int64_t SlotOf(const SortedAdjacency& adj, NodeId u, NodeId v);
  // Writes k into both slots of the present edge (u, v).
  void Set(const SortedAdjacency& adj, NodeId u, NodeId v, int64_t k);

  // Largest k in [2, cap] with >= k-2 triangles through (a, b) whose other
  // two edges both carry >= k - lift under the current values.
  int64_t SupportedLevel(const SortedAdjacency& adj, NodeId a, NodeId b,
                         int64_t cap, int64_t lift);
  // Queues edge (a, c), at slot ia of adj[a], as an insertion candidate:
  // once, and only when its truss number is below the ceiling kub.
  void Consider(const SortedAdjacency& adj, NodeId a, size_t ia, NodeId c,
                int64_t kub);
  // Re-proves the edges queued in work_ downward until consistent.
  void DownwardFixpoint(const SortedAdjacency& adj);

  std::vector<std::vector<int32_t>> truss_;  // rows parallel to adj

  // Per-edit scratch, left clean after every edit: a candidate mark per
  // slot (rows parallel to adj), the edge work list and the triangle
  // levels of SupportedLevel.
  std::vector<std::vector<uint8_t>> mark_;
  std::vector<std::pair<NodeId, NodeId>> work_;
  std::vector<int64_t> levels_;
};

// Delta + both incremental indices behind one internally-locked
// facade: edits lock exclusively, queries share. Community answers are
// identical -- members and order -- to the batch KCoreCommunity /
// KTrussCommunity run on a compacted snapshot of the same version: both
// run the same routine (graph/algorithms.h) over equal rows and numbers.
class DynamicCommunityIndex {
 public:
  // `base` must be non-null; InvalidArgument otherwise. The core index
  // starts from an O(m) peel of base, the truss index from base's cached
  // decomposition (graph/decomposition.h), built here if no query has
  // built it yet -- O(m^1.5); per-edit repair is the point of everything
  // after.
  static StatusOr<std::shared_ptr<DynamicCommunityIndex>> Create(
      std::shared_ptr<const Graph> base);

  // Edit entry points, forwarding the GraphDelta mutation contract
  // (OutOfRange / InvalidArgument / NotFound; idempotent insert is a
  // no-op that leaves the indices untouched). With `applied` non-null,
  // Apply reports under its own writer lock whether the edit changed the
  // graph -- false for a rejected edit or an idempotent insert.
  Status InsertEdge(NodeId u, NodeId v);
  Status DeleteEdge(NodeId u, NodeId v);
  Status Apply(const GraphEdit& edit, bool* applied = nullptr);

  // Community queries at the current version, matching the batch
  // algorithms' semantics exactly: k = -1 picks the maximal feasible k
  // for q; InvalidArgument on an empty graph, OutOfRange on a bad id.
  StatusOr<std::vector<NodeId>> KCoreCommunity(NodeId q,
                                               int64_t k = -1) const;
  StatusOr<std::vector<NodeId>> KTrussCommunity(NodeId q,
                                                int64_t k = -1) const;

  // Index introspection (test + bench surface): copies taken under the
  // shared lock.
  std::vector<int64_t> CurrentCoreNumbers() const;
  int64_t CurrentTrussOf(NodeId u, NodeId v) const;  // 0 when absent
  // IncrementalCoreIndex::CheckOrder on the current adjacency.
  Status CheckCoreOrder() const;

  uint64_t version() const;
  int64_t delta_depth() const;
  int64_t num_nodes() const;
  int64_t num_edges() const;

  // Folds the delta into a fresh snapshot and rebases the delta onto it in
  // place (GraphDelta::Rebase), version lineage preserved. The rows and
  // the maintained core/truss values are already current and carry over
  // untouched. Returns the new snapshot (shared with the delta) with its
  // version and the nodes the folded edits dirtied, all read under one
  // writer lock, so no concurrent edit can fall between them.
  GraphDelta::Rebased Compact();

 private:
  explicit DynamicCommunityIndex(std::shared_ptr<const Graph> base);

  Status ValidateQuery(NodeId q) const;  // caller holds a lock

  mutable std::shared_mutex mu_;
  GraphDelta delta_;
  IncrementalCoreIndex core_;
  IncrementalTrussIndex truss_;
  // cgnp_dynamic_repair_ms{index="core"|"truss"}: repair time per applied
  // edit.
  obs::Histogram* const core_repair_ms_;
  obs::Histogram* const truss_repair_ms_;
};

}  // namespace cgnp

#endif  // CGNP_CS_DYNAMIC_H_
