// Incremental community-search maintenance over a versioned delta overlay
// (graph/delta.h): k-core and k-truss numbers kept current under edge
// insertions and deletions by local repair of the affected region, instead
// of from-scratch recomputation per edit.
//
// The algorithms are the classical maintenance results:
//   * k-core: the "traversal" / subcore algorithm. An edge edit changes
//     any core number by at most one, and the change is confined to the
//     K-class (K = min core of the endpoints) nodes reachable from the
//     endpoints through K-class nodes. Insertion seeds that region, counts
//     per-node support toward K+1 and peels; survivors rise. Deletion
//     seeds the same region, counts support toward K and cascades drops.
//   * k-truss: greatest-fixpoint repair. Truss numbers are the greatest
//     assignment T with every edge f = (a, b) supported by >= T(f)-2
//     triangles whose other two edges carry >= T(f). Deletion starts from
//     a (still-valid) upper bound and chaotically re-proves affected
//     edges downward until consistent. Insertion raises any edge by at
//     most one: candidate edges -- the level-k triangle-connected classes
//     seeded from the new edge's triangles, for k below the new edge's
//     ceiling -- are optimistically lifted one level and the same
//     downward fixpoint (floored at the pre-insert values) settles them.
//
// Both indices are asserted node-for-node / edge-for-edge identical to
// the batch algorithms (graph/algorithms.h) after every update of a
// randomized sequence in tests/incremental_cs_test.cc -- the acceptance
// contract of this file.
//
// DynamicCommunityIndex bundles a GraphDelta with both indices behind one
// internally-locked facade (queries take a shared lock, edits an
// exclusive one) and answers the same community questions as the batch
// KCoreCommunity / KTrussCommunity -- including output order -- at the
// delta's current version. It reaches the registry as the "kcore_inc" /
// "ktruss_inc" backends via SearcherConfig::dynamic_index.
#ifndef CGNP_CS_DYNAMIC_H_
#define CGNP_CS_DYNAMIC_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "cs/searcher.h"
#include "graph/delta.h"
#include "graph/graph.h"

namespace cgnp {

// Core numbers under maintenance, seeded from the base graph's cached
// decomposition (Graph::Cores). Owns a sorted adjacency mirror of that
// graph; OnInsert/OnDelete must be called exactly once
// per edge actually applied (after the delta accepted it), with endpoints
// already validated -- the DynamicCommunityIndex facade guarantees both.
// Not thread-safe on its own.
class IncrementalCoreIndex {
 public:
  explicit IncrementalCoreIndex(const Graph& base);

  void OnInsert(NodeId u, NodeId v);
  void OnDelete(NodeId u, NodeId v);

  const std::vector<int64_t>& core() const { return core_; }
  // Sorted, current adjacency -- shared with the community BFS so query
  // traversal order matches the CSR order of a compacted snapshot.
  const std::vector<std::vector<NodeId>>& adjacency() const { return adj_; }

 private:
  std::vector<std::vector<NodeId>> adj_;
  std::vector<int64_t> core_;
};

// Truss numbers under maintenance, keyed per undirected edge and seeded
// from the base graph's cached decomposition (Graph::Trusses). Same call
// contract as IncrementalCoreIndex. Node ids must fit in 32 bits (edge
// keys pack both endpoints into one uint64); DynamicCommunityIndex::Create
// rejects larger graphs up front.
class IncrementalTrussIndex {
 public:
  explicit IncrementalTrussIndex(const Graph& base);

  void OnInsert(NodeId u, NodeId v);
  void OnDelete(NodeId u, NodeId v);

  // Truss number of edge (u, v); 0 when the edge is not present.
  int64_t TrussOf(NodeId u, NodeId v) const;

 private:
  static uint64_t EdgeKey(NodeId u, NodeId v);
  static std::pair<NodeId, NodeId> KeyEdge(uint64_t key);

  // Largest k in [2, cap] with >= k-2 triangles through (a, b) whose
  // other two edges both carry truss >= k under the current values.
  int64_t SupportedLevel(NodeId a, NodeId b, int64_t cap) const;
  // Chaotic downward re-proving until consistent. With `floor` non-null
  // (insertion mode) only edges present in the floor map are processed or
  // enqueued, and no edge settles below its floor.
  void DownwardFixpoint(std::deque<std::pair<NodeId, NodeId>>* work,
                        const std::unordered_map<uint64_t, int64_t>* floor);

  std::vector<std::vector<NodeId>> adj_;
  std::unordered_map<uint64_t, int64_t> truss_;
};

// Delta + both incremental indices behind one internally-locked facade:
// edits lock exclusively, queries share. Community answers are identical
// -- members and order -- to the batch KCoreCommunity / KTrussCommunity
// run on a compacted snapshot of the same version.
class DynamicCommunityIndex {
 public:
  // `base` must be non-null with node ids fitting 32 bits (edge-key
  // packing); InvalidArgument otherwise. Both indices start from base's
  // cached decomposition (graph/decomposition.h), built here if no query
  // has built it yet -- O(m^1.5) for the truss part; per-edit repair is
  // the point of everything after.
  static StatusOr<std::shared_ptr<DynamicCommunityIndex>> Create(
      std::shared_ptr<const Graph> base);

  // Edit entry points, forwarding the GraphDelta mutation contract
  // (OutOfRange / InvalidArgument / NotFound; idempotent insert is a
  // no-op that leaves the indices untouched).
  Status InsertEdge(NodeId u, NodeId v);
  Status DeleteEdge(NodeId u, NodeId v);
  Status Apply(const GraphEdit& edit);

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

  uint64_t version() const;
  int64_t delta_depth() const;
  int64_t num_nodes() const;
  int64_t num_edges() const;
  std::vector<NodeId> DirtyNodes() const;

  // Folds the delta into a fresh snapshot and rebases the internal delta
  // onto it, version lineage preserved. The maintained core/truss values
  // are already current and carry over untouched. Returns the new
  // snapshot (shared with the rebased delta).
  std::shared_ptr<const Graph> Compact();

 private:
  explicit DynamicCommunityIndex(std::shared_ptr<const Graph> base);

  Status ValidateQuery(NodeId q) const;  // caller holds a lock

  mutable std::shared_mutex mu_;
  std::unique_ptr<GraphDelta> delta_;
  IncrementalCoreIndex core_;
  IncrementalTrussIndex truss_;
};

// Factories behind the "kcore_inc" / "ktruss_inc" registry names
// (registered among the built-ins in cs/searcher.cc). Both require
// SearcherConfig::dynamic_index and answer from it at its current
// version; the Graph argument of Search is ignored structurally and only
// documents which logical graph the caller believes it is querying.
SearcherFactory MakeIncrementalCoreSearcherFactory();
SearcherFactory MakeIncrementalTrussSearcherFactory();

}  // namespace cgnp

#endif  // CGNP_CS_DYNAMIC_H_
