// Version-aware serving over a mutating graph: one facade coordinating a
// DynamicCommunityIndex (cs/dynamic.h) receiving edit traffic with a
// QueryServer answering query traffic.
//
// The serving discipline resolves the tension between the learned
// pipeline (which needs an immutable CSR Graph to sample tasks from) and
// a graph that keeps changing:
//   * Edits flow into the incremental index's delta (graph/delta.h: the
//     one mutable copy of the edge set, O(n + m) sorted rows); its
//     k-core / k-truss numbers are repaired locally per edit, so the
//     incremental backends ("kcore_inc"/"ktruss_inc") always answer
//     FRESH, at the delta's current version.
//   * Learned ("cgnp") and classical batch backends answer from the last
//     compacted snapshot -- bounded staleness, measured exactly by the
//     delta depth at serve time and bounded by Options::compact_every.
//   * Compaction folds the delta into a new snapshot, rebases the index
//     in place (snapshot, version and dirty set taken under one index
//     writer lock), and announces the update to the QueryServer: the
//     context cache is scopedly invalidated -- entries whose task
//     subgraph avoids the dirty region are re-keyed to the new version
//     (still numerically exact), the rest are dropped. Requests are
//     stamped with the serving snapshot's version, so a stale context
//     can never answer a new-version request.
//
// Thread safety: ApplyUpdate / Compact / Serve / stats may be called
// concurrently from any threads. Edits serialise behind the index's
// writer lock; Serve pins the serving snapshot with a shared_ptr copy
// under a shared lock, so compaction never invalidates a request in
// flight. Everything here is abort-free (Status in, Status out).
#ifndef CGNP_SERVE_DYNAMIC_SERVER_H_
#define CGNP_SERVE_DYNAMIC_SERVER_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "common/status.h"
#include "cs/dynamic.h"
#include "serve/query_server.h"

namespace cgnp {
namespace serve {

class DynamicGraphServer {
 public:
  struct Options {
    // Forwarded to QueryServer::Create. `searcher.dynamic_index` is filled
    // in by Create with the server's own index when the backend is one of
    // the incremental names.
    ServeOptions serve;
    // Cache/metrics namespace for the served graph. For mapped snapshots
    // Graph::storage_fingerprint() is the natural value.
    uint64_t graph_id = 1;
    // Auto-compact once the delta depth -- applied (version-advancing)
    // edits since the last compaction -- reaches this; <= 0 disables
    // auto-compaction (Compact() still works). This is the staleness
    // bound for snapshot-serving backends: a served answer lags the
    // freshest version by at most compact_every - 1 edits.
    int64_t compact_every = 64;
  };

  struct DynamicStats {
    uint64_t version = 0;           // freshest (delta) version
    uint64_t snapshot_version = 0;  // version snapshot-backends serve at
    int64_t delta_depth = 0;        // current staleness, in edits
    uint64_t updates_applied = 0;
    uint64_t updates_rejected = 0;
    uint64_t compactions = 0;
  };

  // `base` must be non-null; `engine` is required exactly when
  // options.serve.backend == "cgnp" (same contract as QueryServer).
  static StatusOr<std::unique_ptr<DynamicGraphServer>> Create(
      const CommunitySearchEngine* engine, std::shared_ptr<const Graph> base,
      Options options);

  // Applies one edit at the freshest version (GraphDelta's mutation
  // contract: OutOfRange / InvalidArgument / NotFound errors, idempotent
  // insert = accepted no-op). May trigger auto-compaction.
  Status ApplyUpdate(const GraphEdit& edit);
  Status InsertEdge(NodeId u, NodeId v);
  Status DeleteEdge(NodeId u, NodeId v);

  // Answers `request` against the serving snapshot: graph, graph_id and
  // graph_version are stamped by the server (any values the caller set
  // are overwritten); query/support/threshold are the caller's. The
  // snapshot stays pinned until the response is built.
  SearchResponse Serve(SearchRequest request);

  // Folds pending edits into a new serving snapshot and scopedly
  // invalidates the context cache (see the header comment). No-op when
  // the delta is empty.
  ContextCache::InvalidationResult Compact();

  DynamicStats dynamic_stats() const;
  ServerStats server_stats() const { return server_->Stats(); }
  // The shared incremental index -- hand it to SearcherConfig::dynamic_index
  // to build "kcore_inc"/"ktruss_inc" searchers answering fresh.
  const std::shared_ptr<DynamicCommunityIndex>& index() const {
    return index_;
  }
  QueryServer& server() { return *server_; }
  std::shared_ptr<const Graph> snapshot() const;

 private:
  DynamicGraphServer(std::shared_ptr<DynamicCommunityIndex> index,
                     std::shared_ptr<const Graph> base,
                     std::unique_ptr<QueryServer> server, Options options);

  // Compact() when the delta depth is at least `min_depth`, else a no-op.
  ContextCache::InvalidationResult CompactAtDepth(int64_t min_depth);

  const Options options_;
  std::shared_ptr<DynamicCommunityIndex> index_;
  std::unique_ptr<QueryServer> server_;

  // Serving snapshot + version + edit counters; mu_ is shared for
  // Serve (pin the snapshot) and exclusive for compaction rollover.
  mutable std::shared_mutex mu_;
  std::shared_ptr<const Graph> snapshot_;
  uint64_t snapshot_version_ = 0;
  uint64_t updates_applied_ = 0;
  uint64_t updates_rejected_ = 0;
  uint64_t compactions_ = 0;
};

}  // namespace serve
}  // namespace cgnp

#endif  // CGNP_SERVE_DYNAMIC_SERVER_H_
