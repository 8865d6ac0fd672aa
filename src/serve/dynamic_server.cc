#include "serve/dynamic_server.h"

#include <utility>

#include "obs/log.h"
#include "obs/trace.h"

namespace cgnp {
namespace serve {

DynamicGraphServer::DynamicGraphServer(
    std::shared_ptr<DynamicCommunityIndex> index,
    std::shared_ptr<const Graph> base, std::unique_ptr<QueryServer> server,
    Options options)
    : options_(std::move(options)),
      index_(std::move(index)),
      server_(std::move(server)),
      snapshot_(std::move(base)),
      snapshot_version_(index_->version()) {}

StatusOr<std::unique_ptr<DynamicGraphServer>> DynamicGraphServer::Create(
    const CommunitySearchEngine* engine, std::shared_ptr<const Graph> base,
    Options options) {
  if (base == nullptr) {
    return InvalidArgumentError(
        "DynamicGraphServer needs a base snapshot (got null)");
  }
  CGNP_ASSIGN_OR_RETURN(std::shared_ptr<DynamicCommunityIndex> index,
                        DynamicCommunityIndex::Create(base));
  // The incremental backends answer from this server's own index; wire it
  // through so callers select them purely by name.
  if (options.serve.backend == "kcore_inc" ||
      options.serve.backend == "ktruss_inc") {
    options.serve.searcher.dynamic_index = index;
  }
  CGNP_ASSIGN_OR_RETURN(std::unique_ptr<QueryServer> server,
                        QueryServer::Create(engine, options.serve));
  return std::unique_ptr<DynamicGraphServer>(
      new DynamicGraphServer(std::move(index), std::move(base),
                             std::move(server), std::move(options)));
}

Status DynamicGraphServer::ApplyUpdate(const GraphEdit& edit) {
  // The index decides "applied" under its own writer lock: comparing
  // version() around the call would count an idempotent insert whenever
  // another client's edit lands in between.
  bool applied = false;
  const Status s = index_->Apply(edit, &applied);
  {
    std::unique_lock lock(mu_);
    if (!s.ok()) {
      ++updates_rejected_;
    } else if (applied) {
      ++updates_applied_;
    }
  }
  if (!s.ok()) return s;
  // The delta depth is the one count of pending edits: an edit landing
  // between the index's compaction and this check is still counted.
  if (options_.compact_every > 0 &&
      index_->delta_depth() >= options_.compact_every) {
    CompactAtDepth(options_.compact_every);
  }
  return Status::Ok();
}

Status DynamicGraphServer::InsertEdge(NodeId u, NodeId v) {
  return ApplyUpdate(GraphEdit{/*insert=*/true, u, v});
}

Status DynamicGraphServer::DeleteEdge(NodeId u, NodeId v) {
  return ApplyUpdate(GraphEdit{/*insert=*/false, u, v});
}

SearchResponse DynamicGraphServer::Serve(SearchRequest request) {
  // Pin the serving snapshot: the shared_ptr copy keeps it alive even if
  // a concurrent compaction rolls snapshot_ forward mid-request.
  std::shared_ptr<const Graph> pinned;
  {
    std::shared_lock lock(mu_);
    pinned = snapshot_;
    request.graph_version = snapshot_version_;
  }
  request.graph = pinned.get();
  request.graph_id = options_.graph_id;
  return server_->Serve(request);
}

ContextCache::InvalidationResult DynamicGraphServer::Compact() {
  return CompactAtDepth(1);
}

ContextCache::InvalidationResult DynamicGraphServer::CompactAtDepth(
    int64_t min_depth) {
  CGNP_TRACE_SPAN("compact");
  std::unique_lock lock(mu_);
  // Re-checked under mu_, so clients that cross the auto-compaction
  // threshold together compact once, not once each.
  if (index_->delta_depth() < min_depth) return {};
  // Snapshot, version and dirty set come from one index writer lock: an
  // edit landing concurrently is either in all three or in none, and then
  // stays dirty for the next compaction.
  GraphDelta::Rebased rebased = index_->Compact();
  const ContextCache::InvalidationResult result = server_->NotifyGraphUpdate(
      options_.graph_id, rebased.version, rebased.dirty);
  snapshot_ = std::move(rebased.base);
  snapshot_version_ = rebased.version;
  ++compactions_;
  CGNP_LOG(kDebug, "serve_compaction")
      .Num("version", static_cast<double>(rebased.version))
      .Num("dirty_nodes", static_cast<double>(rebased.dirty.size()))
      .Num("cache_evicted", static_cast<double>(result.evicted))
      .Num("cache_retained", static_cast<double>(result.retained));
  return result;
}

DynamicGraphServer::DynamicStats DynamicGraphServer::dynamic_stats() const {
  DynamicStats s;
  s.version = index_->version();
  s.delta_depth = index_->delta_depth();
  std::shared_lock lock(mu_);
  s.snapshot_version = snapshot_version_;
  s.updates_applied = updates_applied_;
  s.updates_rejected = updates_rejected_;
  s.compactions = compactions_;
  return s;
}

std::shared_ptr<const Graph> DynamicGraphServer::snapshot() const {
  std::shared_lock lock(mu_);
  return snapshot_;
}

}  // namespace serve
}  // namespace cgnp
