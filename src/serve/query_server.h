// Multi-threaded batched inference server over any registered
// community-search backend.
//
// Backends are selected by registry name (ServeOptions::backend): the
// learned "cgnp" engine or any classical adapter ("kcore", "ktruss",
// "acq", ... -- see cs/searcher.h). Every request is answered by one
// CommunitySearcher::Search call; for "cgnp" that is
// CommunitySearchEngine::Query itself, so a multi-threaded server returns
// results bit-identical to single-threaded Query. On top of that it adds:
//   * a context cache (core/context_cache.h), handed to every Search
//     through QueryOptions: repeated queries against the same community
//     reuse one encoder pass -- the paper's Algorithm 2 asymmetry (encode
//     support once, decode queries cheaply) made explicit at the system
//     level (cgnp backend only; classical answers are cheap and
//     stateless);
//   * a worker pool: every request runs under a thread-local NoGradGuard
//     against an eval-mode model, the regime core/cgnp.h documents as safe
//     for concurrent const access;
//   * per-server statistics: throughput, latency percentiles, error counts
//     and cache effectiveness, attributed to the serving backend.
//
// Error model (API v1): a malformed request -- null graph, out-of-range
// node ids, bad threshold -- never aborts the process; the per-request
// Status travels in SearchResponse::status and errored requests are
// counted in ServerStats::errors. Construction through Create() returns
// NotFound for unknown backend names.
//
// Typical use (see examples/train_and_serve.cpp):
//   auto engine = CommunitySearchEngine::LoadCheckpoint("model.ckpt");
//   serve::ServeOptions opt;
//   opt.num_threads = 8;
//   auto server = QueryServer::Create(&engine.value(), opt);
//   auto responses = (*server)->ServeBatch(requests);
// or, backend by name:
//   serve::ServeOptions opt;
//   opt.backend = "ktruss";
//   auto server = QueryServer::Create(nullptr, opt);
#ifndef CGNP_SERVE_QUERY_SERVER_H_
#define CGNP_SERVE_QUERY_SERVER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/json.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/context_cache.h"
#include "core/engine.h"
#include "cs/searcher.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cgnp {
namespace serve {

// One community-search query. `graph` must stay alive until the response
// is returned; `graph_id` namespaces the context cache (give distinct ids
// to distinct graphs -- entries never collide across ids).
struct SearchRequest {
  const Graph* graph = nullptr;
  // Namespaces the context cache. For graphs opened with OpenMappedGraph,
  // Graph::storage_fingerprint() is a ready-made, process-stable value.
  uint64_t graph_id = 0;
  NodeId query = -1;
  // Version of the graph this request runs against (GraphDelta::version
  // lineage). Static serving leaves it 0; dynamic serving stamps it so
  // cached contexts never cross versions -- see ContextCache and
  // NotifyGraphUpdate.
  uint64_t graph_version = 0;
  // Labelled support observations in `graph`'s node ids; empty = the
  // zero-shot setting (the query conditions the context alone).
  std::vector<QueryExample> support;
  float threshold = 0.5f;
};

struct SearchResponse {
  // Per-request outcome; when non-OK, members/probs are empty and only
  // status/backend/threshold/latency_ms are meaningful. Malformed requests
  // error here instead of aborting the server.
  Status status;
  // Predicted community members in the request graph's ids (for the
  // learned backend: always contains the query node, with the model's
  // membership probability aligned per member; classical backends leave
  // `probs` empty -- their membership is crisp).
  std::vector<NodeId> members;
  std::vector<float> probs;
  // Attribution: which backend answered, at which threshold (bench runs
  // mix backends, so every response is self-describing).
  std::string backend;
  float threshold = 0.5f;
  double latency_ms = 0.0;
  bool cache_hit = false;  // context served from the cache (cgnp only)
  // The request consulted the context cache (cgnp model path reached the
  // lookup). Classical backends never do; this is the honest hit-rate
  // denominator in ServerStats.
  bool cache_eligible = false;
  // Per-request stage-timing tree (pre-order; depth 0 = top-level stage:
  // task_build / cache_lookup / encode / decode for the cgnp path, search
  // for the classical backends; a registered backend gets only the spans
  // its own Search opens). Cache hits have no "encode" stage -- the
  // paper's Algorithm 2 asymmetry, visible per response. Empty when the
  // obs layer is disabled (compile-time CGNP_OBS=OFF or runtime
  // obs::SetEnabled).
  std::vector<obs::StageTiming> stages;
};

// Per-stage latency summary over the serving window, aggregated from the
// depth-0 spans of every traced request. count/mean/total are exact;
// p50_ms comes from the stage's histogram (within 9.1%, see
// obs::DefaultLatencyBucketsMs).
struct StageStats {
  std::string stage;
  uint64_t count = 0;
  double p50_ms = 0.0;
  double mean_ms = 0.0;
  double total_ms = 0.0;
};

struct ServerStats {
  std::string backend;  // registry name serving this window (attribution;
                        // per-request thresholds travel in SearchResponse)
  uint64_t requests = 0;
  uint64_t errors = 0;     // requests answered with a non-OK status
  // Cache effectiveness over CACHE-ELIGIBLE requests only (cgnp model
  // path; classical backends never consult the cache and do not dilute
  // the rate): hit_rate = hits / eligible, misses = eligible - hits.
  uint64_t cache_eligible = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;  // capacity displacements this window
  double cache_hit_rate = 0.0;   // hits / eligible (0 when none eligible)
  // Dynamic serving: graph updates announced through NotifyGraphUpdate
  // this window, and the scoped-invalidation outcome across them --
  // entries evicted (dirty-region overlap) vs re-keyed to the new version
  // (provably still exact).
  uint64_t updates = 0;
  uint64_t cache_invalidated = 0;
  uint64_t cache_retained = 0;
  double qps = 0.0;             // requests / wall-time over the serving window
  // Latency over the whole window. mean_ms is exact; the percentiles come
  // from a histogram (within 9.1% of the exact order statistic, see
  // obs::DefaultLatencyBucketsMs) clamped to [min_ms, max_ms].
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  // Exact running extremes over the window.
  double min_ms = 0.0;
  double max_ms = 0.0;
  // Per-stage breakdown (task_build / cache_lookup / encode / decode /
  // search), sorted by stage name. Empty when the obs layer is off.
  std::vector<StageStats> stages;
};

// JSON rendering of a stats window (the same Json value type the bench
// reports use); tools/obs_dump --format=stats prints it.
bench::Json ServerStatsToJson(const ServerStats& stats);

struct ServeOptions {
  // Backend registry name (cs/searcher.h). "cgnp" serves the engine passed
  // to Create (or a checkpoint via `searcher.checkpoint`); classical names
  // need no engine at all.
  std::string backend = "cgnp";
  // Construction knobs forwarded to the backend factory (classical k,
  // cgnp checkpoint path, ...).
  SearcherConfig searcher;
  // Worker pool size, in [1, kMaxServeThreads].
  int num_threads = 4;
  // Max cached contexts; 0 disables the cache (every request re-encodes).
  int64_t cache_capacity = 256;
  // Read-only mirrors of the cgnp engine's task materialisation
  // parameters (task config, attribute dim, BFS sampling seed): Create
  // overwrites them from the engine, which answers with its own. Kept for
  // callers that replay a served request by hand; values set here are
  // ignored.
  TaskConfig tasks;
  int64_t attribute_dim = 0;
  uint64_t seed = 7;
};

// Opens a binary graph container (docs/GRAPH_FORMAT.md) for serving: the
// returned Graph is backed by a read-only mmap of the file -- million-node
// graphs become servable in O(pages touched), no vectors materialised --
// and shared ownership lets it outlive the opening scope while requests
// are in flight (SearchRequest::graph must stay alive until the response
// returns). Use graph->storage_fingerprint() as the request graph_id so
// cache entries stay stable across server restarts on the same file.
// Errors follow the container's model: NotFound for a missing file,
// DataLoss for a corrupt one -- a serving process rejects the file and
// keeps running.
StatusOr<std::shared_ptr<const Graph>> OpenMappedGraph(
    const std::string& path);

// Upper bound on ServeOptions::num_threads. Create rejects larger values
// with InvalidArgument before starting any thread.
inline constexpr int kMaxServeThreads = 1024;

class QueryServer {
 public:
  // Status-returning construction with backend selection -- the v1 entry
  // point. For backend "cgnp", `engine` must be a trained engine that
  // outlives the server (or ServeOptions::searcher.checkpoint must name an
  // engine checkpoint, which the server's backend restores and owns).
  // Classical backends ignore `engine`. Unknown names return NotFound;
  // num_threads outside [1, kMaxServeThreads] and a negative
  // cache_capacity return InvalidArgument.
  static StatusOr<std::unique_ptr<QueryServer>> Create(
      const CommunitySearchEngine* engine, ServeOptions options);

  ~QueryServer() = default;

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Serves one request synchronously on the calling thread. Never aborts
  // on request content; inspect response.status.
  SearchResponse Serve(const SearchRequest& request);

  // Serves a batch across the worker pool; blocks until every response is
  // ready. Responses are positionally aligned with the requests.
  std::vector<SearchResponse> ServeBatch(
      const std::vector<SearchRequest>& batch);

  // Announces that graph `graph_id` moved to `new_version` with the sorted
  // node set `dirty` edited since the cached entries' versions. Runs a
  // scoped invalidation over the context cache: entries whose recorded
  // task subgraph avoids the dirty region are re-keyed to the new version
  // (their contexts are bit-identical there), the rest are dropped.
  // Returns the sweep outcome; counted in Stats() and the
  // cgnp_serve_updates/cache_invalidated/cache_retained metric families.
  ContextCache::InvalidationResult NotifyGraphUpdate(
      uint64_t graph_id, uint64_t new_version,
      const std::vector<NodeId>& dirty);

  ServerStats Stats() const;
  void ResetStats();

  const std::string& backend_name() const { return backend_name_; }
  const ServeOptions& options() const { return options_; }
  ContextCache& cache() { return cache_; }

 private:
  QueryServer(std::unique_ptr<CommunitySearcher> backend,
              ServeOptions options);

  // The backend dispatch: one backend_->Search with the server's cache;
  // fills members/probs/cache flags, returns the request outcome.
  Status AnswerRequest(const SearchRequest& request, SearchResponse* resp);
  // Folds one request's depth-0 spans into the per-server stage
  // histograms (and the global per-backend/per-stage registry metrics).
  void RecordStages(const std::vector<obs::StageTiming>& stages);

  std::unique_ptr<CommunitySearcher> backend_;
  std::string backend_name_;
  const ServeOptions options_;
  ContextCache cache_;
  ThreadPool pool_;

  // Process-wide per-backend metrics (labelled {backend=...} in the
  // default registry); resolved once at construction, sharded/lock-free
  // to bump. Null only when a registry lookup is impossible.
  struct BackendMetrics {
    obs::Counter* requests = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* updates = nullptr;
    obs::Counter* cache_invalidated = nullptr;
    obs::Counter* cache_retained = nullptr;
    obs::Histogram* latency_ms = nullptr;
    obs::Gauge* queue_depth = nullptr;
  };
  BackendMetrics metrics_;

  // Serving-window stats, guarded by stats_mu_: each request records all
  // of its window state under one lock, so it lands wholly inside one
  // ResetStats window. Latency samples live only in this server's own
  // (unregistered) histograms, recorded with RecordAlways so the window
  // counts with the obs layer off; memory and Stats() cost are constant
  // in the window length.
  mutable std::mutex stats_mu_;
  obs::Histogram latency_ms_;
  uint64_t stat_requests_ = 0;
  uint64_t stat_errors_ = 0;
  uint64_t stat_cache_hits_ = 0;
  uint64_t stat_cache_eligible_ = 0;
  uint64_t stat_updates_ = 0;
  uint64_t stat_cache_invalidated_ = 0;
  uint64_t stat_cache_retained_ = 0;
  double stat_min_ms_ = 0.0;  // valid iff stat_requests_ > 0
  double stat_max_ms_ = 0.0;
  // Eviction count at the last ResetStats; ServerStats windows the
  // cache's lifetime counter against it.
  uint64_t cache_evictions_at_reset_ = 0;
  std::chrono::steady_clock::time_point window_start_{};
  std::chrono::steady_clock::time_point window_end_{};
  bool window_open_ = false;
  // Per-server per-stage window histograms, keyed by stage name; guarded
  // by stats_mu_ alongside the counters above. Created on first sighting
  // of a stage and zeroed (not dropped) by ResetStats.
  struct StageAccum {
    obs::Histogram window;
    // Global cgnp_serve_stage_ms{backend,stage} histogram, resolved on
    // first sighting of the stage so steady state never hits the
    // registry mutex.
    obs::Histogram* global = nullptr;
  };
  std::map<std::string, StageAccum> stage_accums_;
};

}  // namespace serve
}  // namespace cgnp

#endif  // CGNP_SERVE_QUERY_SERVER_H_
