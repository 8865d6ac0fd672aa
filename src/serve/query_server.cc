#include "serve/query_server.h"

#include <algorithm>
#include <condition_variable>
#include <latch>
#include <memory>
#include <optional>
#include <utility>

#include "core/cgnp_searcher.h"
#include "graph/format.h"
#include "obs/log.h"
#include "tensor/workspace.h"

namespace cgnp {
namespace serve {

StatusOr<std::shared_ptr<const Graph>> OpenMappedGraph(
    const std::string& path) {
  CGNP_ASSIGN_OR_RETURN(Graph g, MapGraphBinary(path));
  CGNP_LOG(kInfo, "serve_graph_mapped")
      .Str("path", path)
      .Num("num_nodes", static_cast<double>(g.num_nodes()))
      .Num("num_edges", static_cast<double>(g.num_edges()));
  return std::make_shared<const Graph>(std::move(g));
}

QueryServer::QueryServer(std::unique_ptr<CommunitySearcher> backend,
                         ServeOptions options)
    : backend_(std::move(backend)),
      backend_name_(options.backend),
      options_(std::move(options)),
      cache_(options_.cache_capacity),
      pool_(options_.num_threads) {
  // Resolve the per-backend registry metrics once; recording through the
  // cached pointers is sharded and lock-free.
  auto& reg = obs::MetricsRegistry::Default();
  const obs::Labels labels = {{"backend", backend_name_}};
  metrics_.requests = &reg.GetCounter("cgnp_serve_requests_total", labels);
  metrics_.errors = &reg.GetCounter("cgnp_serve_errors_total", labels);
  metrics_.cache_hits = &reg.GetCounter("cgnp_serve_cache_hits_total", labels);
  metrics_.updates = &reg.GetCounter("cgnp_serve_updates_total", labels);
  metrics_.cache_invalidated =
      &reg.GetCounter("cgnp_serve_cache_invalidated_total", labels);
  metrics_.cache_retained =
      &reg.GetCounter("cgnp_serve_cache_retained_total", labels);
  metrics_.latency_ms = &reg.GetHistogram("cgnp_serve_latency_ms", labels);
  metrics_.queue_depth = &reg.GetGauge("cgnp_serve_queue_depth", labels);
  // Create every worker's thread-local arena now: its first use costs
  // ~0.1 ms (x86-64 Linux), which would otherwise land in a worker's first
  // request outside every stage span. Reserve its first block too (a
  // zero-byte allocation), so a worker the pool has not yet handed a
  // request does not grow the arena mid-serving. The latch holds each
  // warm-up task until all have started, so each runs on a distinct
  // worker.
  const auto started = std::make_shared<std::latch>(pool_.num_threads());
  for (int i = 0; i < pool_.num_threads(); ++i) {
    pool_.Submit([started] {
      (void)Workspace::ThreadLocal()->Allocate(0);
      started->arrive_and_wait();
    });
  }
  started->wait();
  CGNP_LOG(kDebug, "serve_start")
      .Str("backend", backend_name_)
      .Num("num_threads", options_.num_threads)
      .Num("cache_capacity", static_cast<double>(options_.cache_capacity));
}

StatusOr<std::unique_ptr<QueryServer>> QueryServer::Create(
    const CommunitySearchEngine* engine, ServeOptions options) {
  // Checked before the pool exists, so an oversized request starts no
  // threads at all.
  if (options.num_threads <= 0 || options.num_threads > kMaxServeThreads) {
    return InvalidArgumentError(
        "num_threads must be in [1, " + std::to_string(kMaxServeThreads) +
        "], got " + std::to_string(options.num_threads));
  }
  if (options.cache_capacity < 0) {
    return InvalidArgumentError("cache_capacity must be >= 0, got " +
                                std::to_string(options.cache_capacity));
  }
  std::unique_ptr<CommunitySearcher> backend;
  if (options.backend == "cgnp") {
    std::shared_ptr<const CommunitySearchEngine> shared;
    if (engine != nullptr) {
      // Borrowed: the caller keeps the engine alive past the server, so
      // the pointer shares no ownership (aliasing an empty shared_ptr).
      shared = std::shared_ptr<const CommunitySearchEngine>(
          std::shared_ptr<const void>(), engine);
    } else if (!options.searcher.checkpoint.empty()) {
      CGNP_ASSIGN_OR_RETURN(
          CommunitySearchEngine restored,
          CommunitySearchEngine::LoadCheckpoint(options.searcher.checkpoint));
      shared = std::make_shared<const CommunitySearchEngine>(
          std::move(restored));
    } else {
      return InvalidArgumentError(
          "the \"cgnp\" backend needs a trained engine (pass one to "
          "Create, or set ServeOptions::searcher.checkpoint)");
    }
    // Mirror the task materialisation parameters for inspection
    // (options()); the searcher answers through engine.Query, which uses
    // the engine's own.
    options.tasks = shared->options().tasks;
    options.attribute_dim = shared->attribute_dim();
    options.seed = shared->options().seed;
    CGNP_ASSIGN_OR_RETURN(backend, MakeCgnpSearcher(std::move(shared)));
  } else {
    // Unknown names return NotFound listing the registered backends.
    CGNP_ASSIGN_OR_RETURN(backend,
                          MakeSearcher(options.backend, options.searcher));
  }
  return std::unique_ptr<QueryServer>(
      new QueryServer(std::move(backend), std::move(options)));
}

Status QueryServer::AnswerRequest(const SearchRequest& request,
                                  SearchResponse* resp) {
  if (request.graph == nullptr) {
    return InvalidArgumentError("SearchRequest without a graph");
  }
  QueryOptions query_options;
  query_options.threshold = request.threshold;
  query_options.cache = &cache_;
  query_options.graph_id = request.graph_id;
  query_options.graph_version = request.graph_version;
  // The backend validates the request itself (node ids, threshold).
  CGNP_ASSIGN_OR_RETURN(
      QueryResult result,
      backend_->Search(*request.graph, request.query, request.support,
                       query_options));
  resp->members = std::move(result.members);
  resp->probs = std::move(result.probs);
  resp->cache_eligible = result.cache_eligible;
  resp->cache_hit = result.cache_hit;
  return Status::Ok();
}

void QueryServer::RecordStages(const std::vector<obs::StageTiming>& stages) {
  // Caller holds stats_mu_. Only depth-0 spans aggregate (children are
  // already included in their parent's elapsed time).
  for (const auto& st : stages) {
    if (st.depth != 0) continue;
    StageAccum& acc = stage_accums_[st.name];
    if (acc.global == nullptr) {
      acc.global = &obs::MetricsRegistry::Default().GetHistogram(
          "cgnp_serve_stage_ms",
          {{"backend", backend_name_}, {"stage", st.name}});
    }
    acc.window.RecordAlways(st.ms);
    acc.global->Record(st.ms);
  }
}

SearchResponse QueryServer::Serve(const SearchRequest& request) {
  metrics_.queue_depth->Set(static_cast<double>(pool_.pending()));
  const auto start = std::chrono::steady_clock::now();
  SearchResponse resp;
  resp.backend = backend_name_;
  resp.threshold = request.threshold;
#if CGNP_OBS_ENABLED
  // Capture this request's stage tree: spans fired anywhere below
  // AnswerRequest (task_build/cache_lookup/encode/decode in the engine,
  // search in the classical adapters) land in this collector.
  std::optional<obs::TraceCollector> collector;
  if (obs::Enabled()) collector.emplace();
#endif
  {
    // One arena cycle per request: every intermediate tensor allocated
    // under AnswerRequest lands in this thread's workspace and is
    // reclaimed wholesale here. Escaping state (response vectors, cached
    // contexts) is plain heap by construction -- see tensor/workspace.h.
    WorkspaceScope workspace;
    resp.status = AnswerRequest(request, &resp);
  }
  if (!resp.status.ok()) {
    CGNP_LOG_EVERY(kWarn, "serve_request_failed", /*per_second=*/1.0)
        .Str("backend", backend_name_)
        .Err(resp.status);
  }
#if CGNP_OBS_ENABLED
  if (collector) resp.stages = collector->Take();
#endif
  const auto end = std::chrono::steady_clock::now();
  resp.latency_ms =
      std::chrono::duration<double, std::milli>(end - start).count();

  metrics_.requests->Increment();
  if (!resp.status.ok()) metrics_.errors->Increment();
  if (resp.cache_hit) metrics_.cache_hits->Increment();
  metrics_.latency_ms->Record(resp.latency_ms);

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    latency_ms_.RecordAlways(resp.latency_ms);
    ++stat_requests_;
    if (!resp.status.ok()) ++stat_errors_;
    if (resp.cache_hit) ++stat_cache_hits_;
    if (resp.cache_eligible) ++stat_cache_eligible_;
    if (stat_requests_ == 1) {
      stat_min_ms_ = stat_max_ms_ = resp.latency_ms;
    } else {
      stat_min_ms_ = std::min(stat_min_ms_, resp.latency_ms);
      stat_max_ms_ = std::max(stat_max_ms_, resp.latency_ms);
    }
    if (!resp.stages.empty()) RecordStages(resp.stages);
    if (!window_open_) {
      window_start_ = start;
      window_open_ = true;
    }
    window_end_ = std::max(window_end_, end);
  }
  return resp;
}

ContextCache::InvalidationResult QueryServer::NotifyGraphUpdate(
    uint64_t graph_id, uint64_t new_version,
    const std::vector<NodeId>& dirty) {
  ContextCache::InvalidationResult result;
  {
    CGNP_TRACE_SPAN("invalidate");
    result = cache_.ScopedInvalidate(graph_id, new_version, dirty);
  }
  metrics_.updates->Increment();
  metrics_.cache_invalidated->Increment(
      static_cast<uint64_t>(result.evicted));
  metrics_.cache_retained->Increment(
      static_cast<uint64_t>(result.retained));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stat_updates_;
    stat_cache_invalidated_ += static_cast<uint64_t>(result.evicted);
    stat_cache_retained_ += static_cast<uint64_t>(result.retained);
  }
  CGNP_LOG(kDebug, "serve_graph_update")
      .Num("graph_id", static_cast<double>(graph_id))
      .Num("version", static_cast<double>(new_version))
      .Num("dirty_nodes", static_cast<double>(dirty.size()))
      .Num("evicted", static_cast<double>(result.evicted))
      .Num("retained", static_cast<double>(result.retained));
  return result;
}

std::vector<SearchResponse> QueryServer::ServeBatch(
    const std::vector<SearchRequest>& batch) {
  std::vector<SearchResponse> responses(batch.size());
  if (batch.empty()) return responses;

  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t remaining = batch.size();
  for (size_t i = 0; i < batch.size(); ++i) {
    pool_.Submit([this, &batch, &responses, &done_mu, &done_cv, &remaining,
                  i] {
      responses[i] = Serve(batch[i]);
      std::lock_guard<std::mutex> lock(done_mu);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&remaining] { return remaining == 0; });
  return responses;
}

ServerStats QueryServer::Stats() const {
  ServerStats s;
  s.backend = backend_name_;
  obs::HistogramSnapshot latency;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s.requests = stat_requests_;
    s.errors = stat_errors_;
    s.cache_hits = stat_cache_hits_;
    s.cache_eligible = stat_cache_eligible_;
    s.updates = stat_updates_;
    s.cache_invalidated = stat_cache_invalidated_;
    s.cache_retained = stat_cache_retained_;
    s.min_ms = stat_min_ms_;
    s.max_ms = stat_max_ms_;
    // The cache counts displacements over its lifetime; window against
    // the snapshot taken at the last ResetStats.
    s.cache_evictions = cache_.evictions() - cache_evictions_at_reset_;
    latency = latency_ms_.Snapshot();
    for (const auto& [stage, acc] : stage_accums_) {
      const obs::HistogramSnapshot snap = acc.window.Snapshot();
      if (snap.count == 0) continue;
      StageStats ss;
      ss.stage = stage;
      ss.count = snap.count;
      ss.total_ms = snap.sum;
      ss.mean_ms = snap.sum / static_cast<double>(snap.count);
      ss.p50_ms = snap.ApproxQuantile(0.50);
      s.stages.push_back(std::move(ss));
    }
    if (window_open_ && s.requests > 0) {
      const double secs = std::chrono::duration<double>(
                              window_end_ - window_start_)
                              .count();
      s.qps = secs > 0 ? static_cast<double>(s.requests) / secs : 0.0;
    }
  }
  // Honest cache accounting: classical backends never consult the cache,
  // so they contribute neither hits nor misses.
  s.cache_misses = s.cache_eligible - s.cache_hits;
  s.cache_hit_rate = s.cache_eligible > 0
                         ? static_cast<double>(s.cache_hits) /
                               static_cast<double>(s.cache_eligible)
                         : 0.0;
  if (latency.count > 0) {
    s.mean_ms = latency.sum / static_cast<double>(latency.count);
    // The exact extremes tighten the bucket interpolation at both ends.
    const auto quantile = [&](double q) {
      return std::clamp(latency.ApproxQuantile(q), s.min_ms, s.max_ms);
    };
    s.p50_ms = quantile(0.50);
    s.p90_ms = quantile(0.90);
    s.p99_ms = quantile(0.99);
  }
  return s;
}

void QueryServer::ResetStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  latency_ms_.Reset();
  stat_requests_ = 0;
  stat_errors_ = 0;
  stat_cache_hits_ = 0;
  stat_cache_eligible_ = 0;
  stat_updates_ = 0;
  stat_cache_invalidated_ = 0;
  stat_cache_retained_ = 0;
  stat_min_ms_ = stat_max_ms_ = 0.0;
  cache_evictions_at_reset_ = cache_.evictions();
  for (auto& entry : stage_accums_) entry.second.window.Reset();
  window_open_ = false;
  window_start_ = window_end_ = std::chrono::steady_clock::time_point{};
}

bench::Json ServerStatsToJson(const ServerStats& stats) {
  bench::Json doc = bench::Json::MakeObject();
  doc.Set("backend", bench::Json::MakeString(stats.backend));
  doc.Set("requests", bench::Json::MakeNumber(
                          static_cast<double>(stats.requests)));
  doc.Set("errors",
          bench::Json::MakeNumber(static_cast<double>(stats.errors)));
  doc.Set("cache_eligible", bench::Json::MakeNumber(
                                static_cast<double>(stats.cache_eligible)));
  doc.Set("cache_hits", bench::Json::MakeNumber(
                            static_cast<double>(stats.cache_hits)));
  doc.Set("cache_misses", bench::Json::MakeNumber(
                              static_cast<double>(stats.cache_misses)));
  doc.Set("cache_evictions", bench::Json::MakeNumber(
                                 static_cast<double>(stats.cache_evictions)));
  doc.Set("cache_hit_rate", bench::Json::MakeNumber(stats.cache_hit_rate));
  doc.Set("updates", bench::Json::MakeNumber(
                         static_cast<double>(stats.updates)));
  doc.Set("cache_invalidated",
          bench::Json::MakeNumber(
              static_cast<double>(stats.cache_invalidated)));
  doc.Set("cache_retained", bench::Json::MakeNumber(
                                static_cast<double>(stats.cache_retained)));
  doc.Set("qps", bench::Json::MakeNumber(stats.qps));
  doc.Set("mean_ms", bench::Json::MakeNumber(stats.mean_ms));
  doc.Set("p50_ms", bench::Json::MakeNumber(stats.p50_ms));
  doc.Set("p90_ms", bench::Json::MakeNumber(stats.p90_ms));
  doc.Set("p99_ms", bench::Json::MakeNumber(stats.p99_ms));
  doc.Set("min_ms", bench::Json::MakeNumber(stats.min_ms));
  doc.Set("max_ms", bench::Json::MakeNumber(stats.max_ms));
  bench::Json stages = bench::Json::MakeArray();
  for (const auto& st : stats.stages) {
    bench::Json row = bench::Json::MakeObject();
    row.Set("stage", bench::Json::MakeString(st.stage));
    row.Set("count",
            bench::Json::MakeNumber(static_cast<double>(st.count)));
    row.Set("p50_ms", bench::Json::MakeNumber(st.p50_ms));
    row.Set("mean_ms", bench::Json::MakeNumber(st.mean_ms));
    row.Set("total_ms", bench::Json::MakeNumber(st.total_ms));
    stages.Append(std::move(row));
  }
  doc.Set("stages", std::move(stages));
  return doc;
}

}  // namespace serve
}  // namespace cgnp
