#include "serve/query_server.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/context_cache.h"
#include "cs/kcore_community.h"
#include "cs/ktruss_community.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"

namespace cgnp {
namespace {

using serve::QueryServer;
using serve::SearchRequest;
using serve::SearchResponse;
using serve::ServeOptions;

// All construction goes through the validating Create(); the helper keeps
// each test at one line. Tests that need a failure path call Create()
// directly and inspect the Status.
std::unique_ptr<QueryServer> MakeServer(const CommunitySearchEngine& engine,
                                        int num_threads,
                                        int64_t cache_capacity = 256) {
  ServeOptions opt;
  opt.num_threads = num_threads;
  opt.cache_capacity = cache_capacity;
  return QueryServer::Create(&engine, opt).value();
}

Graph PlantedGraph(uint64_t seed = 1) {
  Rng rng(seed);
  SyntheticConfig cfg;
  cfg.num_nodes = 500;
  cfg.num_communities = 5;
  cfg.intra_degree = 12;
  cfg.inter_degree = 1.5;
  cfg.attribute_dim = 16;
  cfg.attrs_per_node = 3;
  cfg.attrs_per_community_pool = 5;
  cfg.attr_affinity = 0.9;
  return GenerateSyntheticGraph(cfg, &rng);
}

CommunitySearchEngine TrainedEngine(const Graph& g) {
  CommunitySearchEngine::Options opt;
  opt.model.encoder = GnnKind::kGcn;
  opt.model.hidden_dim = 16;
  opt.model.num_layers = 2;
  opt.model.epochs = 4;
  opt.model.lr = 5e-3f;
  opt.tasks.subgraph_size = 80;
  opt.tasks.shots = 2;
  opt.tasks.query_set_size = 6;
  opt.num_train_tasks = 6;
  CommunitySearchEngine engine(opt);
  CGNP_CHECK(engine.Fit(g).ok());
  return engine;
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(counter.load(), 100);
}

TEST(ContextCacheTest, LruEvictionAndCounters) {
  ContextCache cache(2);
  const ContextCache::Key a{1, 10}, b{1, 20}, c{1, 30};
  Tensor out;
  EXPECT_FALSE(cache.Get(a, &out));
  cache.Put(a, Tensor::Full({2}, 1.0f));
  cache.Put(b, Tensor::Full({2}, 2.0f));
  ASSERT_TRUE(cache.Get(a, &out));  // promotes a over b
  EXPECT_EQ(out.At(0), 1.0f);
  cache.Put(c, Tensor::Full({2}, 3.0f));  // evicts b (LRU)
  EXPECT_FALSE(cache.Get(b, &out));
  EXPECT_TRUE(cache.Get(a, &out));
  EXPECT_TRUE(cache.Get(c, &out));
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(ContextCacheTest, ZeroCapacityDisablesCaching) {
  ContextCache cache(0);
  cache.Put({1, 10}, Tensor::Full({2}, 1.0f));
  Tensor out;
  EXPECT_FALSE(cache.Get({1, 10}, &out));
  EXPECT_EQ(cache.size(), 0);
}

TEST(ContextCacheTest, GraphIdNamespacesEntries) {
  ContextCache cache(4);
  cache.Put({1, 10}, Tensor::Full({2}, 1.0f));
  Tensor out;
  EXPECT_FALSE(cache.Get({2, 10}, &out)) << "same fingerprint, other graph";
  EXPECT_TRUE(cache.Get({1, 10}, &out));
}

TEST(ContextCacheTest, TaskFingerprintSeparatesTasks) {
  Graph g = PlantedGraph();
  int32_t max_attr = -1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (int32_t a : g.Attributes(v)) max_attr = std::max(max_attr, a);
  }
  const int64_t attr_dim = max_attr + 1;
  TaskConfig tasks;
  tasks.subgraph_size = 60;
  const LocalQueryTask t1 =
      BuildQueryTask(g, 3, {}, tasks, attr_dim, 7).value();
  const LocalQueryTask t1_again =
      BuildQueryTask(g, 3, {}, tasks, attr_dim, 7).value();
  const LocalQueryTask t2 =
      BuildQueryTask(g, 4, {}, tasks, attr_dim, 7).value();
  EXPECT_EQ(TaskFingerprint(t1), TaskFingerprint(t1_again));
  EXPECT_NE(TaskFingerprint(t1), TaskFingerprint(t2));

  // A support observation with extra positives changes the conditioning,
  // so it must change the fingerprint even over the identical subgraph.
  QueryExample obs;
  obs.query = 3;
  obs.pos = t1.nodes.size() > 1 ? std::vector<NodeId>{t1.nodes[1]}
                                : std::vector<NodeId>{};
  const LocalQueryTask t1_supported =
      BuildQueryTask(g, 3, {obs}, tasks, attr_dim, 7).value();
  EXPECT_EQ(t1.nodes, t1_supported.nodes);
  EXPECT_NE(TaskFingerprint(t1), TaskFingerprint(t1_supported));
}

TEST(ContextCacheTest, OutOfRangeSupportIdReturnsStatus) {
  Graph g = PlantedGraph();
  int32_t max_attr = -1;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (int32_t a : g.Attributes(v)) max_attr = std::max(max_attr, a);
  }
  TaskConfig tasks;
  tasks.subgraph_size = 60;
  QueryExample obs;
  obs.query = g.num_nodes() + 5;  // malformed external request
  const auto task = BuildQueryTask(g, 3, {obs}, tasks, max_attr + 1, 7);
  ASSERT_FALSE(task.ok());
  EXPECT_EQ(task.status().code(), StatusCode::kOutOfRange);
}

TEST(QueryServerTest, CachedContextIdenticalToFresh) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  auto server_ptr = MakeServer(engine, 2, 16);
  QueryServer& server = *server_ptr;

  SearchRequest req;
  req.graph = &g;
  req.graph_id = 1;
  req.query = 17;
  const SearchResponse fresh = server.Serve(req);
  ASSERT_TRUE(fresh.status.ok()) << fresh.status;
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_EQ(fresh.backend, "cgnp");
  EXPECT_EQ(fresh.threshold, req.threshold);
  const SearchResponse cached = server.Serve(req);
  ASSERT_TRUE(cached.status.ok()) << cached.status;
  EXPECT_TRUE(cached.cache_hit);

  // Cached vs freshly encoded context must produce identical predictions.
  ASSERT_EQ(fresh.members, cached.members);
  ASSERT_EQ(fresh.probs.size(), cached.probs.size());
  for (size_t i = 0; i < fresh.probs.size(); ++i) {
    EXPECT_EQ(fresh.probs[i], cached.probs[i]);  // bitwise
  }
}

TEST(QueryServerTest, MatchesSingleThreadedEngineSearch) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  auto server_ptr = MakeServer(engine, 4);
  QueryServer& server = *server_ptr;

  std::vector<SearchRequest> batch;
  for (NodeId q = 0; q < 40; ++q) {
    SearchRequest req;
    req.graph = &g;
    req.graph_id = 1;
    req.query = q;
    batch.push_back(req);
  }
  const auto responses = server.ServeBatch(batch);
  ASSERT_EQ(responses.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok()) << responses[i].status;
    EXPECT_EQ(responses[i].members,
              engine.Query(g, batch[i].query).value().members)
        << "multi-threaded serving diverged from Search on query "
        << batch[i].query;
  }
}

TEST(QueryServerTest, SupportedQueriesMatchEngineSearch) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  auto server_ptr = MakeServer(engine, 2);
  QueryServer& server = *server_ptr;

  const NodeId q = 42;
  QueryExample obs;
  obs.query = q;
  const int64_t community = g.CommunityOf(q);
  for (NodeId v = 0; v < g.num_nodes() && obs.pos.size() < 5; ++v) {
    if (v != q && g.CommunityOf(v) == community) obs.pos.push_back(v);
  }
  SearchRequest req;
  req.graph = &g;
  req.query = q;
  req.support = {obs};
  EXPECT_EQ(server.Serve(req).members,
            engine.Query(g, q, {obs}).value().members);
}

TEST(QueryServerTest, StatsTrackRequestsAndCacheHits) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  auto server_ptr = MakeServer(engine, 4, 64);
  QueryServer& server = *server_ptr;

  // 3 distinct queries, each asked 4 times: 3 misses, 9 hits. The first
  // asks go out as their own batch, so no repeat can race a first encode.
  const auto requests_for = [&g](int reps) {
    std::vector<SearchRequest> batch;
    for (int rep = 0; rep < reps; ++rep) {
      for (NodeId q : {NodeId(5), NodeId(6), NodeId(7)}) {
        SearchRequest req;
        req.graph = &g;
        req.graph_id = 1;
        req.query = q;
        batch.push_back(req);
      }
    }
    return batch;
  };
  const auto first = server.ServeBatch(requests_for(1));
  const auto repeats = server.ServeBatch(requests_for(3));
  // Identical requests must agree regardless of which thread / cache state
  // served them.
  for (size_t i = 0; i < repeats.size(); ++i) {
    EXPECT_TRUE(repeats[i].cache_hit);
    EXPECT_EQ(repeats[i].members, first[i % 3].members);
  }

  const auto stats = server.Stats();
  const size_t total = first.size() + repeats.size();
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_hits, 9u);
  // Every cgnp request consults the cache, so the hit-rate denominator is
  // every request here.
  EXPECT_EQ(stats.cache_eligible, total);
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate,
                   static_cast<double>(stats.cache_hits) /
                       static_cast<double>(stats.cache_eligible));
  EXPECT_GT(stats.qps, 0.0);
  EXPECT_GT(stats.p50_ms, 0.0);
  EXPECT_GE(stats.p99_ms, stats.p50_ms);
  EXPECT_GE(stats.max_ms, stats.p99_ms);
  EXPECT_GT(stats.min_ms, 0.0);
  EXPECT_LE(stats.min_ms, stats.p50_ms);

  server.ResetStats();
  EXPECT_EQ(server.Stats().requests, 0u);
  EXPECT_DOUBLE_EQ(server.Stats().min_ms, 0.0);
}

TEST(QueryServerTest, WarmServingAllocatesNoNewWorkspaceBytes) {
  // The zero-steady-state-allocation contract (docs/KERNELS.md): every
  // per-query tensor allocation comes from the per-thread workspace arena,
  // and arenas retain their blocks across queries -- so once every worker
  // has served the workload once, repeating it reserves no new memory.
  // cgnp_workspace_bytes sums live arena reservations process-wide and
  // cgnp_workspace_hwm is the per-query usage high water; both must be
  // flat across warm rounds at any thread count.
  obs::Gauge& bytes =
      obs::MetricsRegistry::Default().GetGauge("cgnp_workspace_bytes");
  obs::Gauge& hwm =
      obs::MetricsRegistry::Default().GetGauge("cgnp_workspace_hwm");
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);

  for (int threads : {1, 2, 8}) {
    auto server_ptr = MakeServer(engine, threads, 16);
    QueryServer& server = *server_ptr;
    std::vector<SearchRequest> batch;
    for (NodeId q = 0; q < NodeId(4 * threads); ++q) {
      SearchRequest req;
      req.graph = &g;
      req.graph_id = 1;
      req.query = q;
      batch.push_back(req);
    }
    // Warm until reservations stop growing: the pool hands queries to
    // workers nondeterministically, so loop until a full round leaves the
    // gauge untouched (every worker arena now covers the per-query need).
    double warm_bytes = -1.0;
    for (int round = 0; round < 20 && bytes.Value() != warm_bytes; ++round) {
      warm_bytes = bytes.Value();
      for (const SearchResponse& r : server.ServeBatch(batch)) {
        ASSERT_TRUE(r.status.ok()) << r.status;
      }
    }
    ASSERT_EQ(bytes.Value(), warm_bytes) << "arenas never stabilized at "
                                         << threads << " threads";
    const double warm_hwm = hwm.Value();

    // Steady state: the same workload, repeated, allocates zero new bytes.
    for (int round = 0; round < 5; ++round) {
      for (const SearchResponse& r : server.ServeBatch(batch)) {
        ASSERT_TRUE(r.status.ok()) << r.status;
      }
      EXPECT_EQ(bytes.Value(), warm_bytes)
          << threads << " threads, warm round " << round;
      EXPECT_EQ(hwm.Value(), warm_hwm)
          << threads << " threads, warm round " << round;
    }
  }  // server destruction joins the pool; dying arenas decrement the gauge
}

// --- Backend selection by registry name ------------------------------------

TEST(QueryServerBackendTest, UnknownBackendNameReturnsNotFound) {
  serve::ServeOptions opt;
  opt.backend = "definitely-not-a-backend";
  const auto server = QueryServer::Create(nullptr, opt);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kNotFound);
  EXPECT_NE(server.status().message().find("kcore"), std::string::npos)
      << "error should list the registered backends: " << server.status();
}

TEST(QueryServerBackendTest, CgnpBackendNeedsAnEngine) {
  serve::ServeOptions opt;
  opt.backend = "cgnp";
  const auto server = QueryServer::Create(nullptr, opt);
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryServerBackendTest, ClassicalBackendsMatchDirectCalls) {
  Graph g = PlantedGraph();
  for (const char* name : {"kcore", "ktruss"}) {
    serve::ServeOptions opt;
    opt.backend = name;
    opt.num_threads = 2;
    auto server = QueryServer::Create(nullptr, opt);
    ASSERT_TRUE(server.ok()) << server.status();
    EXPECT_EQ((*server)->backend_name(), name);

    SearchRequest req;
    req.graph = &g;
    req.query = 17;
    const SearchResponse resp = (*server)->Serve(req);
    ASSERT_TRUE(resp.status.ok()) << resp.status;
    EXPECT_EQ(resp.backend, name);
    const std::vector<NodeId> direct = std::string(name) == "kcore"
                                           ? KCoreCommunity(g, 17)
                                           : KTrussCommunity(g, 17);
    EXPECT_EQ(resp.members, direct)
        << name << " served through the registry diverged from the direct "
        << "src/cs/ call";
    EXPECT_TRUE(resp.probs.empty()) << "classical membership is crisp";
  }
}

TEST(QueryServerBackendTest, CgnpViaCreateMatchesEngineSearch) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  serve::ServeOptions opt;
  opt.backend = "cgnp";
  opt.num_threads = 2;
  auto server = QueryServer::Create(&engine, opt);
  ASSERT_TRUE(server.ok()) << server.status();

  SearchRequest req;
  req.graph = &g;
  req.graph_id = 1;
  req.query = 23;
  const SearchResponse resp = (*server)->Serve(req);
  ASSERT_TRUE(resp.status.ok()) << resp.status;
  EXPECT_EQ(resp.backend, "cgnp");
  EXPECT_EQ(resp.members, engine.Query(g, 23).value().members);
}

// --- Differential: served cgnp vs the engine's own Query ------------------

// Randomized cgnp requests with distinct query nodes: zero-shot and
// supported, support ids drawn both from the query's community and from
// anywhere in the graph (most of which fall outside the 80-node task
// subgraph and are dropped by the remap), thresholds in {0, 0.5, 1}.
std::vector<SearchRequest> RandomCgnpRequests(const Graph& g, int count,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> queries(static_cast<size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) queries[v] = v;
  rng.Shuffle(&queries);
  const float thresholds[] = {0.0f, 0.5f, 1.0f};
  std::vector<SearchRequest> out;
  for (int i = 0; i < count; ++i) {
    SearchRequest req;
    req.graph = &g;
    req.graph_id = 1;
    req.query = queries[i];
    req.threshold = thresholds[rng.NextInt(3)];
    const int64_t shots = rng.NextInt(3);  // 0 = zero-shot
    for (int64_t s = 0; s < shots; ++s) {
      QueryExample ex;
      ex.query = s == 0 ? req.query : rng.NextInt(g.num_nodes());
      const int64_t community = g.CommunityOf(ex.query);
      for (int k = 0; k < 4; ++k) {
        const NodeId v = rng.NextInt(g.num_nodes());
        if (g.CommunityOf(v) == community) ex.pos.push_back(v);
      }
      for (int64_t k = rng.NextInt(4); k > 0; --k) {
        ex.neg.push_back(rng.NextInt(g.num_nodes()));
      }
      req.support.push_back(std::move(ex));
    }
    out.push_back(std::move(req));
  }
  return out;
}

// Members equal and probs bitwise equal to the uncached engine.Query.
void ExpectMatchesEngineQuery(const CommunitySearchEngine& engine,
                              const SearchRequest& req,
                              const SearchResponse& resp) {
  ASSERT_TRUE(resp.status.ok()) << resp.status;
  const QueryResult want =
      engine.Query(*req.graph, req.query, req.support,
                   QueryOptions{req.threshold})
          .value();
  EXPECT_EQ(resp.members, want.members) << "query " << req.query;
  ASSERT_EQ(resp.probs.size(), want.probs.size()) << "query " << req.query;
  EXPECT_EQ(std::memcmp(resp.probs.data(), want.probs.data(),
                        want.probs.size() * sizeof(float)),
            0)
      << "probs differ bitwise on query " << req.query;
  EXPECT_TRUE(resp.cache_eligible);
}

TEST(CgnpDifferentialTest, ServedMatchesEngineQueryAcrossThreadsAndCaches) {
  const Graph g = PlantedGraph();
  const CommunitySearchEngine engine = TrainedEngine(g);
  const std::vector<SearchRequest> requests = RandomCgnpRequests(g, 24, 99);

  // The batch really exercises support nodes outside the task subgraph.
  int outside = 0;
  for (const SearchRequest& req : requests) {
    const LocalQueryTask task =
        BuildQueryTask(g, req.query, req.support, engine.options().tasks,
                       engine.attribute_dim(), engine.options().seed)
            .value();
    const std::set<NodeId> in_task(task.nodes.begin(), task.nodes.end());
    for (const QueryExample& ex : req.support) {
      bool any_outside = in_task.count(ex.query) == 0;
      for (NodeId v : ex.pos) any_outside |= in_task.count(v) == 0;
      for (NodeId v : ex.neg) any_outside |= in_task.count(v) == 0;
      outside += any_outside ? 1 : 0;
    }
  }
  EXPECT_GT(outside, 0);

  for (int threads : {1, 4}) {
    for (int64_t capacity : {int64_t{0}, int64_t{2}, int64_t{256}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " capacity=" + std::to_string(capacity));
      auto server = MakeServer(engine, threads, capacity);
      const auto first = server->ServeBatch(requests);
      const auto second = server->ServeBatch(requests);
      for (size_t i = 0; i < requests.size(); ++i) {
        ExpectMatchesEngineQuery(engine, requests[i], first[i]);
        ExpectMatchesEngineQuery(engine, requests[i], second[i]);
        // Distinct queries never share a context, so the first pass
        // always encodes; the second hits whenever everything fits (at
        // capacity 2 the concurrent eviction order is unspecified).
        EXPECT_FALSE(first[i].cache_hit);
        if (capacity != 2) {
          EXPECT_EQ(second[i].cache_hit, capacity == 256);
        }
      }
    }
  }
}

TEST(CgnpDifferentialTest, CacheFlagsFollowLruThroughEvictions) {
  const Graph g = PlantedGraph();
  const CommunitySearchEngine engine = TrainedEngine(g);
  std::vector<SearchRequest> r = RandomCgnpRequests(g, 3, 7);
  r[0].support.clear();  // zero-shot; see the supported twin below
  auto server = MakeServer(engine, 1, /*cache_capacity=*/2);

  // Capacity 2, LRU: A B | A hit | C evicts B | B evicts A | C hit | A.
  const std::pair<int, bool> sequence[] = {{0, false}, {1, false},
                                           {0, true},  {2, false},
                                           {1, false}, {2, true},
                                           {0, false}};
  for (const auto& [i, hit] : sequence) {
    const SearchResponse resp = server->Serve(r[i]);
    ExpectMatchesEngineQuery(engine, r[i], resp);
    EXPECT_EQ(resp.cache_hit, hit) << "request " << i;
  }
  // The threshold is not part of the key: a hit at another threshold
  // still decodes exactly what an uncached Query would.
  r[0].threshold = r[0].threshold == 1.0f ? 0.0f : 1.0f;
  const SearchResponse rethresholded = server->Serve(r[0]);
  ExpectMatchesEngineQuery(engine, r[0], rethresholded);
  EXPECT_TRUE(rethresholded.cache_hit);
  EXPECT_EQ(server->Stats().cache_evictions, 3u);

  // Same query and subgraph but a support example the remap keeps (the
  // query's first neighbour is in its BFS sample): a different task, so
  // it must not reuse the zero-shot context.
  SearchRequest supported = r[0];
  QueryExample ex;
  ex.query = r[0].query;
  ex.pos.push_back(g.Neighbors(r[0].query)[0]);
  supported.support = {ex};
  const SearchResponse resp = server->Serve(supported);
  ExpectMatchesEngineQuery(engine, supported, resp);
  EXPECT_FALSE(resp.cache_hit);
}

TEST(CgnpDifferentialTest, CheckpointBackedServerOwnsItsEngine) {
  const Graph g = PlantedGraph();
  const CommunitySearchEngine engine = TrainedEngine(g);
  const std::string path = ::testing::TempDir() + "serve_engine.ckpt";
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  ServeOptions opt;
  opt.num_threads = 2;
  opt.searcher.checkpoint = path;
  auto server = QueryServer::Create(nullptr, opt);
  // The restored engine lives in the server; the file is no longer needed.
  std::remove(path.c_str());
  ASSERT_TRUE(server.ok()) << server.status();

  const std::vector<SearchRequest> requests = RandomCgnpRequests(g, 8, 5);
  for (int pass = 0; pass < 2; ++pass) {
    const auto responses = (*server)->ServeBatch(requests);
    for (size_t i = 0; i < requests.size(); ++i) {
      ExpectMatchesEngineQuery(engine, requests[i], responses[i]);
      EXPECT_EQ(responses[i].cache_hit, pass == 1);
    }
  }
}

// --- Error paths: malformed requests never abort the server ----------------

TEST(QueryServerErrorTest, OutOfRangeQueryIdReturnsStatusResponse) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  auto server_ptr = MakeServer(engine, 2);
  QueryServer& server = *server_ptr;

  SearchRequest req;
  req.graph = &g;
  req.query = g.num_nodes() + 100;
  const SearchResponse resp = server.Serve(req);
  ASSERT_FALSE(resp.status.ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(resp.members.empty());
  EXPECT_EQ(server.Stats().errors, 1u);
}

TEST(QueryServerErrorTest, NullGraphReturnsStatusResponse) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  auto server_ptr = MakeServer(engine, 2);
  QueryServer& server = *server_ptr;

  SearchRequest req;  // graph left null
  req.query = 3;
  const SearchResponse resp = server.Serve(req);
  ASSERT_FALSE(resp.status.ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument);
}

TEST(QueryServerErrorTest, BatchMixesErrorsAndSuccesses) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = TrainedEngine(g);
  auto server_ptr = MakeServer(engine, 4);
  QueryServer& server = *server_ptr;

  std::vector<SearchRequest> batch;
  for (NodeId q : {NodeId(3), NodeId(-7), NodeId(5), g.num_nodes()}) {
    SearchRequest req;
    req.graph = &g;
    req.query = q;
    batch.push_back(req);
  }
  const auto responses = server.ServeBatch(batch);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_FALSE(responses[1].status.ok());
  EXPECT_TRUE(responses[2].status.ok());
  EXPECT_FALSE(responses[3].status.ok());
  const auto stats = server.Stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.backend, "cgnp");
}

TEST(QueryServerErrorTest, OversizedThreadCountRejectedBeforeSpawning) {
  // Create validates num_threads before building the pool, so these
  // requests start no threads at all.
  for (const char* backend : {"kcore", "cgnp"}) {
    for (const int threads : {1 << 20, serve::kMaxServeThreads + 1}) {
      serve::ServeOptions opt;
      opt.backend = backend;
      opt.num_threads = threads;
      const auto server = QueryServer::Create(nullptr, opt);
      ASSERT_FALSE(server.ok()) << backend << " threads=" << threads;
      EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(QueryServerErrorTest, ClassicalBackendErrorsOnBadQuery) {
  Graph g = PlantedGraph();
  serve::ServeOptions opt;
  opt.backend = "kcore";
  auto server = QueryServer::Create(nullptr, opt);
  ASSERT_TRUE(server.ok()) << server.status();
  SearchRequest req;
  req.graph = &g;
  req.query = -1;
  const SearchResponse resp = (*server)->Serve(req);
  ASSERT_FALSE(resp.status.ok());
  EXPECT_EQ(resp.status.code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace cgnp
