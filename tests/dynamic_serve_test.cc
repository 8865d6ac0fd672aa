#include "serve/dynamic_server.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.h"
#include "core/context_cache.h"
#include "cs/kcore_community.h"
#include "data/synthetic.h"
#include "graph/algorithms.h"
#include "gtest/gtest.h"

namespace cgnp {
namespace {

using serve::DynamicGraphServer;
using serve::SearchRequest;
using serve::SearchResponse;

// --- ContextCache scoped invalidation (pure cache-level) --------------------

TEST(ScopedInvalidation, RetainsDisjointEvictsDirtyAndUnknown) {
  ContextCache cache(8);
  // Three entries on graph 1 at version 0: coverage {0..9}, {100..109},
  // and one with unrecorded coverage; plus a bystander on graph 2.
  cache.Put({1, 10, 0}, Tensor::Full({2}, 1.0f), {0, 1, 2, 9});
  cache.Put({1, 20, 0}, Tensor::Full({2}, 2.0f), {100, 105, 109});
  cache.Put({1, 30, 0}, Tensor::Full({2}, 3.0f));  // unknown coverage
  cache.Put({2, 40, 0}, Tensor::Full({2}, 4.0f), {0, 1});

  const auto result = cache.ScopedInvalidate(/*graph_id=*/1,
                                             /*new_version=*/5,
                                             /*dirty=*/{1, 50});
  EXPECT_EQ(result.retained, 1);  // the {100..109} entry
  EXPECT_EQ(result.evicted, 2);   // dirty overlap + unknown coverage
  EXPECT_EQ(cache.invalidations(), 2u);

  Tensor out;
  // Survivor re-keyed: hit at the new version, miss at the old one.
  EXPECT_TRUE(cache.Get({1, 20, 5}, &out));
  EXPECT_EQ(out.At(0), 2.0f);
  EXPECT_FALSE(cache.Get({1, 20, 0}, &out));
  // Dirty and unknown-coverage entries are gone at every version.
  EXPECT_FALSE(cache.Get({1, 10, 5}, &out));
  EXPECT_FALSE(cache.Get({1, 30, 5}, &out));
  // Other graphs are untouched.
  EXPECT_TRUE(cache.Get({2, 40, 0}, &out));
}

TEST(ScopedInvalidation, VersionIsPartOfTheKey) {
  ContextCache cache(8);
  cache.Put({1, 10, 0}, Tensor::Full({2}, 1.0f), {3});
  Tensor out;
  // Same graph and fingerprint at another version: distinct entry.
  EXPECT_FALSE(cache.Get({1, 10, 7}, &out));
  EXPECT_TRUE(cache.Get({1, 10, 0}, &out));
}

TEST(ScopedInvalidation, FresherDuplicateWinsOverRekeyedSurvivor) {
  ContextCache cache(8);
  cache.Put({1, 10, 0}, Tensor::Full({2}, 1.0f), {3});
  // The same task already re-encoded at the new version.
  cache.Put({1, 10, 5}, Tensor::Full({2}, 9.0f), {3});
  const auto result = cache.ScopedInvalidate(1, 5, /*dirty=*/{99});
  EXPECT_EQ(result.retained, 0);
  EXPECT_EQ(result.evicted, 1);  // the stale duplicate, not the fresh one
  Tensor out;
  ASSERT_TRUE(cache.Get({1, 10, 5}, &out));
  EXPECT_EQ(out.At(0), 9.0f);
}

// --- DynamicGraphServer with the learned backend ----------------------------

// Disjoint union of two planted graphs: nodes [0, 150) form island A and
// [150, 300) island B, with no edge between them. A BFS task sampled on
// one island provably never touches the other, so the scoped-invalidation
// retention argument is exact rather than probabilistic -- while each
// island still holds two communities internally, keeping task sampling
// (which needs in-subgraph negatives) feasible for Fit.
Graph TwoIslandGraph(uint64_t seed = 3) {
  Rng rng(seed);
  SyntheticConfig cfg;
  cfg.num_nodes = 150;
  cfg.num_communities = 2;
  cfg.intra_degree = 10;
  cfg.inter_degree = 1.5;
  cfg.attribute_dim = 16;
  cfg.attrs_per_node = 3;
  cfg.attrs_per_community_pool = 5;
  cfg.attr_affinity = 0.9;
  const Graph a = GenerateSyntheticGraph(cfg, &rng);
  const Graph b = GenerateSyntheticGraph(cfg, &rng);
  GraphBuilder builder(a.num_nodes() + b.num_nodes());
  std::vector<std::vector<int32_t>> attrs;
  std::vector<int64_t> comm;
  for (const Graph* g : {&a, &b}) {
    const NodeId node_off = (g == &a) ? 0 : a.num_nodes();
    const int64_t comm_off = (g == &a) ? 0 : cfg.num_communities;
    for (NodeId u = 0; u < g->num_nodes(); ++u) {
      for (const NodeId v : g->Neighbors(u)) {
        if (u < v) builder.AddEdge(u + node_off, v + node_off);
      }
      const auto& au = g->Attributes(u);
      attrs.emplace_back(au.begin(), au.end());
      comm.push_back(g->CommunityOf(u) + comm_off);
    }
  }
  builder.SetAttributes(std::move(attrs));
  builder.SetCommunities(std::move(comm));
  return builder.Build();
}

CommunitySearchEngine TrainedEngine(const Graph& g) {
  CommunitySearchEngine::Options opt;
  opt.model.encoder = GnnKind::kGcn;
  opt.model.hidden_dim = 16;
  opt.model.num_layers = 2;
  opt.model.epochs = 4;
  opt.model.lr = 5e-3f;
  opt.tasks.subgraph_size = 60;
  opt.tasks.shots = 2;
  opt.tasks.query_set_size = 6;
  opt.num_train_tasks = 6;
  CommunitySearchEngine engine(opt);
  CGNP_CHECK(engine.Fit(g).ok());
  return engine;
}

TEST(DynamicGraphServer, ScopedInvalidationKeepsUntouchedRegionsServing) {
  const auto base = std::make_shared<const Graph>(TwoIslandGraph());
  const CommunitySearchEngine engine = TrainedEngine(*base);

  DynamicGraphServer::Options opt;
  opt.serve.num_threads = 2;
  opt.serve.cache_capacity = 64;
  opt.graph_id = 42;
  opt.compact_every = 0;  // manual compaction only
  auto server_or = DynamicGraphServer::Create(&engine, base, opt);
  ASSERT_TRUE(server_or.ok()) << server_or.status();
  DynamicGraphServer& server = **server_or;

  // Queries on island A (node ids below the midpoint) and one on island B.
  const NodeId midpoint = base->num_nodes() / 2;
  std::vector<NodeId> island0, island1;
  for (NodeId v = 0; v < base->num_nodes(); ++v) {
    (v < midpoint ? island0 : island1).push_back(v);
  }
  ASSERT_GE(island0.size(), 4u);
  ASSERT_GE(island1.size(), 2u);
  const std::vector<NodeId> queries0 = {island0[0], island0[1], island0[2],
                                        island0[3]};
  const NodeId query1 = island1[0];

  const auto serve_query = [&server](NodeId q) {
    SearchRequest req;
    req.query = q;
    return server.Serve(req);
  };

  // Populate the cache: 4 contexts from island 0, one from island 1.
  std::vector<SearchResponse> first;
  for (const NodeId q : queries0) first.push_back(serve_query(q));
  const SearchResponse first1 = serve_query(query1);
  for (const auto& r : first) ASSERT_TRUE(r.status.ok()) << r.status;
  ASSERT_TRUE(first1.status.ok()) << first1.status;
  EXPECT_FALSE(first.front().cache_hit);

  // Re-serving now hits (same version, same fingerprint).
  EXPECT_TRUE(serve_query(queries0[0]).cache_hit);

  // One localized update on island 1: a fresh edge incident to query1.
  NodeId other = -1;
  for (const NodeId cand : island1) {
    if (cand != query1 && !base->HasEdge(query1, cand)) {
      other = cand;
      break;
    }
  }
  ASSERT_NE(other, -1);
  ASSERT_TRUE(server.InsertEdge(query1, other).ok());
  EXPECT_EQ(server.dynamic_stats().delta_depth, 1);

  // Before compaction, snapshot serving is stale but still hits at the
  // old version (bounded staleness, not a flush).
  EXPECT_TRUE(serve_query(queries0[1]).cache_hit);

  const ContextCache::InvalidationResult inv = server.Compact();
  // Island-0 entries survive (their task subgraphs cannot touch island
  // 1); the island-1 entry dies. The ISSUE acceptance bar: >= 50%
  // retention under a localized update, against 0% for a full flush.
  EXPECT_GE(inv.retained, 4);
  EXPECT_GE(inv.evicted, 1);
  const double retention =
      static_cast<double>(inv.retained) /
      static_cast<double>(inv.retained + inv.evicted);
  EXPECT_GE(retention, 0.5);

  // Survivors serve the new version from the cache, bit-identically.
  for (size_t i = 0; i < queries0.size(); ++i) {
    const SearchResponse again = serve_query(queries0[i]);
    ASSERT_TRUE(again.status.ok()) << again.status;
    EXPECT_TRUE(again.cache_hit) << "survivor should hit at new version";
    EXPECT_EQ(again.members, first[i].members);
    EXPECT_EQ(again.probs, first[i].probs);
  }
  // The dirty-region query re-encodes at the new version.
  const SearchResponse again1 = serve_query(query1);
  ASSERT_TRUE(again1.status.ok()) << again1.status;
  EXPECT_FALSE(again1.cache_hit);

  // Counters surfaced through both stats paths.
  const auto sstats = server.server_stats();
  EXPECT_EQ(sstats.updates, 1u);
  EXPECT_EQ(sstats.cache_retained, static_cast<uint64_t>(inv.retained));
  EXPECT_EQ(sstats.cache_invalidated, static_cast<uint64_t>(inv.evicted));
  const bench::Json json = ServerStatsToJson(sstats);
  EXPECT_NE(json.Find("updates"), nullptr);
  EXPECT_NE(json.Find("cache_retained"), nullptr);
  EXPECT_EQ(json.GetNumber("updates", -1.0), 1.0);
  const auto dstats = server.dynamic_stats();
  EXPECT_EQ(dstats.compactions, 1u);
  EXPECT_EQ(dstats.delta_depth, 0);
  EXPECT_EQ(dstats.snapshot_version, dstats.version);
}

TEST(DynamicGraphServer, AutoCompactionBoundsStaleness) {
  const auto base = std::make_shared<const Graph>(TwoIslandGraph(9));
  DynamicGraphServer::Options opt;
  opt.serve.backend = "kcore";
  opt.serve.num_threads = 1;
  opt.compact_every = 4;
  auto server_or = DynamicGraphServer::Create(nullptr, base, opt);
  ASSERT_TRUE(server_or.ok()) << server_or.status();
  DynamicGraphServer& server = **server_or;

  int applied = 0;
  Rng rng(17);
  const int64_t n = base->num_nodes();
  while (applied < 11) {
    const NodeId u = rng.NextInt(n);
    const NodeId v = rng.NextInt(n);
    if (u == v || base->HasEdge(u, v)) continue;
    if (server.InsertEdge(u, v).ok() &&
        server.dynamic_stats().updates_applied >
            static_cast<uint64_t>(applied)) {
      ++applied;
    }
    EXPECT_LT(server.dynamic_stats().delta_depth, 4);
  }
  const auto stats = server.dynamic_stats();
  EXPECT_EQ(stats.updates_applied, 11u);
  EXPECT_GE(stats.compactions, 2u);
  // Rejected edits are counted, not fatal.
  EXPECT_FALSE(server.DeleteEdge(0, 0).ok());
  EXPECT_EQ(server.dynamic_stats().updates_rejected, 1u);
}

TEST(DynamicGraphServer, IncrementalBackendServesFreshWithoutCompaction) {
  const auto base = std::make_shared<const Graph>(TwoIslandGraph(5));
  DynamicGraphServer::Options opt;
  opt.serve.backend = "kcore_inc";
  opt.serve.num_threads = 1;
  opt.compact_every = 0;
  auto server_or = DynamicGraphServer::Create(nullptr, base, opt);
  ASSERT_TRUE(server_or.ok()) << server_or.status();
  DynamicGraphServer& server = **server_or;

  // Mutate without compacting; the incremental backend must answer at the
  // freshest version while the serving snapshot stays stale.
  Rng rng(23);
  const int64_t n = base->num_nodes();
  for (int i = 0; i < 25; ++i) {
    const NodeId u = rng.NextInt(n);
    const NodeId v = rng.NextInt(n);
    if (u == v) continue;
    (void)server.InsertEdge(u, v);
  }
  ASSERT_GT(server.dynamic_stats().delta_depth, 0);

  // Reference answers come from the shared index itself (validated
  // node-for-node against batch recomputation in incremental_cs_test).
  const std::shared_ptr<DynamicCommunityIndex>& index = server.index();
  for (const NodeId q : {NodeId{0}, NodeId{7}, NodeId{n - 1}}) {
    SearchRequest req;
    req.query = q;
    const SearchResponse resp = server.Serve(req);
    ASSERT_TRUE(resp.status.ok()) << resp.status;
    const auto expect = index->KCoreCommunity(q);
    ASSERT_TRUE(expect.ok());
    EXPECT_EQ(resp.members, *expect) << "query " << q;
    EXPECT_EQ(resp.backend, "kcore_inc");
  }
}

// TSan target: interleaved update / query / compaction traffic from many
// threads. Correctness of answers is covered elsewhere; here every
// response must be well-formed and the process race-free.
TEST(DynamicGraphServer, ConcurrentUpdatesAndQueries) {
  const auto base = std::make_shared<const Graph>(TwoIslandGraph(11));
  DynamicGraphServer::Options opt;
  opt.serve.backend = "ktruss_inc";
  opt.serve.num_threads = 2;
  opt.compact_every = 16;
  auto server_or = DynamicGraphServer::Create(nullptr, base, opt);
  ASSERT_TRUE(server_or.ok()) << server_or.status();
  DynamicGraphServer& server = **server_or;

  const int64_t n = base->num_nodes();
  std::atomic<int> bad_responses{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&server, n, t] {
      Rng rng(100 + t);
      for (int i = 0; i < 120; ++i) {
        const NodeId u = rng.NextInt(n);
        const NodeId v = rng.NextInt(n);
        if (u == v) continue;
        if (rng.Bernoulli(0.6)) {
          (void)server.InsertEdge(u, v);
        } else {
          (void)server.DeleteEdge(u, v);
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&server, &bad_responses, n, t] {
      Rng rng(200 + t);
      for (int i = 0; i < 120; ++i) {
        SearchRequest req;
        req.query = rng.NextInt(n);
        const SearchResponse resp = server.Serve(req);
        if (!resp.status.ok()) bad_responses.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&server] {
    for (int i = 0; i < 10; ++i) (void)server.Compact();
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad_responses.load(), 0);
  const auto stats = server.dynamic_stats();
  EXPECT_GT(stats.updates_applied, 0u);
  EXPECT_EQ(server.server_stats().requests, 240u);
}

}  // namespace
}  // namespace cgnp
