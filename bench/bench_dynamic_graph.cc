// Dynamic-graph benchmark: what the delta overlay + incremental indices +
// scoped invalidation buy over the static-world alternatives.
//
// Four cases, all deterministic (single serving thread, fixed seeds):
//   scoped_invalidation  Populate the context cache across four disconnected
//                        islands, apply edits localized to island 0, compact.
//                        cache_retained_rate is the fraction of contexts that
//                        survive (re-keyed to the new version) -- the ISSUE
//                        acceptance bar is >= 0.5 under localized updates.
//   full_flush           The same workload with the pre-scoped behaviour
//                        (every node dirty): rate pinned at 0. The gap
//                        between the two rows IS the feature.
//   update_latency       Delta-depth sweep: total time to repair k-core +
//                        k-truss incrementally across D edits vs one
//                        from-scratch rebuild at the final state.
//   interleaved_serve    Mixed update/query stream against the "kcore_inc"
//                        backend (fresh answers, no compaction on the path).
//
// Output: human-readable table + canonical BENCH_dynamic_graph.json
// (src/bench/report.h); tools/run_bench_tier.sh records the baseline.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "cs/dynamic.h"
#include "data/synthetic.h"
#include "serve/dynamic_server.h"

namespace {

using namespace cgnp;
using namespace cgnp::bench;
using serve::DynamicGraphServer;
using serve::SearchRequest;

// Disjoint union of `islands` planted graphs: island i spans node ids
// [i*island_nodes, (i+1)*island_nodes). No edge crosses islands, so a BFS
// task sampled on one island can never cover another -- which makes the
// scoped-invalidation retention numbers exact, not probabilistic.
Graph IslandGraph(int islands, int64_t island_nodes, uint64_t seed) {
  Rng rng(seed);
  SyntheticConfig cfg;
  cfg.num_nodes = island_nodes;
  cfg.num_communities = 2;
  cfg.intra_degree = 10;
  cfg.inter_degree = 1.5;
  cfg.attribute_dim = 16;
  cfg.attrs_per_node = 3;
  cfg.attrs_per_community_pool = 5;
  cfg.attr_affinity = 0.9;
  GraphBuilder builder(islands * island_nodes);
  std::vector<std::vector<int32_t>> attrs;
  std::vector<int64_t> comm;
  for (int i = 0; i < islands; ++i) {
    const Graph g = GenerateSyntheticGraph(cfg, &rng);
    const NodeId off = i * island_nodes;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (const NodeId v : g.Neighbors(u)) {
        if (u < v) builder.AddEdge(u + off, v + off);
      }
      const auto& au = g.Attributes(u);
      attrs.emplace_back(au.begin(), au.end());
      comm.push_back(g.CommunityOf(u) + i * cfg.num_communities);
    }
  }
  builder.SetAttributes(std::move(attrs));
  builder.SetCommunities(std::move(comm));
  return builder.Build();
}

// Deterministic stream of insertable edits confined to [lo, hi).
std::vector<GraphEdit> LocalEdits(const Graph& g, NodeId lo, NodeId hi,
                                  int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<GraphEdit> edits;
  while (static_cast<int>(edits.size()) < count) {
    const NodeId u = lo + rng.NextInt(hi - lo);
    const NodeId v = lo + rng.NextInt(hi - lo);
    if (u == v || g.HasEdge(u, v)) continue;
    bool dup = false;
    for (const auto& e : edits) {
      if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) dup = true;
    }
    if (!dup) edits.push_back(GraphEdit{/*insert=*/true, u, v});
  }
  return edits;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opt = ParseOptions(argc, argv, "dynamic_graph");

  const int kIslands = 4;
  const int64_t kIslandNodes = opt.paper_scale ? 400 : 150;
  const auto base = std::make_shared<const Graph>(
      IslandGraph(kIslands, kIslandNodes, opt.seed));

  CommunitySearchEngine::Options eopt;
  eopt.model = opt.cgnp;
  eopt.model.hidden_dim = 16;
  eopt.model.epochs = opt.paper_scale ? opt.cgnp.epochs : 4;
  eopt.tasks = opt.task;
  eopt.tasks.subgraph_size = 60;
  eopt.num_train_tasks = opt.paper_scale ? opt.train_tasks : 6;
  eopt.seed = opt.seed;
  CommunitySearchEngine engine(eopt);
  if (const Status s = engine.Fit(*base); !s.ok()) {
    std::fprintf(stderr, "engine fit failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // --- scoped_invalidation vs full_flush ------------------------------------
  // Identical serve + edit workloads; the only difference is the dirty set
  // handed to the cache (the true local one vs "everything").
  const int kQueriesPerIsland = 8;
  const int kLocalEdits = 8;
  std::printf("%-20s %10s %10s %14s\n", "case", "retained", "evicted",
              "retained_rate");
  for (const bool scoped : {true, false}) {
    DynamicGraphServer::Options dopt;
    dopt.serve.num_threads = 1;
    dopt.serve.cache_capacity = 256;
    dopt.graph_id = 7;
    dopt.compact_every = 0;
    auto server = DynamicGraphServer::Create(&engine, base, dopt).value();
    for (int i = 0; i < kIslands; ++i) {
      for (int q = 0; q < kQueriesPerIsland; ++q) {
        SearchRequest req;
        req.query = i * kIslandNodes + q * 17 % kIslandNodes;
        const auto resp = server->Serve(req);
        if (!resp.status.ok()) {
          std::fprintf(stderr, "serve failed: %s\n",
                       resp.status.ToString().c_str());
          return 1;
        }
      }
    }
    for (const GraphEdit& e :
         LocalEdits(*base, 0, kIslandNodes, kLocalEdits, opt.seed + 2)) {
      if (const Status s = server->ApplyUpdate(e); !s.ok()) {
        std::fprintf(stderr, "update failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    ContextCache::InvalidationResult inv;
    if (scoped) {
      inv = server->Compact();
    } else {
      // Pre-scoped behaviour: every node dirty, so nothing can be
      // re-keyed. Compact the index first so versions line up.
      std::vector<NodeId> all(base->num_nodes());
      for (NodeId v = 0; v < base->num_nodes(); ++v) all[v] = v;
      const uint64_t new_version = server->dynamic_stats().version;
      inv = server->server().NotifyGraphUpdate(dopt.graph_id, new_version,
                                               all);
    }
    const double rate =
        inv.retained + inv.evicted > 0
            ? static_cast<double>(inv.retained) /
                  static_cast<double>(inv.retained + inv.evicted)
            : 0.0;
    std::printf("%-20s %10lld %10lld %14.3f\n",
                scoped ? "scoped_invalidation" : "full_flush",
                static_cast<long long>(inv.retained),
                static_cast<long long>(inv.evicted), rate);
    BenchRow row;
    row.case_name = scoped ? "scoped_invalidation" : "full_flush";
    row.dataset = "islands";
    row.backend = "cgnp";
    row.threads = 1;
    row.scale = opt.scale_name();
    row.AddMetric("retained", static_cast<double>(inv.retained));
    row.AddMetric("evicted", static_cast<double>(inv.evicted));
    row.AddMetric("cache_retained_rate", rate);
    opt.reporter->Add(std::move(row));
  }

  // --- update_latency: incremental repair vs from-scratch rebuild -----------
  std::printf("\n%-8s %14s %14s %12s\n", "depth", "incremental_ms",
              "rebuild_ms", "speedup");
  for (const int depth : {1, 16, 64}) {
    auto index = DynamicCommunityIndex::Create(base).value();
    const auto edits =
        LocalEdits(*base, 0, base->num_nodes(), depth, opt.seed + 3);
    const double inc_ms = TimeMs([&] {
      for (const GraphEdit& e : edits) (void)index->Apply(e);
    });
    // The eager alternative rebuilds both indices from scratch at the
    // final state -- what a static system pays PER BATCH to stay fresh.
    const auto snapshot = index->Compact();
    double rebuild_ms = 0;
    rebuild_ms = TimeMs([&] {
      auto rebuilt = DynamicCommunityIndex::Create(snapshot);
      if (!rebuilt.ok()) std::fprintf(stderr, "rebuild failed\n");
    });
    const double per_edit = inc_ms / depth;
    std::printf("%-8d %14.3f %14.3f %12.2f\n", depth, inc_ms, rebuild_ms,
                per_edit > 0 ? rebuild_ms / per_edit : 0.0);
    BenchRow row;
    row.case_name = "update_latency_d" + std::to_string(depth);
    row.dataset = "islands";
    row.backend = "incremental";
    row.threads = 1;
    row.scale = opt.scale_name();
    row.AddMetric("incremental_ms", inc_ms);
    row.AddMetric("per_edit_ms", per_edit);
    row.AddMetric("rebuild_ms", rebuild_ms);
    row.AddMetric("applied", static_cast<double>(depth));
    opt.reporter->Add(std::move(row));
  }

  // --- interleaved_serve: mixed update/query stream, fresh answers ----------
  {
    DynamicGraphServer::Options dopt;
    dopt.serve.backend = "kcore_inc";
    dopt.serve.num_threads = 1;
    dopt.compact_every = 32;
    auto server = DynamicGraphServer::Create(nullptr, base, dopt).value();
    Rng rng(opt.seed + 4);
    const int kOps = opt.paper_scale ? 2000 : 400;
    int updates = 0, queries = 0, errors = 0;
    const double total_ms = TimeMs([&] {
      for (int i = 0; i < kOps; ++i) {
        if (rng.Bernoulli(0.2)) {
          const NodeId u = rng.NextInt(base->num_nodes());
          const NodeId v = rng.NextInt(base->num_nodes());
          if (u != v) {
            (void)server->InsertEdge(u, v);
            ++updates;
          }
        } else {
          SearchRequest req;
          req.query = rng.NextInt(base->num_nodes());
          if (!server->Serve(req).status.ok()) ++errors;
          ++queries;
        }
      }
    });
    const auto dstats = server->dynamic_stats();
    const double qps = total_ms > 0 ? queries / (total_ms / 1000.0) : 0.0;
    std::printf(
        "\ninterleaved: %d queries, %d updates (%llu applied, %llu "
        "compactions) in %.1f ms -- %.0f qps, %d errors\n",
        queries, updates, static_cast<unsigned long long>(
                              dstats.updates_applied),
        static_cast<unsigned long long>(dstats.compactions), total_ms, qps,
        errors);
    BenchRow row;
    row.case_name = "interleaved_serve";
    row.dataset = "islands";
    row.backend = "kcore_inc";
    row.threads = 1;
    row.scale = opt.scale_name();
    row.AddMetric("qps", qps);
    row.AddMetric("total_ms", total_ms);
    row.AddMetric("queries", static_cast<double>(queries));
    row.AddMetric("errors", static_cast<double>(errors));
    row.AddMetric("compactions", static_cast<double>(dstats.compactions));
    opt.reporter->Add(std::move(row));
  }

  return FinishReport(opt);
}
