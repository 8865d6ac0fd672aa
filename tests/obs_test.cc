// Tests for the observability layer (src/obs/) and its wiring through the
// serving stack: metric exactness under concurrency, trace-span trees,
// structured log lines, exporter round-trips, and the acceptance criteria
// from the serving integration (stage coverage, honest cache accounting,
// running min/max).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/query_server.h"

namespace cgnp {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::StageTiming;
using obs::TraceCollector;
using serve::QueryServer;
using serve::SearchRequest;
using serve::SearchResponse;
using serve::ServeOptions;
using serve::ServerStats;

// --- metrics ---------------------------------------------------------------

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
#if CGNP_OBS_ENABLED
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
#else
  EXPECT_EQ(c.Value(), 0u);  // record path compiled out
#endif
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(3.5);
  g.Add(1.5);
#if CGNP_OBS_ENABLED
  EXPECT_DOUBLE_EQ(g.Value(), 5.0);
#endif
  g.Reset();
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
}

#if CGNP_OBS_ENABLED
TEST(HistogramTest, CountsSumAndQuantiles) {
  Histogram h({1.0, 10.0, 100.0});
  for (int i = 0; i < 100; ++i) h.Record(0.5);   // first bucket
  for (int i = 0; i < 100; ++i) h.Record(5.0);   // second bucket
  const auto snap = h.Snapshot();
  EXPECT_EQ(snap.count, 200u);
  EXPECT_DOUBLE_EQ(snap.sum, 100 * 0.5 + 100 * 5.0);
  ASSERT_EQ(snap.bucket_counts.size(), 4u);
  EXPECT_EQ(snap.bucket_counts[0], 100u);
  EXPECT_EQ(snap.bucket_counts[1], 100u);
  EXPECT_EQ(snap.bucket_counts[3], 0u);  // overflow empty
  // p25 lands in [0,1], p75 in (1,10]; interpolation keeps them inside.
  EXPECT_LE(snap.ApproxQuantile(0.25), 1.0);
  EXPECT_GT(snap.ApproxQuantile(0.75), 1.0);
  EXPECT_LE(snap.ApproxQuantile(0.75), 10.0);
}

#endif  // CGNP_OBS_ENABLED

// RecordAlways ignores the kill switch and the compile-out, so the bucket
// layout tests run in every build.
TEST(HistogramTest, OverflowBucketCatchesLargeValues) {
  Histogram h;
  h.RecordAlways(1e9);
  h.RecordAlways(std::numeric_limits<double>::infinity());
  h.RecordAlways(std::nan(""));  // compares false with every bound
  const auto snap = h.Snapshot();
  EXPECT_EQ(snap.bucket_counts.back(), 3u);
  EXPECT_EQ(snap.count, 3u);
}

TEST(HistogramTest, ValueOnABoundLandsInThatBoundsBucket) {
  Histogram h;  // default layout
  const std::vector<double>& bounds = h.bounds();
  for (double b : bounds) h.RecordAlways(b);
  h.RecordAlways(std::nextafter(bounds[0], 1.0));  // just above: bucket 1
  const auto snap = h.Snapshot();
  ASSERT_EQ(snap.bucket_counts.size(), bounds.size() + 1);
  EXPECT_EQ(snap.bucket_counts[0], 1u);
  EXPECT_EQ(snap.bucket_counts[1], 2u);
  for (size_t i = 2; i < bounds.size(); ++i) {
    EXPECT_EQ(snap.bucket_counts[i], 1u) << "bound " << bounds[i];
  }
  EXPECT_EQ(snap.bucket_counts.back(), 0u);
}

TEST(HistogramTest, DefaultLayoutIsFineGrainedAndAscending) {
  const std::vector<double>& bounds = obs::DefaultLatencyBucketsMs();
  ASSERT_EQ(bounds.size(), 193u);
  EXPECT_DOUBLE_EQ(bounds.front(), 0.001);              // 1 us
  EXPECT_DOUBLE_EQ(bounds.back(), 0.001 * (1 << 24));  // 16.8 s
  const double max_ratio = std::exp2(1.0 / 8.0) * (1 + 1e-12);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
    EXPECT_LE(bounds[i] / bounds[i - 1], max_ratio) << "bound " << i;
  }
}

#if CGNP_OBS_ENABLED
TEST(MetricsRegistryTest, SameNameAndLabelsReturnSameObject) {
  MetricsRegistry reg;
  Counter& a = reg.GetCounter("cgnp_test_total", {{"k", "v"}});
  Counter& b = reg.GetCounter("cgnp_test_total", {{"k", "v"}});
  Counter& c = reg.GetCounter("cgnp_test_total", {{"k", "w"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.Increment(3);
  const auto snapshot = reg.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  // Sorted by (name, labels): {k=v} before {k=w}.
  EXPECT_EQ(snapshot[0].labels[0].second, "v");
  EXPECT_DOUBLE_EQ(snapshot[0].value, 3.0);
  reg.ResetAll();
  EXPECT_EQ(a.Value(), 0u);
}

TEST(MetricsRegistryTest, RuntimeKillSwitchStopsRecording) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("cgnp_kill_total");
  c.Increment();
  obs::SetEnabled(false);
  c.Increment();
  obs::SetEnabled(true);
  EXPECT_EQ(c.Value(), 1u);
}

// --- trace spans -----------------------------------------------------------

TEST(TraceTest, SpanTreeHasPreOrderDepths) {
  TraceCollector collector;
  {
    CGNP_TRACE_SPAN("outer");
    { CGNP_TRACE_SPAN("inner_a"); }
    { CGNP_TRACE_SPAN("inner_b"); }
  }
  const std::vector<StageTiming> nodes = collector.Take();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0].name, "outer");
  EXPECT_EQ(nodes[0].depth, 0);
  EXPECT_EQ(nodes[1].name, "inner_a");
  EXPECT_EQ(nodes[1].depth, 1);
  EXPECT_EQ(nodes[2].name, "inner_b");
  EXPECT_EQ(nodes[2].depth, 1);
  // Parent elapsed covers the children.
  EXPECT_GE(nodes[0].ms, nodes[1].ms);
  EXPECT_GE(nodes[0].ms, nodes[2].ms);
}

TEST(TraceTest, NoCollectorMeansNoRecording) {
  EXPECT_FALSE(TraceCollector::Active());
  { CGNP_TRACE_SPAN("orphan"); }  // must not crash or leak
  TraceCollector collector;
  EXPECT_TRUE(TraceCollector::Active());
  EXPECT_TRUE(collector.Take().empty());
}

TEST(TraceTest, CollectorsNestInnermostCaptures) {
  TraceCollector outer;
  {
    TraceCollector inner;
    { CGNP_TRACE_SPAN("stage"); }
    EXPECT_EQ(inner.Take().size(), 1u);
  }
  EXPECT_TRUE(outer.Take().empty());
  EXPECT_TRUE(TraceCollector::Active());  // outer is restored, still installed
}

// --- structured logging ----------------------------------------------------

TEST(LogTest, EmitsOneJsonLineWithOrderedFields) {
  std::vector<std::string> lines;
  obs::SetLogSink([&lines](const std::string& line) {
    lines.push_back(line);
  });
  CGNP_LOG(kInfo, "unit_test_event")
      .Str("k", "v\"quoted\"")
      .Num("n", 2.5)
      .Bool("b", true);
  obs::SetLogSink(nullptr);
  ASSERT_EQ(lines.size(), 1u);
  const auto doc = bench::Json::Parse(lines[0]);
  ASSERT_TRUE(doc.ok()) << lines[0];
  EXPECT_EQ(doc.value().GetString("level", ""), "info");
  EXPECT_EQ(doc.value().GetString("event", ""), "unit_test_event");
  EXPECT_EQ(doc.value().GetString("k", ""), "v\"quoted\"");
  EXPECT_DOUBLE_EQ(doc.value().GetNumber("n", 0), 2.5);
  EXPECT_GT(doc.value().GetNumber("ts_ms", 0), 0.0);
}

TEST(LogTest, MinLevelFiltersBelow) {
  std::vector<std::string> lines;
  obs::SetLogSink([&lines](const std::string& line) {
    lines.push_back(line);
  });
  obs::SetMinLogLevel(obs::LogLevel::kWarn);
  CGNP_LOG(kInfo, "dropped_event");
  CGNP_LOG(kError, "kept_event").Err(NotFoundError("nope"));
  obs::SetMinLogLevel(obs::LogLevel::kInfo);
  obs::SetLogSink(nullptr);
  ASSERT_EQ(lines.size(), 1u);
  const auto doc = bench::Json::Parse(lines[0]);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().GetString("event", ""), "kept_event");
  EXPECT_EQ(doc.value().GetString("status_code", ""), "NOT_FOUND");
  EXPECT_EQ(doc.value().GetString("status_message", ""), "nope");
}

TEST(LogTest, RateLimiterCapsBurst) {
  obs::RateLimiter limiter(/*per_second=*/1.0, /*burst=*/2.0);
  EXPECT_TRUE(limiter.Allow());
  EXPECT_TRUE(limiter.Allow());
  EXPECT_FALSE(limiter.Allow());  // bucket drained; refill is 1/s
  EXPECT_EQ(limiter.dropped(), 1u);
}

// --- exporters -------------------------------------------------------------

TEST(ExportTest, PrometheusTextRoundTripsThroughParser) {
  MetricsRegistry reg;
  reg.GetCounter("cgnp_rt_requests_total", {{"backend", "cgnp"}})
      .Increment(41);
  reg.GetGauge("cgnp_rt_depth").Set(3.0);
  Histogram& h = reg.GetHistogram("cgnp_rt_latency_ms",
                                  {{"backend", "with \"quotes\""}},
                                  {1.0, 10.0});
  h.Record(0.5);
  h.Record(20.0);
  const std::string text = obs::ToPrometheusText(reg.Snapshot());
  const auto parsed = obs::ParsePrometheusText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  double counter_value = -1, gauge_value = -1;
  double bucket_inf = -1, hist_count = -1, hist_sum = -1;
  for (const auto& series : parsed.value()) {
    if (series.series ==
        "cgnp_rt_requests_total{backend=\"cgnp\"}") {
      counter_value = series.value;
    } else if (series.series == "cgnp_rt_depth") {
      gauge_value = series.value;
    } else if (series.series ==
               "cgnp_rt_latency_ms_bucket{backend=\"with "
               "\\\"quotes\\\"\",le=\"+Inf\"}") {
      bucket_inf = series.value;
    } else if (series.series ==
               "cgnp_rt_latency_ms_count{backend=\"with "
               "\\\"quotes\\\"\"}") {
      hist_count = series.value;
    } else if (series.series ==
               "cgnp_rt_latency_ms_sum{backend=\"with "
               "\\\"quotes\\\"\"}") {
      hist_sum = series.value;
    }
  }
  EXPECT_DOUBLE_EQ(counter_value, 41.0);
  EXPECT_DOUBLE_EQ(gauge_value, 3.0);
  EXPECT_DOUBLE_EQ(bucket_inf, 2.0);  // cumulative +Inf == count
  EXPECT_DOUBLE_EQ(hist_count, 2.0);
  EXPECT_DOUBLE_EQ(hist_sum, 20.5);
  // Every family announces its type exactly once.
  EXPECT_NE(text.find("# TYPE cgnp_rt_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cgnp_rt_latency_ms histogram"),
            std::string::npos);
}

TEST(ExportTest, JsonSnapshotParsesWithBenchJson) {
  MetricsRegistry reg;
  reg.GetCounter("cgnp_js_total").Increment(7);
  reg.GetHistogram("cgnp_js_ms", {}, {1.0}).Record(0.25);
  const bench::Json doc = obs::MetricsToJson(reg.Snapshot());
  const auto reparsed = bench::Json::Parse(doc.Dump(/*indent=*/1));
  ASSERT_TRUE(reparsed.ok());
  const bench::Json* metrics = reparsed.value().Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->Items().size(), 2u);
  EXPECT_EQ(metrics->Items()[1].GetString("name", ""), "cgnp_js_total");
  EXPECT_DOUBLE_EQ(metrics->Items()[1].GetNumber("value", 0), 7.0);
  EXPECT_EQ(metrics->Items()[0].GetString("type", ""), "histogram");
}
#endif  // CGNP_OBS_ENABLED

// --- serving integration ---------------------------------------------------

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

#if CGNP_OBS_ENABLED
// Acceptance criterion: over a batch of cgnp requests, the depth-0 stage
// spans must explain >= 95% of the total request latency.
TEST(ServeObsTest, StageSpansCoverRequestLatency) {
  const Graph g = PlantedGraph();
  const CommunitySearchEngine engine = TrainedEngine(g);
  ServeOptions server_opt;
  server_opt.num_threads = 2;
  server_opt.cache_capacity = 64;
  auto server_or = QueryServer::Create(&engine, server_opt);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  QueryServer& server = **server_or;

  std::vector<SearchRequest> batch;
  for (int i = 0; i < 20; ++i) {
    SearchRequest req;
    req.graph = &g;
    req.graph_id = 1;
    req.query = (i * 29) % g.num_nodes();
    batch.push_back(req);
  }
  double total_latency = 0, total_staged = 0;
  for (const SearchResponse& resp : server.ServeBatch(batch)) {
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    ASSERT_FALSE(resp.stages.empty());
    total_latency += resp.latency_ms;
    for (const StageTiming& st : resp.stages) {
      if (st.depth == 0) total_staged += st.ms;
    }
    // The cgnp path always builds a task and decodes.
    std::set<std::string> names;
    for (const StageTiming& st : resp.stages) {
      if (st.depth == 0) names.insert(st.name);
    }
    EXPECT_TRUE(names.count("task_build"));
    EXPECT_TRUE(names.count("decode"));
  }
  ASSERT_GT(total_latency, 0.0);
  EXPECT_GE(total_staged / total_latency, 0.95)
      << "stages " << total_staged << " ms of " << total_latency << " ms";
}

TEST(ServeObsTest, CacheHitSkipsEncodeStage) {
  const Graph g = PlantedGraph();
  const CommunitySearchEngine engine = TrainedEngine(g);
  ServeOptions server_opt;
  server_opt.num_threads = 1;
  server_opt.cache_capacity = 16;
  auto server_or = QueryServer::Create(&engine, server_opt);
  ASSERT_TRUE(server_or.ok()) << server_or.status().ToString();
  QueryServer& server = **server_or;

  SearchRequest req;
  req.graph = &g;
  req.graph_id = 1;
  req.query = 3;

  // Depth-0 stages for what must run; any depth for what must not.
  const auto has_stage = [](const SearchResponse& resp, const char* name) {
    for (const StageTiming& st : resp.stages) {
      if (st.depth == 0 && st.name == name) return true;
    }
    return false;
  };
  const auto has_span = [](const SearchResponse& resp, const char* name) {
    for (const StageTiming& st : resp.stages) {
      if (st.name == name) return true;
    }
    return false;
  };

  const SearchResponse cold = server.Serve(req);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(cold.cache_eligible);
  EXPECT_TRUE(has_stage(cold, "cache_lookup"));
  EXPECT_TRUE(has_stage(cold, "encode"));

  const SearchResponse warm = server.Serve(req);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.cache_eligible);
  EXPECT_TRUE(has_stage(warm, "cache_lookup"));
  EXPECT_FALSE(has_span(warm, "encode"));  // Algorithm 2: context reused

  // The per-stage window stats see one encode over two requests.
  const ServerStats stats = server.Stats();
  bool found_encode = false;
  for (const auto& st : stats.stages) {
    if (st.stage == "encode") {
      found_encode = true;
      EXPECT_EQ(st.count, 1u);
    }
    if (st.stage == "decode") {
      EXPECT_EQ(st.count, 2u);
    }
  }
  EXPECT_TRUE(found_encode);
}

TEST(ServeObsTest, ClassicalBackendTracesSearchStage) {
  const Graph g = PlantedGraph();
  ServeOptions opt;
  opt.backend = "kcore";
  opt.num_threads = 1;
  auto server = QueryServer::Create(nullptr, opt);
  ASSERT_TRUE(server.ok());
  SearchRequest req;
  req.graph = &g;
  req.query = 1;
  const SearchResponse resp = server.value()->Serve(req);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_FALSE(resp.cache_eligible);
  ASSERT_EQ(resp.stages.size(), 1u);
  EXPECT_EQ(resp.stages[0].name, "search");
  EXPECT_EQ(resp.stages[0].depth, 0);
}
#endif  // CGNP_OBS_ENABLED

// Satellite: honest cache accounting. Classical backends contribute no
// cache-eligible requests, so the hit rate stays 0/0 -> 0 instead of
// counting every request as a "miss".
TEST(ServeObsTest, HitRateCountsOnlyEligibleRequests) {
  const Graph g = PlantedGraph();
  ServeOptions opt;
  opt.backend = "ktruss";
  opt.num_threads = 1;
  auto server = QueryServer::Create(nullptr, opt);
  ASSERT_TRUE(server.ok());
  SearchRequest req;
  req.graph = &g;
  req.query = 2;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.value()->Serve(req).status.ok());
  }
  const ServerStats stats = server.value()->Stats();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.cache_eligible, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);  // not 5: never consulted the cache
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate, 0.0);
}

// The reported min and max are exact running extremes over the window,
// and the clamped percentiles never exceed them.
TEST(ServeObsTest, MinMaxAreExactRunningExtremes) {
  const Graph g = PlantedGraph();
  ServeOptions opt;
  opt.backend = "kcore";
  opt.num_threads = 1;
  auto server = QueryServer::Create(nullptr, opt);
  ASSERT_TRUE(server.ok());

  SearchRequest req;
  req.graph = &g;
  req.query = 0;
  double true_min = 0, true_max = 0;
  for (int i = 0; i < 32; ++i) {
    const SearchResponse resp = server.value()->Serve(req);
    ASSERT_TRUE(resp.status.ok());
    if (i == 0) {
      true_min = true_max = resp.latency_ms;
    } else {
      true_min = std::min(true_min, resp.latency_ms);
      true_max = std::max(true_max, resp.latency_ms);
    }
  }
  const ServerStats stats = server.value()->Stats();
  EXPECT_EQ(stats.requests, 32u);
  EXPECT_DOUBLE_EQ(stats.min_ms, true_min);
  EXPECT_DOUBLE_EQ(stats.max_ms, true_max);
  EXPECT_GE(stats.max_ms, stats.p99_ms);
}

// The histogram-backed percentiles stay within the documented 9.1% of the
// exact order statistic of the same rank (ceil(q * n), the rank
// HistogramSnapshot::ApproxQuantile interpolates in).
TEST(ServeObsTest, PercentilesTrackExactOrderStatistics) {
  const Graph g = PlantedGraph();
  ServeOptions opt;
  opt.backend = "kcore";
  opt.num_threads = 1;
  auto server = QueryServer::Create(nullptr, opt);
  ASSERT_TRUE(server.ok());

  constexpr int kRequests = 500;
  std::vector<double> latencies;
  for (int i = 0; i < kRequests; ++i) {
    SearchRequest req;
    req.graph = &g;
    req.query = (i * 7) % g.num_nodes();
    const SearchResponse resp = server.value()->Serve(req);
    ASSERT_TRUE(resp.status.ok());
    latencies.push_back(resp.latency_ms);
  }
  std::sort(latencies.begin(), latencies.end());
  const ServerStats stats = server.value()->Stats();
  ASSERT_EQ(stats.requests, uint64_t{kRequests});
  const auto exact = [&](double q) {
    const auto rank = static_cast<size_t>(std::ceil(q * kRequests));
    return latencies[rank - 1];
  };
  for (const auto& [q, reported] : {std::pair{0.50, stats.p50_ms},
                                    std::pair{0.90, stats.p90_ms},
                                    std::pair{0.99, stats.p99_ms}}) {
    const double want = exact(q);
    EXPECT_LE(std::abs(reported - want), 0.091 * want)
        << "q=" << q << " reported " << reported << " exact " << want;
  }
}

TEST(ServeObsTest, ServerStatsToJsonRoundTrips) {
  ServerStats stats;
  stats.backend = "cgnp";
  stats.requests = 10;
  stats.cache_eligible = 10;
  stats.cache_hits = 4;
  stats.cache_misses = 6;
  stats.cache_hit_rate = 0.4;
  stats.min_ms = 0.5;
  stats.max_ms = 9.5;
  serve::StageStats st;
  st.stage = "decode";
  st.count = 10;
  st.p50_ms = 0.7;
  st.mean_ms = 0.8;
  st.total_ms = 8.0;
  stats.stages.push_back(st);
  const auto doc = bench::Json::Parse(
      serve::ServerStatsToJson(stats).Dump(/*indent=*/1));
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().GetString("backend", ""), "cgnp");
  EXPECT_DOUBLE_EQ(doc.value().GetNumber("cache_hit_rate", 0), 0.4);
  EXPECT_DOUBLE_EQ(doc.value().GetNumber("max_ms", 0), 9.5);
  const bench::Json* stages = doc.value().Find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->Items().size(), 1u);
  EXPECT_EQ(stages->Items()[0].GetString("stage", ""), "decode");
}

// Satellite: N threads hammering one server -- counter sums must be
// exact, percentiles monotone, and concurrent Stats()/ResetStats() calls
// must race cleanly (this test is in the TSan CI matrix).
TEST(ServeObsTest, ConcurrentServeKeepsExactCounters) {
  const Graph g = PlantedGraph();
  ServeOptions opt;
  opt.backend = "kcore";
  opt.num_threads = 4;
  auto server_or = QueryServer::Create(nullptr, opt);
  ASSERT_TRUE(server_or.ok());
  QueryServer& server = *server_or.value();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<bool> stop_poller{false};
  // A poller reading Stats() while requests are in flight: results must
  // always be internally consistent (never tearing).
  std::thread poller([&] {
    while (!stop_poller.load()) {
      const ServerStats s = server.Stats();
      EXPECT_GE(s.requests, s.errors);
      EXPECT_LE(s.p50_ms, s.p99_ms + 1e-9);
      if (s.requests > 0) {
        EXPECT_GE(s.max_ms, s.min_ms);
      }
    }
  });
  std::vector<std::thread> clients;
  std::atomic<uint64_t> ok_count{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SearchRequest req;
        req.graph = &g;
        req.query = (t * kPerThread + i) % g.num_nodes();
        if (server.Serve(req).status.ok()) ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop_poller.store(true);
  poller.join();

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.requests, uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(stats.requests - stats.errors, ok_count.load());
  EXPECT_LE(stats.p50_ms, stats.p90_ms + 1e-9);
  EXPECT_LE(stats.p90_ms, stats.p99_ms + 1e-9);
  EXPECT_LE(stats.p99_ms, stats.max_ms + 1e-9);
  EXPECT_GE(stats.min_ms, 0.0);

  server.ResetStats();
  const ServerStats reset = server.Stats();
  EXPECT_EQ(reset.requests, 0u);
  EXPECT_EQ(reset.cache_evictions, 0u);
  EXPECT_DOUBLE_EQ(reset.max_ms, 0.0);
  EXPECT_TRUE(reset.stages.empty());
}

TEST(ThreadPoolObsTest, PendingDrainsToZero) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  // Spin until drained (bounded by the test timeout).
  while (done.load() < 16) std::this_thread::yield();
  while (pool.pending() != 0) std::this_thread::yield();
  EXPECT_EQ(pool.pending(), 0);
}

}  // namespace
}  // namespace cgnp
