#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"

namespace cgnp {
namespace {

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

CommunitySearchEngine::Options FastOptions() {
  CommunitySearchEngine::Options opt;
  opt.model.encoder = GnnKind::kGcn;
  opt.model.hidden_dim = 16;
  opt.model.num_layers = 2;
  opt.model.epochs = 8;
  opt.model.lr = 5e-3f;
  opt.tasks.subgraph_size = 80;
  opt.tasks.shots = 2;
  opt.tasks.query_set_size = 6;
  opt.num_train_tasks = 10;
  return opt;
}

TEST(Engine, FitThenSearchReturnsQuery) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  EXPECT_FALSE(engine.trained());
  ASSERT_TRUE(engine.Fit(g).ok());
  EXPECT_TRUE(engine.trained());
  const NodeId q = 17;
  const auto members = engine.Query(g, q).value().members;
  EXPECT_FALSE(members.empty());
  EXPECT_NE(std::find(members.begin(), members.end(), q), members.end());
}

TEST(Engine, SupportObservationsImproveSearch) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(g).ok());

  const NodeId q = 42;
  const int64_t community = g.CommunityOf(q);
  // Build a labelled support observation from the ground truth.
  QueryExample obs;
  obs.query = q;
  for (NodeId v = 0; v < g.num_nodes() && obs.pos.size() < 5; ++v) {
    if (v != q && g.CommunityOf(v) == community) obs.pos.push_back(v);
  }
  for (NodeId v = 0; v < g.num_nodes() && obs.neg.size() < 10; ++v) {
    if (g.CommunityOf(v) != community) obs.neg.push_back(v);
  }

  auto f1_of = [&](const std::vector<NodeId>& members) {
    int64_t tp = 0, fp = 0, fn = 0;
    std::vector<char> in_set(g.num_nodes(), 0);
    for (NodeId v : members) in_set[v] = 1;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == q) continue;
      const bool is_member = g.CommunityOf(v) == community;
      if (in_set[v] && is_member) ++tp;
      if (in_set[v] && !is_member) ++fp;
      if (!in_set[v] && is_member) ++fn;
    }
    const double p = tp + fp > 0 ? static_cast<double>(tp) /
                                       static_cast<double>(tp + fp)
                                 : 0;
    const double r = tp + fn > 0 ? static_cast<double>(tp) /
                                       static_cast<double>(tp + fn)
                                 : 0;
    return p + r > 0 ? 2 * p * r / (p + r) : 0.0;
  };

  const auto with_support = engine.Query(g, q, {obs}).value().members;
  EXPECT_GT(f1_of(with_support), 0.1) << "supported search should find most"
                                         " of the planted community";
}

TEST(Engine, ValidationEarlyStoppingPath) {
  Graph g = PlantedGraph(3);
  CommunitySearchEngine::Options opt = FastOptions();
  opt.num_valid_tasks = 4;
  opt.early_stop_patience = 3;
  CommunitySearchEngine engine(opt);
  ASSERT_TRUE(engine.Fit(g).ok());
  EXPECT_TRUE(engine.trained());
  const auto members = engine.Query(g, 11).value().members;
  EXPECT_FALSE(members.empty());
}

TEST(Engine, ValidatedFitRecordsTrainingMetrics) {
  // Fit reports per-epoch training progress whether or not validation-based
  // selection is on.
  auto& reg = obs::MetricsRegistry::Default();
  obs::Counter& epochs_total = reg.GetCounter("cgnp_fit_epochs_total");
  obs::Gauge& mean_loss = reg.GetGauge("cgnp_fit_mean_loss");
  const uint64_t epochs_before = epochs_total.Value();
  mean_loss.Set(-1.0);  // a mean BCE loss is never negative
  const CommunitySearchEngine::Options opt = FastOptions();
  auto built = EngineBuilder()
                   .WithModel(opt.model)
                   .WithTasks(opt.tasks)
                   .WithTrainTasks(opt.num_train_tasks)
                   .WithValidation(4, /*early_stop_patience=*/3)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status();
  CommunitySearchEngine engine = std::move(built).value();
  ASSERT_TRUE(engine.Fit(PlantedGraph(3)).ok());
  EXPECT_GE(epochs_total.Value(), epochs_before + 1);
  EXPECT_GE(mean_loss.Value(), 0.0);
}

TEST(Engine, SearchOnUnseenGraphSameSchema) {
  // Meta-trained on one graph, queried on a freshly generated one with the
  // same attribute schema (the cross-graph transfer the paper tests).
  Graph train_g = PlantedGraph(1);
  Graph test_g = PlantedGraph(2);
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(train_g).ok());
  const auto members = engine.Query(test_g, 7).value().members;
  EXPECT_FALSE(members.empty());
}

// --- EngineBuilder ---------------------------------------------------------

TEST(EngineBuilderTest, BuildsValidatedEngineFluently) {
  const CommunitySearchEngine::Options opt = FastOptions();
  auto built = EngineBuilder()
                   .WithModel(opt.model)
                   .WithTasks(opt.tasks)
                   .WithTrainTasks(opt.num_train_tasks)
                   .WithSeed(123)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_FALSE(built->trained());
  EXPECT_EQ(built->options().seed, 123u);
  EXPECT_EQ(built->options().tasks.subgraph_size, opt.tasks.subgraph_size);

  // The built engine trains and answers like a directly constructed one.
  Graph g = PlantedGraph();
  CommunitySearchEngine engine = std::move(built).value();
  ASSERT_TRUE(engine.Fit(g).ok());
  EXPECT_FALSE(engine.Query(g, 5).value().members.empty());
}

TEST(EngineBuilderTest, RejectsInvalidConfigs) {
  CgnpConfig bad_model;
  bad_model.hidden_dim = 0;
  const auto no_hidden = EngineBuilder().WithModel(bad_model).Build();
  ASSERT_FALSE(no_hidden.ok());
  EXPECT_EQ(no_hidden.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(no_hidden.status().message().find("hidden_dim"),
            std::string::npos);

  TaskConfig bad_tasks;
  bad_tasks.subgraph_size = -5;
  const auto no_subgraph = EngineBuilder().WithTasks(bad_tasks).Build();
  ASSERT_FALSE(no_subgraph.ok());
  EXPECT_EQ(no_subgraph.status().code(), StatusCode::kInvalidArgument);

  const auto no_tasks = EngineBuilder().WithTrainTasks(0).Build();
  ASSERT_FALSE(no_tasks.ok());
  EXPECT_EQ(no_tasks.status().code(), StatusCode::kInvalidArgument);

  CgnpConfig nan_lr;
  nan_lr.lr = -1.0f;
  const auto bad_lr = EngineBuilder().WithModel(nan_lr).Build();
  ASSERT_FALSE(bad_lr.ok());
  EXPECT_EQ(bad_lr.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBuilderTest, CheckpointRoundTripThroughBuilder) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(g).ok());
  const std::string path =
      ::testing::TempDir() + "builder_engine.ckpt";
  ASSERT_TRUE(engine.SaveCheckpoint(path).ok());

  auto restored = EngineBuilder().FromCheckpoint(path).Build();
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(restored->trained());
  EXPECT_EQ(engine.Query(g, 17).value().members,
            restored->Query(g, 17).value().members);
  std::remove(path.c_str());

  // FromCheckpoint is exclusive with the config setters: the checkpoint
  // stores the full configuration.
  const auto mixed = EngineBuilder()
                         .WithSeed(1)
                         .FromCheckpoint(path)
                         .Build();
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.status().code(), StatusCode::kInvalidArgument);
}

// --- Error paths: bad public-API input returns Status, never aborts --------

TEST(EngineErrorTest, SearchBeforeFitIsFailedPrecondition) {
  Graph g = PlantedGraph();
  const CommunitySearchEngine engine(FastOptions());
  const auto result = engine.Query(g, 3);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineErrorTest, OutOfRangeQueryIdReturnsStatus) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(g).ok());

  for (const NodeId bad : {NodeId(-1), g.num_nodes(), NodeId(1 << 30)}) {
    const auto result = engine.Query(g, bad);
    ASSERT_FALSE(result.ok()) << "query " << bad << " was accepted";
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(EngineErrorTest, OutOfRangeSupportIdReturnsStatus) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(g).ok());

  QueryExample obs;
  obs.query = 3;
  obs.pos.push_back(g.num_nodes() + 7);  // malformed external request
  const auto result = engine.Query(g, 3, {obs});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(EngineErrorTest, EmptyGraphReturnsStatus) {
  Graph train_g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(train_g).ok());

  const Graph empty;
  const auto result = engine.Query(empty, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().code() == StatusCode::kInvalidArgument ||
              result.status().code() == StatusCode::kOutOfRange)
      << result.status();
}

TEST(EngineErrorTest, BadThresholdReturnsInvalidArgument) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(g).ok());
  for (const float bad : {-0.5f, 1.5f, std::nanf("")}) {
    const auto result = engine.Query(g, 3, {}, QueryOptions{bad});
    ASSERT_FALSE(result.ok()) << "threshold " << bad << " was accepted";
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EngineErrorTest, FitWithoutCommunitiesReturnsInvalidArgument) {
  // A structural graph without ground-truth labels cannot be fitted.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  const Graph unlabelled = b.Build();
  CommunitySearchEngine engine(FastOptions());
  const Status status = engine.Fit(unlabelled);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(EngineErrorTest, QueryReportsBackendProbsAndTiming) {
  Graph g = PlantedGraph();
  CommunitySearchEngine engine(FastOptions());
  ASSERT_TRUE(engine.Fit(g).ok());
  const auto result = engine.Query(g, 17);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->backend, "cgnp");
  EXPECT_EQ(result->members.size(), result->probs.size());
  EXPECT_FALSE(result->members.empty());
  EXPECT_GT(result->elapsed_ms, 0.0);
}

}  // namespace
}  // namespace cgnp
