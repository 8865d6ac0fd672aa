#include "data/tasks.h"

#include <algorithm>
#include <set>

#include "core/engine.h"
#include "data/profiles.h"
#include "data/synthetic.h"
#include "graph/sampling.h"
#include "gtest/gtest.h"
#include "tests/task_oracles.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

Graph SmallPlanted(uint64_t seed = 1) {
  Rng rng(seed);
  SyntheticConfig cfg;
  cfg.num_nodes = 800;
  cfg.num_communities = 8;
  cfg.intra_degree = 10;
  cfg.inter_degree = 2;
  cfg.attribute_dim = 24;
  cfg.attrs_per_node = 3;
  cfg.attrs_per_community_pool = 6;
  return GenerateSyntheticGraph(cfg, &rng);
}

void CheckExample(const CsTask& task, const QueryExample& ex,
                  const TaskConfig& cfg) {
  const int64_t n = task.graph.num_nodes();
  ASSERT_GE(ex.query, 0);
  ASSERT_LT(ex.query, n);
  EXPECT_EQ(static_cast<int64_t>(ex.truth.size()), n);
  EXPECT_EQ(ex.truth[ex.query], 1);
  EXPECT_EQ(static_cast<int64_t>(ex.pos.size()), cfg.pos_samples);
  EXPECT_EQ(static_cast<int64_t>(ex.neg.size()), cfg.neg_samples);
  // Positive samples are true members, negatives are not; none equals q.
  for (NodeId v : ex.pos) {
    EXPECT_EQ(ex.truth[v], 1);
    EXPECT_NE(v, ex.query);
  }
  for (NodeId v : ex.neg) EXPECT_EQ(ex.truth[v], 0);
  // No duplicates within pos / neg.
  std::set<NodeId> pos_set(ex.pos.begin(), ex.pos.end());
  EXPECT_EQ(pos_set.size(), ex.pos.size());
  std::set<NodeId> neg_set(ex.neg.begin(), ex.neg.end());
  EXPECT_EQ(neg_set.size(), ex.neg.size());
  // Truth matches the community labels of the task graph.
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(ex.truth[v] != 0, task.graph.CommunityOf(v) ==
                                    task.graph.CommunityOf(ex.query));
  }
}

TEST(SampleTask, RespectsConfig) {
  Graph g = SmallPlanted();
  Rng rng(2);
  TaskConfig cfg;
  cfg.subgraph_size = 150;
  cfg.shots = 3;
  cfg.query_set_size = 10;
  CsTask task;
  ASSERT_TRUE(SampleTask(g, cfg, {}, 24, &rng, &task));
  EXPECT_LE(task.graph.num_nodes(), 150);
  EXPECT_EQ(task.support.size(), 3u);
  EXPECT_LE(task.query.size(), 10u);
  EXPECT_GE(task.query.size(), 1u);
  for (const auto& ex : task.support) CheckExample(task, ex, cfg);
  for (const auto& ex : task.query) CheckExample(task, ex, cfg);
  // Support and query sets are disjoint.
  std::set<NodeId> sup;
  for (const auto& ex : task.support) sup.insert(ex.query);
  for (const auto& ex : task.query) EXPECT_FALSE(sup.count(ex.query));
}

TEST(SampleTask, FeatureLayout) {
  Graph g = SmallPlanted();
  Rng rng(3);
  TaskConfig cfg;
  CsTask task;
  ASSERT_TRUE(SampleTask(g, cfg, {}, 24, &rng, &task));
  // 24 attribute columns + core number + clustering coefficient.
  EXPECT_EQ(task.graph.feature_dim(), 26);
  const auto& f = task.graph.features();
  const int64_t d = task.graph.feature_dim();
  for (NodeId v = 0; v < task.graph.num_nodes(); ++v) {
    // One-hot block matches the node's attribute set.
    const auto& attrs = task.graph.Attributes(v);
    for (int32_t a = 0; a < 24; ++a) {
      const bool has = std::binary_search(attrs.begin(), attrs.end(), a);
      EXPECT_EQ(f[v * d + a], has ? 1.0f : 0.0f);
    }
    // Structural features normalised to [0, 1].
    EXPECT_GE(f[v * d + 24], 0.0f);
    EXPECT_LE(f[v * d + 24], 1.0f);
    EXPECT_GE(f[v * d + 25], 0.0f);
    EXPECT_LE(f[v * d + 25], 1.0f);
  }
}

TEST(SampleTask, AllowedCommunitiesRespected) {
  Graph g = SmallPlanted();
  Rng rng(4);
  std::vector<char> allowed(8, 0);
  allowed[2] = allowed[5] = 1;
  TaskConfig cfg;
  cfg.shots = 2;
  for (int i = 0; i < 5; ++i) {
    CsTask task;
    if (!SampleTask(g, cfg, allowed, 24, &rng, &task)) continue;
    for (const auto& ex : task.support) {
      const int64_t c = task.graph.CommunityOf(ex.query);
      EXPECT_TRUE(c == 2 || c == 5) << "support query from community " << c;
    }
    for (const auto& ex : task.query) {
      const int64_t c = task.graph.CommunityOf(ex.query);
      EXPECT_TRUE(c == 2 || c == 5);
    }
  }
}

TEST(MakeSingleGraphTasks, SgscProducesRequestedCounts) {
  Graph g = SmallPlanted();
  Rng rng(5);
  TaskConfig cfg;
  const TaskSplit split =
      MakeSingleGraphTasks(g, TaskRegime::kSgsc, cfg, 12, 4, 6, &rng);
  EXPECT_EQ(split.train.size(), 12u);
  EXPECT_EQ(split.valid.size(), 4u);
  EXPECT_EQ(split.test.size(), 6u);
}

TEST(MakeSingleGraphTasks, SgdcCommunitiesDisjoint) {
  Graph g = SmallPlanted();
  Rng rng(6);
  TaskConfig cfg;
  cfg.shots = 2;
  const TaskSplit split =
      MakeSingleGraphTasks(g, TaskRegime::kSgdc, cfg, 10, 2, 10, &rng);
  ASSERT_FALSE(split.train.empty());
  ASSERT_FALSE(split.test.empty());
  std::set<int64_t> train_comms, test_comms;
  for (const auto& t : split.train) {
    for (const auto& ex : t.support) {
      train_comms.insert(t.graph.CommunityOf(ex.query));
    }
    for (const auto& ex : t.query) {
      train_comms.insert(t.graph.CommunityOf(ex.query));
    }
  }
  for (const auto& t : split.test) {
    for (const auto& ex : t.support) {
      test_comms.insert(t.graph.CommunityOf(ex.query));
    }
    for (const auto& ex : t.query) {
      test_comms.insert(t.graph.CommunityOf(ex.query));
    }
  }
  for (int64_t c : train_comms) {
    EXPECT_FALSE(test_comms.count(c)) << "community " << c << " leaked";
  }
}

TEST(MakeMultiGraphTasks, SplitsGraphsAcrossPhases) {
  Rng rng(7);
  const auto graphs = MakeDataset(FacebookProfile(), &rng);
  TaskConfig cfg;
  cfg.shots = 1;
  const TaskSplit split = MakeMultiGraphTasks(graphs, cfg, &rng);
  // 10 ego networks -> 6 train / 2 valid / 2 test (modulo sampling failures).
  EXPECT_GE(split.train.size(), 4u);
  EXPECT_LE(split.train.size(), 6u);
  EXPECT_GE(split.test.size(), 1u);
  EXPECT_LE(split.test.size(), 2u);
}

TEST(MakeCrossDatasetTasks, FeatureDimsAlign) {
  Rng rng(8);
  Graph citeseer = MakeDataset(CiteseerProfile(), &rng)[0];
  Graph cora = MakeDataset(CoraProfile(), &rng)[0];
  TaskConfig cfg;
  const TaskSplit split =
      MakeCrossDatasetTasks(citeseer, cora, cfg, 6, 2, 4, &rng);
  ASSERT_FALSE(split.train.empty());
  ASSERT_FALSE(split.test.empty());
  const int64_t d = split.train.front().graph.feature_dim();
  for (const auto& t : split.train) EXPECT_EQ(t.graph.feature_dim(), d);
  for (const auto& t : split.test) EXPECT_EQ(t.graph.feature_dim(), d);
}

TEST(TaskRegimeName, AllNamesDistinct) {
  std::set<std::string> names = {
      TaskRegimeName(TaskRegime::kSgsc), TaskRegimeName(TaskRegime::kSgdc),
      TaskRegimeName(TaskRegime::kMgod), TaskRegimeName(TaskRegime::kMgdd)};
  EXPECT_EQ(names.size(), 4u);
}

TEST(AttachTaskFeatures, NonAttributedGraphGetsStructuralOnly) {
  Graph g = testing::TwoCliqueGraph();
  Graph feat = AttachTaskFeatures(g, 0);
  EXPECT_EQ(feat.feature_dim(), 2);
  EXPECT_EQ(feat.num_nodes(), g.num_nodes());
  EXPECT_EQ(feat.num_edges(), g.num_edges());
}

// --- Differential: the one-pass task build against the reference --------

// Random graphs covering each optional part on and off, and disconnected
// enough that BFS samples exhaust a component before the budget.
std::vector<testing::RandomGraphSpec> DifferentialSpecs() {
  std::vector<testing::RandomGraphSpec> specs;
  for (int mask = 0; mask < 8; ++mask) {
    testing::RandomGraphSpec spec;
    spec.n = 260;
    spec.edges = mask % 2 == 0 ? 1100 : 180;  // dense, or many components
    spec.isolated_from = 250;
    spec.features = mask & 1;
    spec.attributes = mask & 2;
    spec.communities = mask & 4;
    specs.push_back(spec);
  }
  return specs;
}

TEST(AttachTaskFeatures, MatchesRebuildingReference) {
  uint64_t seed = 0;
  for (const auto& spec : DifferentialSpecs()) {
    const Graph g = testing::RandomGraph(spec, ++seed);
    const int64_t attr_dim = AttributeDim(g);
    Rng rng(seed);
    for (int64_t size :
         {int64_t{1}, int64_t{40}, int64_t{200}, g.num_nodes()}) {
      const NodeId q = rng.NextInt(g.num_nodes());
      const Graph sub = InducedSubgraph(g, BfsSample(g, q, size, &rng));
      testing::ExpectSameGraph(AttachTaskFeatures(sub, attr_dim),
                               oracle::AttachTaskFeatures(sub, attr_dim),
                               "spec " + std::to_string(seed) + " size " +
                                   std::to_string(size));
    }
    // The whole graph, isolated nodes included.
    testing::ExpectSameGraph(AttachTaskFeatures(g, attr_dim),
                             oracle::AttachTaskFeatures(g, attr_dim),
                             "whole graph " + std::to_string(seed));
  }
}

TEST(BuildQueryTask, MatchesReferenceIncludingSupportRemap) {
  uint64_t gseed = 0;
  for (const auto& spec : DifferentialSpecs()) {
    const Graph g = testing::RandomGraph(spec, 100 + ++gseed);
    const int64_t attr_dim = AttributeDim(g);
    Rng rng(gseed);
    for (int64_t size : {int64_t{1}, int64_t{25}, int64_t{200},
                         g.num_nodes() + 3}) {
      TaskConfig tasks;
      tasks.subgraph_size = size;
      for (int trial = 0; trial < 6; ++trial) {
        // Trial 0 queries an isolated node.
        const NodeId q = trial == 0 ? g.num_nodes() - 1
                                    : rng.NextInt(g.num_nodes());
        std::vector<QueryExample> labelled;
        for (int k = 0; k < trial % 3; ++k) {
          QueryExample ex;
          ex.query = k == 0 ? q : rng.NextInt(g.num_nodes());
          for (int i = 0; i < 5; ++i) {
            ex.pos.push_back(rng.NextInt(g.num_nodes()));
            ex.neg.push_back(rng.NextInt(g.num_nodes()));
          }
          labelled.push_back(std::move(ex));
        }
        const uint64_t seed = rng.NextU64();
        const std::string tag = "graph " + std::to_string(gseed) + " size " +
                                std::to_string(size) + " query " +
                                std::to_string(q);
        const LocalQueryTask got =
            BuildQueryTask(g, q, labelled, tasks, attr_dim, seed).value();
        const LocalQueryTask want =
            oracle::BuildQueryTask(g, q, labelled, tasks, attr_dim, seed);
        EXPECT_EQ(got.nodes, want.nodes) << tag;
        EXPECT_EQ(got.query, want.query) << tag;
        ASSERT_EQ(got.support.size(), want.support.size()) << tag;
        for (size_t i = 0; i < got.support.size(); ++i) {
          testing::ExpectSameExample(got.support[i], want.support[i], tag);
        }
        testing::ExpectSameGraph(got.graph, want.graph, tag);
      }
    }
  }
}

// SampleTask draws its seeds, samples and pos/neg sets from one rng, so a
// sequence of tasks only matches the reference if every BFS left the rng
// exactly where the reference left it.
TEST(SampleTask, SequenceMatchesReference) {
  const Graph planted = SmallPlanted(11);
  testing::RandomGraphSpec spec;
  spec.n = 400;
  spec.edges = 700;  // small components: some attempts fail and retry
  spec.isolated_from = 380;
  spec.attributes = true;
  spec.communities = true;
  const Graph sparse = testing::RandomGraph(spec, 12);
  for (const Graph* g : {&planted, &sparse}) {
    TaskConfig cfg;
    cfg.subgraph_size = g == &planted ? 200 : 60;
    cfg.shots = 2;
    cfg.query_set_size = 8;
    const int64_t attr_dim = AttributeDim(*g);
    std::vector<char> allowed(g->num_communities(), 1);
    allowed[0] = 0;
    Rng a(21), b(21);
    for (int i = 0; i < 30; ++i) {
      const std::vector<char>& allow =
          i % 2 == 0 ? allowed : std::vector<char>{};
      CsTask got, want;
      const bool got_ok = SampleTask(*g, cfg, allow, attr_dim, &a, &got);
      ASSERT_EQ(got_ok, oracle::SampleTask(*g, cfg, allow, attr_dim, &b, &want))
          << "task " << i;
      if (!got_ok) continue;
      const std::string tag = "task " + std::to_string(i);
      testing::ExpectSameGraph(got.graph, want.graph, tag);
      ASSERT_EQ(got.support.size(), want.support.size()) << tag;
      for (size_t k = 0; k < got.support.size(); ++k) {
        testing::ExpectSameExample(got.support[k], want.support[k], tag);
      }
      ASSERT_EQ(got.query.size(), want.query.size()) << tag;
      for (size_t k = 0; k < got.query.size(); ++k) {
        testing::ExpectSameExample(got.query[k], want.query[k], tag);
      }
    }
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(AttributeDim, CoversTheLargestId) {
  EXPECT_EQ(AttributeDim(testing::TwoCliqueGraph()), 0);
  GraphBuilder b(3);
  b.SetAttributes({{4, 1}, {}, {9}});
  EXPECT_EQ(AttributeDim(b.Build()), 10);
  EXPECT_EQ(AttributeDim(SmallPlanted()), 24);
}

}  // namespace
}  // namespace cgnp
