// Tests for the learned baselines: shape contracts, determinism, and
// learning-signal smoke checks on small planted-community tasks.
#include <cstring>
#include <memory>

#include "data/synthetic.h"
#include "data/tasks.h"
#include "gtest/gtest.h"
#include "meta/aqd_gnn.h"
#include "meta/classical.h"
#include "meta/feat_trans.h"
#include "meta/gpn.h"
#include "meta/ics_gnn.h"
#include "meta/maml.h"
#include "meta/query_gnn.h"
#include "meta/reptile.h"
#include "meta/supervised.h"
#include "tensor/optim.h"
#include "tests/method_oracles.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

// Small, strongly-separated dataset so a few epochs are enough signal.
TaskSplit SmallSplit(int64_t shots = 2, uint64_t seed = 3) {
  Rng rng(seed);
  SyntheticConfig cfg;
  cfg.num_nodes = 600;
  cfg.num_communities = 6;
  cfg.intra_degree = 12;
  cfg.inter_degree = 1.5;
  cfg.attribute_dim = 18;
  cfg.attrs_per_node = 3;
  cfg.attrs_per_community_pool = 5;
  cfg.attr_affinity = 0.9;
  Graph g = GenerateSyntheticGraph(cfg, &rng);
  TaskConfig tc;
  tc.subgraph_size = 80;
  tc.shots = shots;
  tc.query_set_size = 6;
  return MakeSingleGraphTasks(g, TaskRegime::kSgsc, tc, 8, 2, 3, &rng);
}

MethodConfig FastConfig() {
  MethodConfig cfg;
  cfg.gnn = GnnKind::kGcn;  // fastest layer for smoke tests
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.meta_epochs = 4;
  cfg.per_task_epochs = 20;
  cfg.inner_steps_train = 3;
  cfg.inner_steps_test = 5;
  cfg.lr = 5e-3f;
  cfg.inner_lr = 5e-3f;
  cfg.outer_lr = 1e-2f;
  return cfg;
}

void CheckPredictionContract(CsMethod* method, const CsTask& task) {
  const auto preds = method->PredictTask(task);
  ASSERT_EQ(preds.size(), task.query.size()) << method->name();
  for (const auto& p : preds) {
    ASSERT_EQ(static_cast<int64_t>(p.size()), task.graph.num_nodes());
    for (float v : p) {
      EXPECT_GE(v, 0.0f) << method->name();
      EXPECT_LE(v, 1.0f) << method->name();
    }
  }
}

TEST(QueryGnn, IndicatorColumns) {
  Graph g = testing::TwoCliqueGraph();
  Tensor qi = QueryIndicatorColumn(g, 3);
  EXPECT_EQ(qi.shape(), (Shape{8, 1}));
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(qi.At(v), v == 3 ? 1.0f : 0.0f);
  QueryExample ex;
  ex.query = 1;
  ex.pos = {0, 2};
  Tensor li = LabelIndicatorColumn(g, ex);
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(li.At(v), (v == 0 || v == 1 || v == 2) ? 1.0f : 0.0f);
  }
}

TEST(QueryGnn, ExampleTargetsMaskOnlyLabelled) {
  QueryExample ex;
  ex.query = 0;
  ex.pos = {1, 2};
  ex.neg = {4};
  std::vector<float> targets, mask;
  ExampleTargets(ex, 6, &targets, &mask);
  EXPECT_EQ(targets, (std::vector<float>{0, 1, 1, 0, 0, 0}));
  EXPECT_EQ(mask, (std::vector<float>{0, 1, 1, 0, 1, 0}));
}

TEST(QueryGnn, TrainingReducesLoss) {
  const TaskSplit split = SmallSplit();
  const CsTask& task = split.train.front();
  Rng rng(1);
  MethodConfig cfg = FastConfig();
  cfg.dropout = 0.0f;  // noise-free loss curve for a strict decrease check
  QueryGnn model(cfg, task.graph.feature_dim(), &rng);
  Adam opt(model.Parameters(), 2e-2f);
  float first = 0, last = 0;
  for (int e = 0; e < 60; ++e) {
    const float loss = QueryGnnEpoch(&model, task.graph, task.support, &rng, &opt);
    if (e == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first * 0.8f);
}

TEST(QueryGnn, FinalLayerParametersAreTail) {
  Rng rng(2);
  MethodConfig cfg = FastConfig();
  QueryGnn model(cfg, 10, &rng);
  const auto all = model.Parameters();
  const auto last = model.FinalLayerParameters();
  ASSERT_FALSE(last.empty());
  ASSERT_LT(last.size(), all.size());
  for (size_t i = 0; i < last.size(); ++i) {
    EXPECT_EQ(last[i].impl(), all[all.size() - last.size() + i].impl());
  }
}

TEST(Supervised, ContractAndDeterminism) {
  const TaskSplit split = SmallSplit();
  MethodConfig cfg = FastConfig();
  SupervisedCs a(cfg), b(cfg);
  a.MetaTrain(split.train);
  b.MetaTrain(split.train);
  CheckPredictionContract(&a, split.test.front());
  EXPECT_EQ(a.PredictTask(split.test.front()),
            b.PredictTask(split.test.front()));
}

TEST(FeatTrans, RequiresMetaTrainThenPredicts) {
  const TaskSplit split = SmallSplit();
  MethodConfig cfg = FastConfig();
  FeatTransCs method(cfg);
  method.MetaTrain(split.train);
  CheckPredictionContract(&method, split.test.front());
}

TEST(FeatTrans, PredictDoesNotCorruptPretrainedWeights) {
  const TaskSplit split = SmallSplit();
  MethodConfig cfg = FastConfig();
  FeatTransCs method(cfg);
  method.MetaTrain(split.train);
  const auto first = method.PredictTask(split.test.front());
  const auto second = method.PredictTask(split.test.front());
  EXPECT_EQ(first, second) << "fine-tuning leaked across PredictTask calls";
}

TEST(FeatTrans, PredictLeavesNoGradientBehind) {
  // Fine-tuning backpropagates through every layer but steps only the
  // last one; the frozen layers' gradients must not pile up across calls.
  const TaskSplit split = SmallSplit();
  FeatTransCs method(FastConfig());
  method.MetaTrain(split.train);
  for (int call = 1; call <= 3; ++call) {
    (void)method.PredictTask(split.test.front());
    const std::vector<Tensor> params = method.model()->Parameters();
    for (size_t i = 0; i < params.size(); ++i) {
      for (const float grad : params[i].grad()) {
        ASSERT_EQ(grad, 0.0f) << "parameter " << i << " after call " << call;
      }
    }
  }
}

TEST(Maml, ContractAndAdaptationIsTemporary) {
  const TaskSplit split = SmallSplit();
  MethodConfig cfg = FastConfig();
  cfg.meta_epochs = 2;
  MamlCs method(cfg);
  method.MetaTrain(split.train);
  CheckPredictionContract(&method, split.test.front());
  const auto first = method.PredictTask(split.test.front());
  const auto second = method.PredictTask(split.test.front());
  EXPECT_EQ(first, second);
}

TEST(Reptile, ContractAndDeterminism) {
  const TaskSplit split = SmallSplit();
  MethodConfig cfg = FastConfig();
  cfg.meta_epochs = 2;
  ReptileCs method(cfg);
  method.MetaTrain(split.train);
  CheckPredictionContract(&method, split.test.front());
  const auto first = method.PredictTask(split.test.front());
  const auto second = method.PredictTask(split.test.front());
  EXPECT_EQ(first, second);
}

TEST(Gpn, UsesQueryGroundTruthForPrototypes) {
  const TaskSplit split = SmallSplit();
  MethodConfig cfg = FastConfig();
  GpnCs method(cfg);
  method.MetaTrain(split.train);
  CheckPredictionContract(&method, split.test.front());
}

TEST(IcsGnn, CommunitySizeBoundsPrediction) {
  const TaskSplit split = SmallSplit();
  MethodConfig cfg = FastConfig();
  cfg.per_task_epochs = 5;
  cfg.ics_community_size = 12;
  IcsGnnCs method(cfg);
  method.MetaTrain(split.train);
  const CsTask& task = split.test.front();
  const auto preds = method.PredictTask(task);
  ASSERT_EQ(preds.size(), task.query.size());
  for (size_t i = 0; i < preds.size(); ++i) {
    int64_t positives = 0;
    for (float v : preds[i]) positives += v >= 0.5f;
    EXPECT_LE(positives, 12);
    EXPECT_GE(positives, 1);
    // The query itself is always in the community.
    EXPECT_GE(preds[i][task.query[i].query], 1.0f);
  }
}

TEST(IcsGnn, GrowCommunityRespectsConnectivity) {
  Graph g = testing::TwoCliqueGraph();
  std::vector<float> scores = {0.9f, 0.8f, 0.7f, 0.6f, 0.95f, 0.9f, 0.9f, 0.9f};
  // From node 0, even though the other clique scores higher, growth must
  // stay connected: first picks are within the first clique / bridge.
  const auto members = GrowCommunityByScore(g, 0, scores, 4);
  EXPECT_EQ(members.size(), 4u);
  EXPECT_EQ(members.front(), 0);
  // All members reachable from 0 within the member set (grown connectedly).
  for (NodeId v : members) {
    bool adjacent_to_member = v == 0;
    for (NodeId u : members) {
      if (u != v && g.HasEdge(u, v)) adjacent_to_member = true;
    }
    EXPECT_TRUE(adjacent_to_member);
  }
}

TEST(AqdGnn, ContractOnTestTask) {
  const TaskSplit split = SmallSplit();
  MethodConfig cfg = FastConfig();
  cfg.per_task_epochs = 10;
  AqdGnnCs method(cfg);
  method.MetaTrain(split.train);
  CheckPredictionContract(&method, split.test.front());
}

// --- The shared episode loss, step and predict loop against the reference
// per-method loops: parameters, gradients, losses, rng state and
// predictions bitwise equal.

TEST(MethodOracle, QueryGnnEpochMatchesReference) {
  const TaskSplit split = SmallSplit();
  const CsTask& task = split.train.front();
  const MethodConfig cfg = FastConfig();
  Rng lib_rng(4), ref_rng(4);
  QueryGnn lib(cfg, task.graph.feature_dim(), &lib_rng);
  QueryGnn ref(cfg, task.graph.feature_dim(), &ref_rng);
  Adam lib_opt(lib.Parameters(), cfg.lr), ref_opt(ref.Parameters(), cfg.lr);
  std::vector<float> lib_losses, ref_losses;
  for (int step = 0; step < 5; ++step) {
    lib_losses.push_back(
        QueryGnnEpoch(&lib, task.graph, task.support, &lib_rng, &lib_opt));
    ref_losses.push_back(oracle::QueryGnnEpoch(&ref, task.graph, task.support,
                                               &ref_rng, &ref_opt));
  }
  EXPECT_TRUE(oracle::BitwiseEqual(lib_losses, ref_losses));
  EXPECT_TRUE(oracle::BitwiseEqual(lib.FlatParameters(), ref.FlatParameters()));
  EXPECT_EQ(lib_rng.NextU64(), ref_rng.NextU64());
}

// MAML's inner steps (QueryGnnEpoch with the inner Sgd) and outer gradient
// (EpisodeLoss at the adapted parameters) against the reference
// BackwardLoss helper.
TEST(MethodOracle, MamlStepsMatchBackwardLoss) {
  const TaskSplit split = SmallSplit();
  const CsTask& task = split.train.front();
  const MethodConfig cfg = FastConfig();
  Rng lib_rng(6), ref_rng(6);
  QueryGnn lib(cfg, task.graph.feature_dim(), &lib_rng);
  QueryGnn ref(cfg, task.graph.feature_dim(), &ref_rng);
  Sgd lib_inner(lib.Parameters(), cfg.inner_lr);
  Sgd ref_inner(ref.Parameters(), cfg.inner_lr);
  for (int step = 0; step < 3; ++step) {
    QueryGnnEpoch(&lib, task.graph, task.support, &lib_rng, &lib_inner);
    oracle::BackwardLoss(&ref, task.graph, task.support, &ref_rng);
    ref_inner.Step();
    ref.ZeroGrad();
  }
  lib.ZeroGrad();
  Tensor lib_loss = EpisodeLoss(task.query, task.graph.num_nodes(),
                                [&](NodeId q) {
                                  return lib.Forward(task.graph, q, &lib_rng);
                                });
  const float lib_value = lib_loss.Item();
  lib_loss.Backward();
  const float ref_value =
      oracle::BackwardLoss(&ref, task.graph, task.query, &ref_rng);
  EXPECT_EQ(std::memcmp(&lib_value, &ref_value, sizeof(float)), 0);
  EXPECT_TRUE(oracle::BitwiseEqual(lib.FlatParameters(), ref.FlatParameters()));
  EXPECT_TRUE(
      oracle::BitwiseEqual(oracle::FlatGrads(lib), oracle::FlatGrads(ref)));
  EXPECT_EQ(lib_rng.NextU64(), ref_rng.NextU64());
}

// `method` was trained to `params`, the reference to `ref_params`; each test
// task in turn must predict alike, so every task after the first also
// checks that the previous task's adaptation was undone.
template <typename RefPredict>
void ExpectMatchesReference(CsMethod* method, const std::vector<float>& params,
                            const std::vector<float>& ref_params,
                            const std::vector<CsTask>& tasks,
                            RefPredict ref_predict) {
  EXPECT_TRUE(oracle::BitwiseEqual(params, ref_params)) << method->name();
  for (const auto& task : tasks) {
    EXPECT_TRUE(
        oracle::BitwiseEqual(method->PredictTask(task), ref_predict(task)))
        << method->name();
  }
}

TEST(MethodOracle, MamlMatchesReference) {
  const TaskSplit split = SmallSplit();
  MethodConfig cfg = FastConfig();
  cfg.meta_epochs = 2;
  MamlCs method(cfg);
  method.MetaTrain(split.train);
  std::unique_ptr<QueryGnn> ref;
  const auto ref_params = oracle::MamlMetaTrain(cfg, split.train, &ref);
  ExpectMatchesReference(&method, method.trained_parameters(), ref_params,
                         split.test, [&](const CsTask& task) {
                           return oracle::MamlPredictTask(cfg, ref.get(),
                                                          ref_params, task);
                         });
}

TEST(MethodOracle, ReptileMatchesReference) {
  const TaskSplit split = SmallSplit();
  MethodConfig cfg = FastConfig();
  cfg.meta_epochs = 2;
  ReptileCs method(cfg);
  method.MetaTrain(split.train);
  std::unique_ptr<QueryGnn> ref;
  const auto ref_params = oracle::ReptileMetaTrain(cfg, split.train, &ref);
  ExpectMatchesReference(&method, method.trained_parameters(), ref_params,
                         split.test, [&](const CsTask& task) {
                           return oracle::ReptilePredictTask(cfg, ref.get(),
                                                             ref_params, task);
                         });
}

TEST(MethodOracle, FeatTransMatchesReference) {
  const TaskSplit split = SmallSplit();
  const MethodConfig cfg = FastConfig();
  FeatTransCs method(cfg);
  method.MetaTrain(split.train);
  std::unique_ptr<QueryGnn> ref;
  const auto ref_params = oracle::FeatTransMetaTrain(cfg, split.train, &ref);
  ExpectMatchesReference(&method, method.trained_parameters(), ref_params,
                         split.test, [&](const CsTask& task) {
                           return oracle::FeatTransPredictTask(
                               cfg, ref.get(), ref_params, task);
                         });
}

TEST(MethodOracle, PerTaskTrainersMatchReference) {
  const TaskSplit split = SmallSplit();
  MethodConfig cfg = FastConfig();
  cfg.per_task_epochs = 10;
  SupervisedCs supervised(cfg);
  ExpectMatchesReference(&supervised, {}, {}, split.test,
                         [&](const CsTask& task) {
                           return oracle::SupervisedPredictTask(cfg, task);
                         });
  AqdGnnCs aqd(cfg);
  ExpectMatchesReference(&aqd, {}, {}, split.test, [&](const CsTask& task) {
    return oracle::AqdGnnPredictTask(cfg, task);
  });
}

TEST(Classical, AllAdaptersSatisfyContract) {
  const TaskSplit split = SmallSplit();
  ClassicalMethod atc = ClassicalMethod::Atc();
  ClassicalMethod acq = ClassicalMethod::Acq();
  ClassicalMethod ctc = ClassicalMethod::Ctc();
  ClassicalMethod kcore = ClassicalMethod::KCore();
  ClassicalMethod ktruss = ClassicalMethod::KTruss();
  EXPECT_TRUE(split.test.front().graph.has_attributes());  // ACQ needs them
  for (CsMethod* m :
       std::vector<CsMethod*>{&atc, &acq, &ctc, &kcore, &ktruss}) {
    m->MetaTrain(split.train);
    CheckPredictionContract(m, split.test.front());
  }
}

TEST(EvaluateMethod, AveragesAcrossTasksAndQueries) {
  const TaskSplit split = SmallSplit();
  ClassicalMethod method = ClassicalMethod::KTruss();
  const EvalStats s = EvaluateMethod(&method, split.test);
  EXPECT_GE(s.f1, 0.0);
  EXPECT_LE(s.f1, 1.0);
  EXPECT_GE(s.accuracy, 0.0);
  EXPECT_LE(s.accuracy, 1.0);
}

TEST(FormatStatsRow, ContainsAllFourMetrics) {
  const std::string row = FormatStatsRow("Test", {0.1, 0.2, 0.3, 0.4});
  EXPECT_NE(row.find("0.1000"), std::string::npos);
  EXPECT_NE(row.find("0.2000"), std::string::npos);
  EXPECT_NE(row.find("0.3000"), std::string::npos);
  EXPECT_NE(row.find("0.4000"), std::string::npos);
}

}  // namespace
}  // namespace cgnp
