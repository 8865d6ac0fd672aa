// End-to-end integration tests across every layer: dataset profile ->
// task sampling -> meta-training -> evaluation, asserting the paper's
// headline qualitative claims on planted-community data:
//   1. CGNP beats the classical truss/core baselines on F1,
//   2. CGNP transfers across graphs (MGDD) and stays useful,
//   3. classical algorithms keep their high-precision / low-recall
//      signature,
//   4. the whole pipeline is deterministic given a seed.
#include "core/cgnp.h"
#include "data/profiles.h"
#include "data/tasks.h"
#include "gtest/gtest.h"
#include "meta/classical.h"
#include "meta/supervised.h"

namespace cgnp {
namespace {

struct Pipeline {
  TaskSplit split;
  bool attributed = false;
};

Pipeline BuildPipeline(uint64_t seed) {
  Rng rng(seed);
  SyntheticConfig cfg;
  cfg.num_nodes = 900;
  cfg.num_communities = 8;
  cfg.intra_degree = 12;
  cfg.inter_degree = 1.5;
  cfg.attribute_dim = 20;
  cfg.attrs_per_node = 4;
  cfg.attrs_per_community_pool = 6;
  cfg.attr_affinity = 0.9;
  const Graph g = GenerateSyntheticGraph(cfg, &rng);
  TaskConfig tc;
  tc.subgraph_size = 90;
  tc.shots = 3;
  tc.query_set_size = 6;
  Pipeline p;
  p.split = MakeSingleGraphTasks(g, TaskRegime::kSgsc, tc, 10, 0, 4, &rng);
  p.attributed = true;
  return p;
}

CgnpConfig FastCgnp() {
  CgnpConfig cfg;
  cfg.encoder = GnnKind::kGat;
  cfg.hidden_dim = 24;
  cfg.num_layers = 2;
  cfg.epochs = 12;
  cfg.lr = 3e-3f;
  return cfg;
}

TEST(Integration, CgnpBeatsClassicalBaselinesOnF1) {
  Pipeline p = BuildPipeline(3);
  ASSERT_GE(p.split.train.size(), 8u);
  ASSERT_GE(p.split.test.size(), 3u);

  CgnpMethod cgnp(FastCgnp());
  cgnp.MetaTrain(p.split.train);
  const EvalStats cgnp_stats = EvaluateMethod(&cgnp, p.split.test);

  ClassicalMethod ctc = ClassicalMethod::Ctc();
  const EvalStats ctc_stats = EvaluateMethod(&ctc, p.split.test);
  ClassicalMethod atc = ClassicalMethod::Atc();
  const EvalStats atc_stats = EvaluateMethod(&atc, p.split.test);

  EXPECT_GT(cgnp_stats.f1, ctc_stats.f1);
  EXPECT_GT(cgnp_stats.f1, atc_stats.f1);
  EXPECT_GT(cgnp_stats.f1, 0.4) << "meta model failed to learn the prior";
}

TEST(Integration, ClassicalSignatureHighPrecisionLowRecall) {
  Pipeline p = BuildPipeline(5);
  ClassicalMethod ctc = ClassicalMethod::Ctc();
  const EvalStats s = EvaluateMethod(&ctc, p.split.test);
  // The paper's Tables II/III signature for truss-based search.
  EXPECT_GT(s.precision, s.recall);
  EXPECT_LT(s.recall, 0.5);
}

TEST(Integration, CrossDatasetTransferMgdd) {
  // Citeseer-like -> Cora-like transfer: the learned prior must carry over
  // to a different data graph (the paper's Cite2Cora result).
  Rng rng(7);
  const Graph citeseer = MakeDataset(CiteseerProfile(), &rng)[0];
  const Graph cora = MakeDataset(CoraProfile(), &rng)[0];
  TaskConfig tc;
  tc.subgraph_size = 90;
  tc.shots = 3;
  tc.query_set_size = 6;
  const TaskSplit split =
      MakeCrossDatasetTasks(citeseer, cora, tc, 10, 0, 4, &rng);
  ASSERT_FALSE(split.train.empty());
  ASSERT_FALSE(split.test.empty());

  CgnpMethod cgnp(FastCgnp());
  cgnp.MetaTrain(split.train);
  const EvalStats transfer = EvaluateMethod(&cgnp, split.test);
  EXPECT_GT(transfer.f1, 0.3) << "prior did not transfer across datasets";

  ClassicalMethod ctc = ClassicalMethod::Ctc();
  EXPECT_GT(transfer.f1, EvaluateMethod(&ctc, split.test).f1);
}

TEST(Integration, FullPipelineDeterministic) {
  Pipeline a = BuildPipeline(11);
  Pipeline b = BuildPipeline(11);
  ASSERT_EQ(a.split.test.size(), b.split.test.size());
  CgnpMethod ma(FastCgnp()), mb(FastCgnp());
  ma.MetaTrain(a.split.train);
  mb.MetaTrain(b.split.train);
  for (size_t t = 0; t < a.split.test.size(); ++t) {
    EXPECT_EQ(ma.PredictTask(a.split.test[t]), mb.PredictTask(b.split.test[t]));
  }
}

TEST(Integration, FiveShotAtLeastRoughlyMatchesOneShot) {
  // More support shots should not collapse performance (the paper shows
  // 5-shot roughly on par or better than 1-shot for CGNP).
  Rng rng(13);
  SyntheticConfig cfg;
  cfg.num_nodes = 900;
  cfg.num_communities = 8;
  cfg.intra_degree = 12;
  cfg.inter_degree = 1.5;
  cfg.attribute_dim = 20;
  const Graph g = GenerateSyntheticGraph(cfg, &rng);
  auto run_with_shots = [&](int64_t shots) {
    TaskConfig tc;
    tc.subgraph_size = 90;
    tc.shots = shots;
    tc.query_set_size = 6;
    Rng task_rng(17);
    const TaskSplit split =
        MakeSingleGraphTasks(g, TaskRegime::kSgsc, tc, 10, 0, 4, &task_rng);
    CgnpMethod method(FastCgnp());
    method.MetaTrain(split.train);
    return EvaluateMethod(&method, split.test).f1;
  };
  const double one_shot = run_with_shots(1);
  const double five_shot = run_with_shots(5);
  EXPECT_GT(five_shot, one_shot - 0.15);
}

TEST(Integration, SupervisedOverfitsSmallSupportRelativeToCgnp) {
  // The small-training-data motivation: a per-task Supervised model with a
  // few-epoch budget cannot match the meta model's F1.
  Pipeline p = BuildPipeline(19);
  CgnpMethod cgnp(FastCgnp());
  cgnp.MetaTrain(p.split.train);
  MethodConfig sup_cfg;
  sup_cfg.gnn = GnnKind::kGat;
  sup_cfg.hidden_dim = 24;
  sup_cfg.num_layers = 2;
  sup_cfg.per_task_epochs = 25;
  sup_cfg.lr = 3e-3f;
  SupervisedCs supervised(sup_cfg);
  supervised.MetaTrain(p.split.train);
  EXPECT_GT(EvaluateMethod(&cgnp, p.split.test).f1,
            EvaluateMethod(&supervised, p.split.test).f1);
}

}  // namespace
}  // namespace cgnp
