// Tests for the CGNP model family: component contracts (encoder /
// commutative / decoder), Algorithm 1 training signal, Algorithm 2
// inference behaviour, and the properties the paper claims (permutation
// invariance of the context, support-free decoding for new queries).
#include <algorithm>
#include <cstring>

#include "core/cgnp.h"
#include "data/synthetic.h"
#include "data/tasks.h"
#include "gtest/gtest.h"
#include "tests/method_oracles.h"
#include "tests/test_util.h"

namespace cgnp {
namespace {

TaskSplit SmallSplit(int64_t shots = 2, uint64_t seed = 5) {
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
  return MakeSingleGraphTasks(g, TaskRegime::kSgsc, tc, 10, 2, 4, &rng);
}

CgnpConfig FastConfig() {
  CgnpConfig cfg;
  cfg.encoder = GnnKind::kGcn;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.epochs = 6;
  cfg.lr = 5e-3f;
  return cfg;
}

TEST(CgnpConfig, VariantNames) {
  CgnpConfig cfg;
  cfg.decoder = DecoderKind::kInnerProduct;
  EXPECT_EQ(cfg.VariantName(), "CGNP-IP");
  cfg.decoder = DecoderKind::kMlp;
  EXPECT_EQ(cfg.VariantName(), "CGNP-MLP");
  cfg.decoder = DecoderKind::kGnn;
  EXPECT_EQ(cfg.VariantName(), "CGNP-GNN");
}

TEST(CgnpModel, ContextShapeMatchesHidden) {
  const TaskSplit split = SmallSplit();
  const CsTask& task = split.train.front();
  Rng rng(1);
  CgnpConfig cfg = FastConfig();
  CgnpModel model(cfg, task.graph.feature_dim(), &rng);
  model.SetTraining(false);
  NoGradGuard ng;
  Tensor h = model.TaskContext(task.graph, task.support, nullptr);
  EXPECT_EQ(h.shape(), (Shape{task.graph.num_nodes(), cfg.hidden_dim}));
}

TEST(CgnpModel, ContextIsPermutationInvariant) {
  // The big-plus operation must not depend on support order (CNP property).
  for (CommutativeOp op :
       {CommutativeOp::kSum, CommutativeOp::kAverage,
        CommutativeOp::kAttention, CommutativeOp::kCrossAttention}) {
    const TaskSplit split = SmallSplit(/*shots=*/3);
    const CsTask& task = split.train.front();
    Rng rng(2);
    CgnpConfig cfg = FastConfig();
    cfg.commutative = op;
    CgnpModel model(cfg, task.graph.feature_dim(), &rng);
    model.SetTraining(false);
    NoGradGuard ng;
    std::vector<QueryExample> reversed(task.support.rbegin(),
                                       task.support.rend());
    Tensor a = model.TaskContext(task.graph, task.support, nullptr);
    Tensor b = model.TaskContext(task.graph, reversed, nullptr);
    for (int64_t i = 0; i < a.numel(); ++i) {
      EXPECT_NEAR(a.At(i), b.At(i), 1e-4)
          << "op=" << CommutativeOpName(op) << " index " << i;
    }
  }
}

TEST(CgnpModel, AverageAndSumDifferByFactorShots) {
  const TaskSplit split = SmallSplit(/*shots=*/4);
  const CsTask& task = split.train.front();
  CgnpConfig sum_cfg = FastConfig();
  sum_cfg.commutative = CommutativeOp::kSum;
  CgnpConfig avg_cfg = FastConfig();
  avg_cfg.commutative = CommutativeOp::kAverage;
  Rng r1(3), r2(3);  // identical init
  CgnpModel sum_model(sum_cfg, task.graph.feature_dim(), &r1);
  CgnpModel avg_model(avg_cfg, task.graph.feature_dim(), &r2);
  sum_model.SetTraining(false);
  avg_model.SetTraining(false);
  NoGradGuard ng;
  Tensor s = sum_model.TaskContext(task.graph, task.support, nullptr);
  Tensor a = avg_model.TaskContext(task.graph, task.support, nullptr);
  const float k = static_cast<float>(task.support.size());
  for (int64_t i = 0; i < s.numel(); ++i) {
    EXPECT_NEAR(s.At(i), a.At(i) * k, 1e-3);
  }
}

TEST(CgnpModel, DecoderLogitOfQueryIsSquaredNorm) {
  // Inner-product decoder: logit[q] = <H[q], H[q]> >= 0.
  const TaskSplit split = SmallSplit();
  const CsTask& task = split.train.front();
  Rng rng(4);
  CgnpConfig cfg = FastConfig();
  CgnpModel model(cfg, task.graph.feature_dim(), &rng);
  model.SetTraining(false);
  NoGradGuard ng;
  Tensor h = model.TaskContext(task.graph, task.support, nullptr);
  const NodeId q = task.query.front().query;
  Tensor logits = model.QueryLogits(task.graph, h, q, nullptr);
  EXPECT_EQ(logits.shape(), (Shape{task.graph.num_nodes(), 1}));
  float norm_sq = 0;
  for (int64_t j = 0; j < h.cols(); ++j) norm_sq += h.At(q, j) * h.At(q, j);
  EXPECT_NEAR(logits.At(q), norm_sq, 1e-3);
}

TEST(CgnpMetaTrain, LossDecreases) {
  const TaskSplit split = SmallSplit();
  Rng rng(5);
  CgnpConfig cfg = FastConfig();
  cfg.epochs = 10;
  CgnpModel model(cfg, split.train.front().graph.feature_dim(), &rng);
  std::vector<float> losses;
  CgnpMetaTrain(&model, split.train, cfg.epochs, cfg.lr, cfg.seed,
                [&](const CgnpEpochStats& s) { losses.push_back(s.mean_loss); });
  ASSERT_EQ(losses.size(), 10u);
  EXPECT_LT(losses.back(), losses.front() * 0.9f);
}

TEST(CgnpMetaTest, NoGroundTruthNeededForQueries) {
  // Algorithm 2 conditions only on the support set: stripping the query
  // examples' pos/neg lists must not change predictions.
  const TaskSplit split = SmallSplit();
  CgnpConfig cfg = FastConfig();
  CgnpMethod method(cfg);
  method.MetaTrain(split.train);
  CsTask task = split.test.front();
  const auto before = method.PredictTask(task);
  for (auto& ex : task.query) {
    ex.pos.clear();
    ex.neg.clear();
  }
  const auto after = method.PredictTask(task);
  EXPECT_EQ(before, after);
}

TEST(CgnpMetaTest, Deterministic) {
  const TaskSplit split = SmallSplit();
  CgnpConfig cfg = FastConfig();
  CgnpMethod a(cfg), b(cfg);
  a.MetaTrain(split.train);
  b.MetaTrain(split.train);
  EXPECT_EQ(a.PredictTask(split.test.front()),
            b.PredictTask(split.test.front()));
}

TEST(CgnpMetaTest, BeatsUntrainedModel) {
  const TaskSplit split = SmallSplit();
  CgnpConfig cfg = FastConfig();
  cfg.epochs = 12;
  CgnpMethod trained(cfg);
  trained.MetaTrain(split.train);
  // Untrained reference: same architecture, zero epochs.
  CgnpConfig raw_cfg = cfg;
  raw_cfg.epochs = 0;
  CgnpMethod raw(raw_cfg);
  raw.MetaTrain(split.train);
  const EvalStats with_training = EvaluateMethod(&trained, split.test);
  const EvalStats without = EvaluateMethod(&raw, split.test);
  EXPECT_GT(with_training.f1, without.f1);
}

TEST(CgnpVariants, AllDecodersTrainAndPredict) {
  const TaskSplit split = SmallSplit();
  for (DecoderKind d :
       {DecoderKind::kInnerProduct, DecoderKind::kMlp, DecoderKind::kGnn}) {
    CgnpConfig cfg = FastConfig();
    cfg.decoder = d;
    cfg.epochs = 3;
    CgnpMethod method(cfg);
    method.MetaTrain(split.train);
    const auto preds = method.PredictTask(split.test.front());
    ASSERT_EQ(preds.size(), split.test.front().query.size())
        << DecoderKindName(d);
    for (const auto& p : preds) {
      for (float v : p) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
      }
    }
  }
}

TEST(CgnpEncoders, AllGnnKindsTrain) {
  const TaskSplit split = SmallSplit();
  for (GnnKind kind : {GnnKind::kGcn, GnnKind::kGat, GnnKind::kSage}) {
    CgnpConfig cfg = FastConfig();
    cfg.encoder = kind;
    cfg.epochs = 3;
    Rng rng(6);
    CgnpModel model(cfg, split.train.front().graph.feature_dim(), &rng);
    std::vector<float> losses;
    CgnpMetaTrain(&model, split.train, cfg.epochs, cfg.lr, cfg.seed,
                  [&](const CgnpEpochStats& s) { losses.push_back(s.mean_loss); });
    ASSERT_EQ(losses.size(), 3u) << GnnKindName(kind);
    for (float l : losses) EXPECT_TRUE(std::isfinite(l));
  }
}

TEST(CgnpMetaTrainWithValidation, SelectsBestEpochAndReports) {
  const TaskSplit split = SmallSplit();
  Rng rng(9);
  CgnpConfig cfg = FastConfig();
  CgnpModel model(cfg, split.train.front().graph.feature_dim(), &rng);
  const double best = CgnpMetaTrainWithValidation(
      &model, split.train, split.valid, /*epochs=*/8, cfg.lr, cfg.seed,
      /*patience=*/4);
  EXPECT_GE(best, 0.0);
  EXPECT_LE(best, 1.0);
  // The returned model must reproduce the reported validation F1.
  EXPECT_NEAR(CgnpValidationF1(model, split.valid), best, 1e-9);
}

TEST(CgnpMetaTrainWithValidation, AtLeastAsGoodAsUntrained) {
  const TaskSplit split = SmallSplit();
  Rng rng(10);
  CgnpConfig cfg = FastConfig();
  CgnpModel model(cfg, split.train.front().graph.feature_dim(), &rng);
  model.SetTraining(false);  // CgnpMetaTest requires eval mode
  const double before = CgnpValidationF1(model, split.valid);
  const double best = CgnpMetaTrainWithValidation(
      &model, split.train, split.valid, /*epochs=*/10, cfg.lr, cfg.seed);
  // Snapshot selection can never end below the initial parameters' score.
  EXPECT_GE(best, before - 1e-9);
}

// The one epoch loop and the shared predict loop against the reference
// trainers: parameters, per-epoch losses and predictions bitwise equal.
TEST(CgnpOracle, MetaTrainMatchesReference) {
  const TaskSplit split = SmallSplit();
  const int64_t feature_dim = split.train.front().graph.feature_dim();
  for (DecoderKind d : {DecoderKind::kInnerProduct, DecoderKind::kGnn}) {
    CgnpConfig cfg = FastConfig();
    cfg.decoder = d;
    Rng lib_rng(11), ref_rng(11);
    CgnpModel lib(cfg, feature_dim, &lib_rng), ref(cfg, feature_dim, &ref_rng);
    std::vector<float> lib_losses, ref_losses;
    CgnpMetaTrain(&lib, split.train, cfg.epochs, cfg.lr, cfg.seed,
                  [&](const CgnpEpochStats& s) {
                    lib_losses.push_back(s.mean_loss);
                  });
    oracle::CgnpMetaTrain(&ref, split.train, cfg.epochs, cfg.lr, cfg.seed,
                          [&](const CgnpEpochStats& s) {
                            ref_losses.push_back(s.mean_loss);
                          });
    EXPECT_TRUE(oracle::BitwiseEqual(lib.FlatParameters(), ref.FlatParameters()))
        << DecoderKindName(d);
    EXPECT_TRUE(oracle::BitwiseEqual(lib_losses, ref_losses));
    EXPECT_EQ(lib_losses.size(), static_cast<size_t>(cfg.epochs));
    for (const auto& task : split.test) {
      EXPECT_TRUE(oracle::BitwiseEqual(CgnpMetaTest(lib, task),
                                       oracle::CgnpMetaTest(ref, task)))
          << DecoderKindName(d);
    }
  }
}

TEST(CgnpOracle, WithValidationMatchesReference) {
  const TaskSplit split = SmallSplit();
  const int64_t feature_dim = split.train.front().graph.feature_dim();
  CgnpConfig cfg = FastConfig();
  // Patience 1 stops early; 10 runs every epoch.
  for (int64_t patience : {1, 10}) {
    Rng lib_rng(12), ref_rng(12);
    CgnpModel lib(cfg, feature_dim, &lib_rng), ref(cfg, feature_dim, &ref_rng);
    const double lib_f1 = CgnpMetaTrainWithValidation(
        &lib, split.train, split.valid, /*epochs=*/8, cfg.lr, cfg.seed,
        patience);
    const double ref_f1 = oracle::CgnpMetaTrainWithValidation(
        &ref, split.train, split.valid, /*epochs=*/8, cfg.lr, cfg.seed,
        patience);
    EXPECT_EQ(std::memcmp(&lib_f1, &ref_f1, sizeof(double)), 0) << patience;
    EXPECT_TRUE(oracle::BitwiseEqual(lib.FlatParameters(), ref.FlatParameters()))
        << patience;
  }
}

TEST(CgnpModel, CheckpointRoundTripPredictions) {
  const TaskSplit split = SmallSplit();
  CgnpConfig cfg = FastConfig();
  CgnpMethod trained(cfg);
  trained.MetaTrain(split.train);
  const auto expected = trained.PredictTask(split.test.front());

  const std::string path = ::testing::TempDir() + "/cgnp_model.bin";
  const_cast<CgnpModel*>(trained.model())->SaveToFile(path);
  Rng rng(123);
  CgnpModel fresh(cfg, split.train.front().graph.feature_dim(), &rng);
  fresh.LoadFromFile(path);
  fresh.SetTraining(false);
  EXPECT_EQ(CgnpMetaTest(fresh, split.test.front()), expected);
  std::remove(path.c_str());
}

TEST(CgnpCommutatives, AttentionHasParamsOthersDont) {
  Rng rng(7);
  Commutative sum_op(CommutativeOp::kSum, 8, &rng);
  Commutative avg_op(CommutativeOp::kAverage, 8, &rng);
  Commutative att_op(CommutativeOp::kAttention, 8, &rng);
  Commutative xatt_op(CommutativeOp::kCrossAttention, 8, &rng);
  EXPECT_TRUE(sum_op.Parameters().empty());
  EXPECT_TRUE(avg_op.Parameters().empty());
  EXPECT_EQ(att_op.Parameters().size(), 2u);
  EXPECT_EQ(xatt_op.Parameters().size(), 2u);
}

TEST(CgnpCommutatives, SingleViewIsIdentityForAll) {
  Rng rng(8);
  Tensor v = Tensor::Randn({5, 8}, &rng);
  for (CommutativeOp op : {CommutativeOp::kSum, CommutativeOp::kAverage,
                           CommutativeOp::kAttention}) {
    Commutative c(op, 8, &rng);
    Tensor out = c.Combine({v});
    for (int64_t i = 0; i < v.numel(); ++i) {
      EXPECT_NEAR(out.At(i), v.At(i), 1e-6) << CommutativeOpName(op);
    }
  }
}

TEST(CgnpCommutatives, CrossAttentionConvexCombination) {
  // Per-node weights form a softmax, so each output coordinate lies within
  // the min/max of that coordinate across views.
  Rng rng(9);
  Tensor a = Tensor::Randn({6, 8}, &rng);
  Tensor b = Tensor::Randn({6, 8}, &rng);
  Tensor c = Tensor::Randn({6, 8}, &rng);
  Commutative op(CommutativeOp::kCrossAttention, 8, &rng);
  Tensor out = op.Combine({a, b, c});
  for (int64_t i = 0; i < out.numel(); ++i) {
    const float lo = std::min({a.At(i), b.At(i), c.At(i)});
    const float hi = std::max({a.At(i), b.At(i), c.At(i)});
    EXPECT_GE(out.At(i), lo - 1e-4);
    EXPECT_LE(out.At(i), hi + 1e-4);
  }
}

TEST(CgnpCommutatives, CrossAttentionGradientsFlow) {
  Rng rng(10);
  Commutative op(CommutativeOp::kCrossAttention, 4, &rng);
  Tensor a = Tensor::Randn({5, 4}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({5, 4}, &rng, 1.0f, /*requires_grad=*/true);
  auto f = [&] {
    Tensor out = op.Combine({a, b});
    return Sum(Mul(out, out));
  };
  testing::CheckGradient(a, f);
  testing::CheckGradient(b, f);
  for (auto& p : op.Parameters()) testing::CheckGradient(p, f);
}

}  // namespace
}  // namespace cgnp
