// Reference implementations of the method layer, written out per method the
// way each trainer and predictor once hand-wrote them: the CGNP trainer
// with and without validation-based selection, QueryGnnEpoch, MAML's
// zero-loss-backward helper, and the MetaTrain / PredictTask bodies of
// MAML, Reptile, FeatTrans, Supervised and AQD-GNN. Each is a free
// function over the library's model types, and each must give bitwise the
// parameters and predictions of its library counterpart (which share one
// episode loss, one predict loop and one CGNP epoch loop).
#ifndef CGNP_TESTS_METHOD_ORACLES_H_
#define CGNP_TESTS_METHOD_ORACLES_H_

#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.h"
#include "core/cgnp.h"
#include "data/metrics.h"
#include "meta/aqd_gnn.h"
#include "meta/query_gnn.h"
#include "tensor/ops.h"
#include "tensor/optim.h"

namespace cgnp {
namespace oracle {

inline bool BitwiseEqual(const std::vector<float>& a,
                         const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

inline bool BitwiseEqual(const std::vector<std::vector<float>>& a,
                         const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitwiseEqual(a[i], b[i])) return false;
  }
  return true;
}

// --- CGNP (Algorithms 1 and 2) ----------------------------------------------

inline void CgnpMetaTrain(
    CgnpModel* model, const std::vector<CsTask>& tasks, int64_t epochs,
    float lr, uint64_t seed,
    const std::function<void(const CgnpEpochStats&)>& on_epoch = nullptr) {
  CGNP_CHECK(!tasks.empty());
  Rng rng(seed);
  Adam opt(model->Parameters(), lr);
  model->SetTraining(true);

  std::vector<int64_t> order(tasks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);

  std::vector<float> targets, mask;
  for (int64_t epoch = 0; epoch < epochs; ++epoch) {
    rng.Shuffle(&order);
    float epoch_loss = 0.0f;
    int64_t used_tasks = 0;
    for (int64_t idx : order) {
      const CsTask& task = tasks[idx];
      if (task.support.empty() || task.query.empty()) continue;
      opt.ZeroGrad();
      Tensor context = model->TaskContext(task.graph, task.support, &rng);
      Tensor loss_sum;
      for (const auto& ex : task.query) {
        Tensor logits = model->QueryLogits(task.graph, context, ex.query, &rng);
        ExampleTargets(ex, task.graph.num_nodes(), &targets, &mask);
        Tensor loss = BceWithLogits(logits, targets, mask);
        loss_sum = loss_sum.Defined() ? Add(loss_sum, loss) : loss;
      }
      loss_sum =
          MulScalar(loss_sum, 1.0f / static_cast<float>(task.query.size()));
      epoch_loss += loss_sum.Item();
      ++used_tasks;
      loss_sum.Backward();
      opt.Step();
    }
    if (on_epoch && used_tasks > 0) {
      on_epoch({epoch, epoch_loss / static_cast<float>(used_tasks)});
    }
  }
  model->SetTraining(false);
}

inline std::vector<std::vector<float>> CgnpMetaTest(const CgnpModel& model,
                                                    const CsTask& task) {
  NoGradGuard no_grad;
  Tensor context = model.TaskContext(task.graph, task.support, nullptr);
  std::vector<std::vector<float>> out;
  out.reserve(task.query.size());
  for (const auto& ex : task.query) {
    out.push_back(SigmoidValues(
        model.QueryLogits(task.graph, context, ex.query, nullptr)));
  }
  return out;
}

inline double CgnpValidationF1(const CgnpModel& model,
                               const std::vector<CsTask>& tasks) {
  StatsAccumulator acc;
  for (const auto& task : tasks) {
    if (task.support.empty() || task.query.empty()) continue;
    const auto preds = oracle::CgnpMetaTest(model, task);
    for (size_t i = 0; i < task.query.size(); ++i) {
      acc.Add(EvaluateScores(preds[i], task.query[i].truth,
                             task.query[i].query));
    }
  }
  return acc.MeanStats().f1;
}

inline double CgnpMetaTrainWithValidation(
    CgnpModel* model, const std::vector<CsTask>& train_tasks,
    const std::vector<CsTask>& valid_tasks, int64_t epochs, float lr,
    uint64_t seed, int64_t patience = 10) {
  CGNP_CHECK(!valid_tasks.empty());
  double best_f1 = -1.0;
  std::vector<float> best_params = model->FlatParameters();
  int64_t stale = 0;
  Rng rng(seed);
  Adam opt(model->Parameters(), lr);
  std::vector<int64_t> order(train_tasks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  std::vector<float> targets, mask;
  for (int64_t epoch = 0; epoch < epochs; ++epoch) {
    model->SetTraining(true);
    rng.Shuffle(&order);
    for (int64_t idx : order) {
      const CsTask& task = train_tasks[idx];
      if (task.support.empty() || task.query.empty()) continue;
      opt.ZeroGrad();
      Tensor context = model->TaskContext(task.graph, task.support, &rng);
      Tensor loss_sum;
      for (const auto& ex : task.query) {
        Tensor logits = model->QueryLogits(task.graph, context, ex.query, &rng);
        ExampleTargets(ex, task.graph.num_nodes(), &targets, &mask);
        Tensor loss = BceWithLogits(logits, targets, mask);
        loss_sum = loss_sum.Defined() ? Add(loss_sum, loss) : loss;
      }
      loss_sum =
          MulScalar(loss_sum, 1.0f / static_cast<float>(task.query.size()));
      loss_sum.Backward();
      opt.Step();
    }
    model->SetTraining(false);
    const double f1 = oracle::CgnpValidationF1(*model, valid_tasks);
    if (f1 > best_f1) {
      best_f1 = f1;
      best_params = model->FlatParameters();
      stale = 0;
    } else if (++stale >= patience) {
      break;
    }
  }
  model->SetFlatParameters(best_params);
  model->SetTraining(false);
  return best_f1;
}

// --- Query-GNN training steps -----------------------------------------------

inline float QueryGnnEpoch(QueryGnn* model, const Graph& g,
                           const std::vector<QueryExample>& examples, Rng* rng,
                           Optimizer* opt) {
  CGNP_CHECK(!examples.empty());
  opt->ZeroGrad();
  float total = 0.0f;
  Tensor loss_sum;
  std::vector<float> targets, mask;
  for (const auto& ex : examples) {
    Tensor logits = model->Forward(g, ex.query, rng);
    ExampleTargets(ex, g.num_nodes(), &targets, &mask);
    Tensor loss = BceWithLogits(logits, targets, mask);
    loss_sum = loss_sum.Defined() ? Add(loss_sum, loss) : loss;
  }
  loss_sum = MulScalar(loss_sum, 1.0f / static_cast<float>(examples.size()));
  total = loss_sum.Item();
  loss_sum.Backward();
  opt->Step();
  return total;
}

// MAML's helper: mean BCE over `examples`, backward, gradients left on the
// model parameters.
inline float BackwardLoss(QueryGnn* model, const Graph& g,
                          const std::vector<QueryExample>& examples,
                          Rng* rng) {
  model->ZeroGrad();
  Tensor loss_sum;
  std::vector<float> targets, mask;
  for (const auto& ex : examples) {
    Tensor logits = model->Forward(g, ex.query, rng);
    ExampleTargets(ex, g.num_nodes(), &targets, &mask);
    Tensor loss = BceWithLogits(logits, targets, mask);
    loss_sum = loss_sum.Defined() ? Add(loss_sum, loss) : loss;
  }
  loss_sum = MulScalar(loss_sum, 1.0f / static_cast<float>(examples.size()));
  const float value = loss_sum.Item();
  loss_sum.Backward();
  return value;
}

inline std::vector<float> FlatGrads(const QueryGnn& model) {
  std::vector<float> out;
  for (const auto& p : model.Parameters()) {
    const auto& g = p.grad();
    out.insert(out.end(), g.begin(), g.end());
  }
  return out;
}

// --- MAML / Reptile / FeatTrans ---------------------------------------------
// Each *MetaTrain builds `*model` and returns the parameters every test task
// adapts from; each *PredictTask adapts from them and restores them.

inline std::vector<float> MamlMetaTrain(const MethodConfig& cfg,
                                        const std::vector<CsTask>& train_tasks,
                                        std::unique_ptr<QueryGnn>* model_out) {
  CGNP_CHECK(!train_tasks.empty());
  Rng rng(cfg.seed);
  *model_out = std::make_unique<QueryGnn>(
      cfg, train_tasks.front().graph.feature_dim(), &rng);
  QueryGnn* model = model_out->get();
  Adam outer(model->Parameters(), cfg.outer_lr);
  Sgd inner(model->Parameters(), cfg.inner_lr);
  model->SetTraining(true);

  std::vector<int64_t> order(train_tasks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);

  for (int64_t epoch = 0; epoch < cfg.meta_epochs; ++epoch) {
    rng.Shuffle(&order);
    for (int64_t idx : order) {
      const CsTask& task = train_tasks[idx];
      if (task.support.empty() || task.query.empty()) continue;
      const std::vector<float> theta = model->FlatParameters();
      for (int64_t step = 0; step < cfg.inner_steps_train; ++step) {
        BackwardLoss(model, task.graph, task.support, &rng);
        inner.Step();
        model->ZeroGrad();
      }
      BackwardLoss(model, task.graph, task.query, &rng);
      const std::vector<float> outer_grad = FlatGrads(*model);
      model->SetFlatParameters(theta);
      model->ZeroGrad();
      int64_t offset = 0;
      for (auto& p : model->Parameters()) {
        auto& g = p.mutable_grad();
        for (int64_t i = 0; i < p.numel(); ++i) g[i] = outer_grad[offset + i];
        offset += p.numel();
      }
      outer.Step();
    }
  }
  model->SetTraining(false);
  return model->FlatParameters();
}

inline std::vector<std::vector<float>> MamlPredictTask(
    const MethodConfig& cfg, QueryGnn* model,
    const std::vector<float>& meta_params, const CsTask& task) {
  Rng rng(cfg.seed);
  model->SetFlatParameters(meta_params);
  Sgd inner(model->Parameters(), cfg.inner_lr);
  model->SetTraining(true);
  for (int64_t step = 0; step < cfg.inner_steps_test; ++step) {
    BackwardLoss(model, task.graph, task.support, &rng);
    inner.Step();
    model->ZeroGrad();
  }
  model->SetTraining(false);
  NoGradGuard no_grad;
  std::vector<std::vector<float>> out;
  for (const auto& ex : task.query) {
    out.push_back(SigmoidValues(model->Forward(task.graph, ex.query, nullptr)));
  }
  model->SetFlatParameters(meta_params);
  return out;
}

inline std::vector<float> ReptileMetaTrain(
    const MethodConfig& cfg, const std::vector<CsTask>& train_tasks,
    std::unique_ptr<QueryGnn>* model_out) {
  CGNP_CHECK(!train_tasks.empty());
  Rng rng(cfg.seed);
  *model_out = std::make_unique<QueryGnn>(
      cfg, train_tasks.front().graph.feature_dim(), &rng);
  QueryGnn* model = model_out->get();
  Sgd inner(model->Parameters(), cfg.inner_lr);
  model->SetTraining(true);

  std::vector<int64_t> order(train_tasks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);

  const float beta = cfg.outer_lr;
  for (int64_t epoch = 0; epoch < cfg.meta_epochs; ++epoch) {
    rng.Shuffle(&order);
    for (int64_t idx : order) {
      const CsTask& task = train_tasks[idx];
      std::vector<QueryExample> all = task.support;
      all.insert(all.end(), task.query.begin(), task.query.end());
      if (all.empty()) continue;
      std::vector<float> theta = model->FlatParameters();
      for (int64_t step = 0; step < cfg.inner_steps_train; ++step) {
        oracle::QueryGnnEpoch(model, task.graph, all, &rng, &inner);
      }
      const std::vector<float> adapted = model->FlatParameters();
      for (size_t i = 0; i < theta.size(); ++i) {
        theta[i] += beta * (adapted[i] - theta[i]);
      }
      model->SetFlatParameters(theta);
    }
  }
  model->SetTraining(false);
  return model->FlatParameters();
}

inline std::vector<std::vector<float>> ReptilePredictTask(
    const MethodConfig& cfg, QueryGnn* model,
    const std::vector<float>& meta_params, const CsTask& task) {
  Rng rng(cfg.seed);
  model->SetFlatParameters(meta_params);
  Sgd inner(model->Parameters(), cfg.inner_lr);
  model->SetTraining(true);
  for (int64_t step = 0; step < cfg.inner_steps_test; ++step) {
    oracle::QueryGnnEpoch(model, task.graph, task.support, &rng, &inner);
  }
  model->SetTraining(false);
  NoGradGuard no_grad;
  std::vector<std::vector<float>> out;
  for (const auto& ex : task.query) {
    out.push_back(SigmoidValues(model->Forward(task.graph, ex.query, nullptr)));
  }
  model->SetFlatParameters(meta_params);
  return out;
}

inline std::vector<float> FeatTransMetaTrain(
    const MethodConfig& cfg, const std::vector<CsTask>& train_tasks,
    std::unique_ptr<QueryGnn>* model_out) {
  CGNP_CHECK(!train_tasks.empty());
  Rng rng(cfg.seed);
  *model_out = std::make_unique<QueryGnn>(
      cfg, train_tasks.front().graph.feature_dim(), &rng);
  QueryGnn* model = model_out->get();
  Adam opt(model->Parameters(), cfg.lr);
  model->SetTraining(true);
  for (int64_t epoch = 0; epoch < cfg.meta_epochs; ++epoch) {
    for (const auto& task : train_tasks) {
      std::vector<QueryExample> all = task.support;
      all.insert(all.end(), task.query.begin(), task.query.end());
      oracle::QueryGnnEpoch(model, task.graph, all, &rng, &opt);
    }
  }
  model->SetTraining(false);
  return model->FlatParameters();
}

inline std::vector<std::vector<float>> FeatTransPredictTask(
    const MethodConfig& cfg, QueryGnn* model,
    const std::vector<float>& pretrained, const CsTask& task) {
  Rng rng(cfg.seed);
  model->SetFlatParameters(pretrained);
  Sgd opt(model->FinalLayerParameters(), cfg.inner_lr);
  model->SetTraining(true);
  constexpr int64_t kFineTuneSteps = 5;
  for (int64_t step = 0; step < kFineTuneSteps; ++step) {
    oracle::QueryGnnEpoch(model, task.graph, task.support, &rng, &opt);
  }
  model->SetTraining(false);
  NoGradGuard no_grad;
  std::vector<std::vector<float>> out;
  for (const auto& ex : task.query) {
    out.push_back(SigmoidValues(model->Forward(task.graph, ex.query, nullptr)));
  }
  model->SetFlatParameters(pretrained);
  return out;
}

// --- Per-task trainers -------------------------------------------------------

inline std::vector<std::vector<float>> SupervisedPredictTask(
    const MethodConfig& cfg, const CsTask& task) {
  Rng rng(cfg.seed);
  QueryGnn model(cfg, task.graph.feature_dim(), &rng);
  Adam opt(model.Parameters(), cfg.lr);
  model.SetTraining(true);
  for (int64_t epoch = 0; epoch < cfg.per_task_epochs; ++epoch) {
    oracle::QueryGnnEpoch(&model, task.graph, task.support, &rng, &opt);
  }
  model.SetTraining(false);
  NoGradGuard no_grad;
  std::vector<std::vector<float>> out;
  out.reserve(task.query.size());
  for (const auto& ex : task.query) {
    out.push_back(SigmoidValues(model.Forward(task.graph, ex.query, nullptr)));
  }
  return out;
}

inline std::vector<std::vector<float>> AqdGnnPredictTask(
    const MethodConfig& cfg, const CsTask& task) {
  Rng rng(cfg.seed);
  AqdGnnModel model(cfg, task.graph.feature_dim(), &rng);
  Adam opt(model.Parameters(), cfg.lr);
  model.SetTraining(true);
  std::vector<float> targets, mask;
  for (int64_t epoch = 0; epoch < cfg.per_task_epochs; ++epoch) {
    opt.ZeroGrad();
    Tensor loss_sum;
    for (const auto& ex : task.support) {
      Tensor logits = model.Forward(task.graph, ex.query, &rng);
      ExampleTargets(ex, task.graph.num_nodes(), &targets, &mask);
      Tensor loss = BceWithLogits(logits, targets, mask);
      loss_sum = loss_sum.Defined() ? Add(loss_sum, loss) : loss;
    }
    loss_sum =
        MulScalar(loss_sum, 1.0f / static_cast<float>(task.support.size()));
    loss_sum.Backward();
    opt.Step();
  }
  model.SetTraining(false);
  NoGradGuard no_grad;
  std::vector<std::vector<float>> out;
  for (const auto& ex : task.query) {
    out.push_back(SigmoidValues(model.Forward(task.graph, ex.query, nullptr)));
  }
  return out;
}

}  // namespace oracle
}  // namespace cgnp

#endif  // CGNP_TESTS_METHOD_ORACLES_H_
