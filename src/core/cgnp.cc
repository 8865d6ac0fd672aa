#include "core/cgnp.h"

#include "common/check.h"
#include "meta/query_gnn.h"
#include "tensor/optim.h"

namespace cgnp {

const char* CommutativeOpName(CommutativeOp op) {
  switch (op) {
    case CommutativeOp::kSum:
      return "sum";
    case CommutativeOp::kAverage:
      return "average";
    case CommutativeOp::kAttention:
      return "attention";
    case CommutativeOp::kCrossAttention:
      return "cross-attention";
  }
  return "?";
}

const char* DecoderKindName(DecoderKind kind) {
  switch (kind) {
    case DecoderKind::kInnerProduct:
      return "IP";
    case DecoderKind::kMlp:
      return "MLP";
    case DecoderKind::kGnn:
      return "GNN";
  }
  return "?";
}

std::string CgnpConfig::VariantName() const {
  return std::string("CGNP-") + DecoderKindName(decoder);
}

CgnpModel::CgnpModel(const CgnpConfig& cfg, int64_t feature_dim, Rng* rng)
    : cfg_(cfg),
      feature_dim_(feature_dim),
      encoder_(cfg, feature_dim, rng),
      commutative_(cfg.commutative, cfg.hidden_dim, rng),
      decoder_(cfg, rng) {
  RegisterChild(&encoder_);
  RegisterChild(&commutative_);
  RegisterChild(&decoder_);
}

Tensor CgnpModel::TaskContext(const Graph& g,
                              const std::vector<QueryExample>& support,
                              Rng* rng) const {
  CGNP_CHECK(!support.empty()) << " CGNP needs at least one support shot";
  std::vector<Tensor> views;
  views.reserve(support.size());
  for (const auto& ex : support) {
    views.push_back(encoder_.Forward(g, ex, rng));
  }
  return commutative_.Combine(views);
}

Tensor CgnpModel::QueryLogits(const Graph& g, const Tensor& context, NodeId q,
                              Rng* rng) const {
  return decoder_.Forward(g, context, q, rng);
}

double CgnpMetaTrainLoop(
    CgnpModel* model, const std::vector<CsTask>& train_tasks,
    const std::vector<CsTask>& valid_tasks, int64_t epochs, float lr,
    uint64_t seed, int64_t patience,
    const std::function<void(const CgnpEpochStats&)>& on_epoch) {
  CGNP_CHECK(!train_tasks.empty());
  Rng rng(seed);
  Adam opt(model->Parameters(), lr);
  std::vector<int64_t> order(train_tasks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);

  double best_f1 = -1.0;
  std::vector<float> best_params;
  if (!valid_tasks.empty()) best_params = model->FlatParameters();
  int64_t stale = 0;
  for (int64_t epoch = 0; epoch < epochs; ++epoch) {
    model->SetTraining(true);
    rng.Shuffle(&order);  // Algorithm 1 line 2
    float epoch_loss = 0.0f;
    int64_t used_tasks = 0;
    for (int64_t idx : order) {
      const CsTask& task = train_tasks[idx];
      if (task.support.empty() || task.query.empty()) continue;
      opt.ZeroGrad();
      // Lines 5-7: context from the support set.
      Tensor context = model->TaskContext(task.graph, task.support, &rng);
      // Lines 8-11: mean query-set loss (Eq. 19).
      Tensor loss =
          EpisodeLoss(task.query, task.graph.num_nodes(), [&](NodeId q) {
            return model->QueryLogits(task.graph, context, q, &rng);
          });
      epoch_loss += loss.Item();
      ++used_tasks;
      // Line 12: one gradient step per task.
      loss.Backward();
      opt.Step();
    }
    if (on_epoch && used_tasks > 0) {
      on_epoch({epoch, epoch_loss / static_cast<float>(used_tasks)});
    }
    if (valid_tasks.empty()) continue;
    model->SetTraining(false);
    const double f1 = CgnpValidationF1(*model, valid_tasks);
    if (f1 > best_f1) {
      best_f1 = f1;
      best_params = model->FlatParameters();
      stale = 0;
    } else if (++stale >= patience) {
      break;
    }
  }
  if (!valid_tasks.empty()) model->SetFlatParameters(best_params);
  model->SetTraining(false);
  return best_f1;
}

void CgnpMetaTrain(CgnpModel* model, const std::vector<CsTask>& tasks,
                   int64_t epochs, float lr, uint64_t seed,
                   const std::function<void(const CgnpEpochStats&)>& on_epoch) {
  CgnpMetaTrainLoop(model, tasks, {}, epochs, lr, seed, /*patience=*/0,
                    on_epoch);
}

std::vector<std::vector<float>> CgnpMetaTest(const CgnpModel& model,
                                             const CsTask& task) {
  NoGradGuard no_grad;
  // Algorithm 2: the whole support set is the conditioning context.
  Tensor context = model.TaskContext(task.graph, task.support, nullptr);
  return PredictQueries(task.query, [&](NodeId q) {
    return model.QueryLogits(task.graph, context, q, nullptr);
  });
}

double CgnpValidationF1(const CgnpModel& model,
                        const std::vector<CsTask>& tasks) {
  StatsAccumulator acc;
  for (const auto& task : tasks) {
    if (task.support.empty() || task.query.empty()) continue;
    const auto preds = CgnpMetaTest(model, task);
    for (size_t i = 0; i < task.query.size(); ++i) {
      acc.Add(EvaluateScores(preds[i], task.query[i].truth,
                             task.query[i].query));
    }
  }
  return acc.MeanStats().f1;
}

double CgnpMetaTrainWithValidation(CgnpModel* model,
                                   const std::vector<CsTask>& train_tasks,
                                   const std::vector<CsTask>& valid_tasks,
                                   int64_t epochs, float lr, uint64_t seed,
                                   int64_t patience) {
  CGNP_CHECK(!valid_tasks.empty());
  return CgnpMetaTrainLoop(model, train_tasks, valid_tasks, epochs, lr, seed,
                           patience, nullptr);
}

void CgnpMethod::MetaTrain(const std::vector<CsTask>& train_tasks) {
  CGNP_CHECK(!train_tasks.empty());
  Rng rng(cfg_.seed);
  model_ = std::make_unique<CgnpModel>(
      cfg_, train_tasks.front().graph.feature_dim(), &rng);
  CgnpMetaTrain(model_.get(), train_tasks, cfg_.epochs, cfg_.lr, cfg_.seed);
}

std::vector<std::vector<float>> CgnpMethod::PredictTask(const CsTask& task) {
  CGNP_CHECK(model_ != nullptr) << " CGNP requires MetaTrain first";
  return CgnpMetaTest(*model_, task);
}

}  // namespace cgnp
