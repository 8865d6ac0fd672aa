#include "meta/maml.h"

#include "common/check.h"
#include "tensor/optim.h"

namespace cgnp {

namespace {

// Gradient snapshot of every model parameter, flattened.
std::vector<float> FlatGrads(const QueryGnn& model) {
  std::vector<float> out;
  for (const auto& p : model.Parameters()) {
    const auto& g = p.grad();
    out.insert(out.end(), g.begin(), g.end());
  }
  return out;
}

}  // namespace

void MamlCs::MetaTrain(const std::vector<CsTask>& train_tasks) {
  CGNP_CHECK(!train_tasks.empty());
  Rng rng(cfg_.seed);
  model_ = std::make_unique<QueryGnn>(
      cfg_, train_tasks.front().graph.feature_dim(), &rng);
  // Outer optimiser applies accumulated FOMAML gradients with Adam.
  Adam outer(model_->Parameters(), cfg_.outer_lr);
  Sgd inner(model_->Parameters(), cfg_.inner_lr);
  model_->SetTraining(true);

  std::vector<int64_t> order(train_tasks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);

  for (int64_t epoch = 0; epoch < cfg_.meta_epochs; ++epoch) {
    rng.Shuffle(&order);
    for (int64_t idx : order) {
      const CsTask& task = train_tasks[idx];
      if (task.support.empty() || task.query.empty()) continue;
      const std::vector<float> theta = model_->FlatParameters();
      // Inner loop: adapt task-specific parameters on the support set.
      for (int64_t step = 0; step < cfg_.inner_steps_train; ++step) {
        QueryGnnEpoch(model_.get(), task.graph, task.support, &rng, &inner);
      }
      // Outer gradient: query-set loss at the adapted parameters.
      model_->ZeroGrad();
      EpisodeLoss(task.query, task.graph.num_nodes(), [&](NodeId q) {
        return model_->Forward(task.graph, q, &rng);
      }).Backward();
      const std::vector<float> outer_grad = FlatGrads(*model_);
      // Restore meta parameters and apply the outer step.
      model_->SetFlatParameters(theta);
      model_->ZeroGrad();
      int64_t offset = 0;
      for (auto& p : model_->Parameters()) {
        auto& g = p.mutable_grad();
        for (int64_t i = 0; i < p.numel(); ++i) g[i] = outer_grad[offset + i];
        offset += p.numel();
      }
      outer.Step();
    }
  }
  model_->SetTraining(false);
  meta_params_ = model_->FlatParameters();
}

std::vector<std::vector<float>> MamlCs::PredictTask(const CsTask& task) {
  CGNP_CHECK(model_ != nullptr) << " MAML requires MetaTrain first";
  return AdaptAndPredict(model_.get(), meta_params_, model_->Parameters(),
                         cfg_.inner_steps_test, cfg_, task);
}

}  // namespace cgnp
