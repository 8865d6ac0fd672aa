#include "meta/reptile.h"

#include "common/check.h"
#include "tensor/optim.h"

namespace cgnp {

void ReptileCs::MetaTrain(const std::vector<CsTask>& train_tasks) {
  CGNP_CHECK(!train_tasks.empty());
  Rng rng(cfg_.seed);
  model_ = std::make_unique<QueryGnn>(
      cfg_, train_tasks.front().graph.feature_dim(), &rng);
  Sgd inner(model_->Parameters(), cfg_.inner_lr);
  model_->SetTraining(true);

  std::vector<int64_t> order(train_tasks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);

  const float beta = cfg_.outer_lr;
  for (int64_t epoch = 0; epoch < cfg_.meta_epochs; ++epoch) {
    rng.Shuffle(&order);
    for (int64_t idx : order) {
      const CsTask& task = train_tasks[idx];
      std::vector<QueryExample> all = task.support;
      all.insert(all.end(), task.query.begin(), task.query.end());
      if (all.empty()) continue;
      std::vector<float> theta = model_->FlatParameters();
      for (int64_t step = 0; step < cfg_.inner_steps_train; ++step) {
        QueryGnnEpoch(model_.get(), task.graph, all, &rng, &inner);
      }
      // theta <- theta + beta * (theta_i - theta)
      const std::vector<float> adapted = model_->FlatParameters();
      for (size_t i = 0; i < theta.size(); ++i) {
        theta[i] += beta * (adapted[i] - theta[i]);
      }
      model_->SetFlatParameters(theta);
    }
  }
  model_->SetTraining(false);
  meta_params_ = model_->FlatParameters();
}

std::vector<std::vector<float>> ReptileCs::PredictTask(const CsTask& task) {
  CGNP_CHECK(model_ != nullptr) << " Reptile requires MetaTrain first";
  return AdaptAndPredict(model_.get(), meta_params_, model_->Parameters(),
                         cfg_.inner_steps_test, cfg_, task);
}

}  // namespace cgnp
