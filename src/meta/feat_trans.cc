#include "meta/feat_trans.h"

#include "common/check.h"
#include "tensor/optim.h"

namespace cgnp {

void FeatTransCs::MetaTrain(const std::vector<CsTask>& train_tasks) {
  CGNP_CHECK(!train_tasks.empty());
  Rng rng(cfg_.seed);
  model_ = std::make_unique<QueryGnn>(
      cfg_, train_tasks.front().graph.feature_dim(), &rng);
  Adam opt(model_->Parameters(), cfg_.lr);
  model_->SetTraining(true);
  // Pre-train on the union of every task's labelled queries.
  for (int64_t epoch = 0; epoch < cfg_.meta_epochs; ++epoch) {
    for (const auto& task : train_tasks) {
      std::vector<QueryExample> all = task.support;
      all.insert(all.end(), task.query.begin(), task.query.end());
      QueryGnnEpoch(model_.get(), task.graph, all, &rng, &opt);
    }
  }
  model_->SetTraining(false);
  pretrained_ = model_->FlatParameters();
}

std::vector<std::vector<float>> FeatTransCs::PredictTask(const CsTask& task) {
  CGNP_CHECK(model_ != nullptr) << " FeatTrans requires MetaTrain first";
  // Fine-tune the final layer only, a few gradient steps on the support set.
  constexpr int64_t kFineTuneSteps = 5;
  return AdaptAndPredict(model_.get(), pretrained_,
                         model_->FinalLayerParameters(), kFineTuneSteps, cfg_,
                         task);
}

}  // namespace cgnp
