#include "meta/supervised.h"

#include "tensor/optim.h"

namespace cgnp {

void SupervisedCs::MetaTrain(const std::vector<CsTask>& train_tasks) {
  // Trains from scratch per task; there is no meta stage.
  (void)train_tasks;
}

std::vector<std::vector<float>> SupervisedCs::PredictTask(const CsTask& task) {
  Rng rng(cfg_.seed);
  QueryGnn model(cfg_, task.graph.feature_dim(), &rng);
  Adam opt(model.Parameters(), cfg_.lr);
  model.SetTraining(true);
  for (int64_t epoch = 0; epoch < cfg_.per_task_epochs; ++epoch) {
    QueryGnnEpoch(&model, task.graph, task.support, &rng, &opt);
  }
  model.SetTraining(false);
  return PredictQueries(task.query, [&](NodeId q) {
    return model.Forward(task.graph, q, nullptr);
  });
}

}  // namespace cgnp
