#include "meta/aqd_gnn.h"

#include "common/check.h"
#include "meta/query_gnn.h"
#include "tensor/ops.h"
#include "tensor/optim.h"

namespace cgnp {

namespace {

std::vector<int64_t> EncoderDims(int64_t in, const MethodConfig& cfg) {
  std::vector<int64_t> dims;
  dims.push_back(in);
  for (int64_t i = 0; i < cfg.num_layers; ++i) dims.push_back(cfg.hidden_dim);
  return dims;
}

}  // namespace

AqdGnnModel::AqdGnnModel(const MethodConfig& cfg, int64_t feature_dim, Rng* rng)
    : graph_encoder_(cfg.gnn, EncoderDims(feature_dim, cfg), rng, cfg.dropout),
      query_encoder_(cfg.gnn, EncoderDims(1, cfg), rng, cfg.dropout),
      fusion_({2 * cfg.hidden_dim, cfg.hidden_dim, 1}, rng) {
  RegisterChild(&graph_encoder_);
  RegisterChild(&query_encoder_);
  RegisterChild(&fusion_);
}

Tensor AqdGnnModel::Forward(const Graph& g, NodeId q, Rng* rng) const {
  Tensor h_graph = graph_encoder_.Forward(g, g.FeatureTensor(), rng);
  Tensor h_query = query_encoder_.Forward(g, QueryIndicatorColumn(g, q), rng);
  return fusion_.Forward(ConcatCols(h_graph, h_query));
}

void AqdGnnCs::MetaTrain(const std::vector<CsTask>& train_tasks) {
  // Trained from scratch per test task, following the paper's protocol.
  (void)train_tasks;
}

std::vector<std::vector<float>> AqdGnnCs::PredictTask(const CsTask& task) {
  Rng rng(cfg_.seed);
  AqdGnnModel model(cfg_, task.graph.feature_dim(), &rng);
  Adam opt(model.Parameters(), cfg_.lr);
  model.SetTraining(true);
  const QueryLogitsFn logits = [&](NodeId q) {
    return model.Forward(task.graph, q, &rng);
  };
  for (int64_t epoch = 0; epoch < cfg_.per_task_epochs; ++epoch) {
    opt.ZeroGrad();
    EpisodeLoss(task.support, task.graph.num_nodes(), logits).Backward();
    opt.Step();
  }
  model.SetTraining(false);
  return PredictQueries(task.query, [&](NodeId q) {
    return model.Forward(task.graph, q, nullptr);
  });
}

}  // namespace cgnp
