#include "meta/query_gnn.h"

#include "common/check.h"
#include "tensor/ops.h"
#include "tensor/optim.h"

namespace cgnp {

Tensor QueryIndicatorColumn(const Graph& g, NodeId q) {
  Tensor col = Tensor::Zeros({g.num_nodes(), 1});
  col.data()[q] = 1.0f;
  return col;
}

Tensor LabelIndicatorColumn(const Graph& g, const QueryExample& ex) {
  Tensor col = Tensor::Zeros({g.num_nodes(), 1});
  col.data()[ex.query] = 1.0f;
  for (NodeId v : ex.pos) col.data()[v] = 1.0f;
  return col;
}

void ExampleTargets(const QueryExample& ex, int64_t n,
                    std::vector<float>* targets, std::vector<float>* mask) {
  targets->assign(n, 0.0f);
  mask->assign(n, 0.0f);
  for (NodeId v : ex.pos) {
    (*targets)[v] = 1.0f;
    (*mask)[v] = 1.0f;
  }
  for (NodeId v : ex.neg) {
    (*mask)[v] = 1.0f;
  }
}

QueryGnn::QueryGnn(const MethodConfig& cfg, int64_t feature_dim, Rng* rng)
    : stack_(cfg.gnn,
             [&] {
               std::vector<int64_t> dims;
               dims.push_back(feature_dim + 1);  // +1 query-indicator column
               for (int64_t i = 0; i + 1 < cfg.num_layers; ++i) {
                 dims.push_back(cfg.hidden_dim);
               }
               dims.push_back(1);
               return dims;
             }(),
             rng, cfg.dropout) {
  RegisterChild(&stack_);
}

Tensor QueryGnn::Forward(const Graph& g, NodeId q, Rng* rng) const {
  CGNP_CHECK_EQ(g.feature_dim() + 1, stack_.in_dim())
      << " graph features incompatible with model";
  Tensor x = ConcatCols(QueryIndicatorColumn(g, q), g.FeatureTensor());
  return stack_.Forward(g, x, rng);
}

std::vector<Tensor> QueryGnn::FinalLayerParameters() const {
  // Every layer of the stack registers the same number of parameter
  // tensors, in layer order, so the last layer owns the tail.
  const auto all = stack_.Parameters();
  int64_t per_layer = static_cast<int64_t>(all.size()) / stack_.num_layers();
  CGNP_CHECK_GT(per_layer, 0);
  std::vector<Tensor> out(all.end() - per_layer, all.end());
  return out;
}

Tensor EpisodeLoss(const std::vector<QueryExample>& examples,
                   int64_t num_nodes, const QueryLogitsFn& logits) {
  CGNP_CHECK(!examples.empty());
  Tensor loss_sum;
  std::vector<float> targets, mask;
  for (const auto& ex : examples) {
    Tensor example_logits = logits(ex.query);
    ExampleTargets(ex, num_nodes, &targets, &mask);
    Tensor loss = BceWithLogits(example_logits, targets, mask);
    loss_sum = loss_sum.Defined() ? Add(loss_sum, loss) : loss;
  }
  return MulScalar(loss_sum, 1.0f / static_cast<float>(examples.size()));
}

std::vector<std::vector<float>> PredictQueries(
    const std::vector<QueryExample>& examples, const QueryLogitsFn& logits) {
  NoGradGuard no_grad;
  std::vector<std::vector<float>> out;
  out.reserve(examples.size());
  for (const auto& ex : examples) {
    out.push_back(SigmoidValues(logits(ex.query)));
  }
  return out;
}

float QueryGnnEpoch(QueryGnn* model, const Graph& g,
                    const std::vector<QueryExample>& examples, Rng* rng,
                    Optimizer* opt) {
  opt->ZeroGrad();
  Tensor loss = EpisodeLoss(examples, g.num_nodes(), [&](NodeId q) {
    return model->Forward(g, q, rng);
  });
  const float value = loss.Item();
  loss.Backward();
  opt->Step();
  return value;
}

std::vector<std::vector<float>> AdaptAndPredict(
    QueryGnn* model, const std::vector<float>& start,
    std::vector<Tensor> params, int64_t steps, const MethodConfig& cfg,
    const CsTask& task) {
  Rng rng(cfg.seed);
  model->SetFlatParameters(start);
  Sgd opt(std::move(params), cfg.inner_lr);
  model->SetTraining(true);
  for (int64_t step = 0; step < steps; ++step) {
    QueryGnnEpoch(model, task.graph, task.support, &rng, &opt);
  }
  // `opt` clears the gradients of `params` only.
  model->ZeroGrad();
  model->SetTraining(false);
  auto out = PredictQueries(task.query, [&](NodeId q) {
    return model->Forward(task.graph, q, nullptr);
  });
  model->SetFlatParameters(start);
  return out;
}

}  // namespace cgnp
