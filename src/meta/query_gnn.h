// The Section IV base model: a K-layer GNN over [I(v) || A(v)] node inputs
// producing one membership logit per node, trained with the BCE loss of
// Eq. (3). This model underlies Supervised, FeatTrans, MAML, Reptile,
// ICS-GNN and (as the structural trunk) AQD-GNN.
#ifndef CGNP_META_QUERY_GNN_H_
#define CGNP_META_QUERY_GNN_H_

#include <functional>
#include <vector>

#include "data/tasks.h"
#include "meta/method.h"
#include "nn/gnn_stack.h"

namespace cgnp {

// {n,1} column with 1 at the query node only (Iq of Section IV).
Tensor QueryIndicatorColumn(const Graph& g, NodeId q);

// {n,1} column with 1 at the query node and its known positive samples
// (Il of Eq. (13), close-world assumption).
Tensor LabelIndicatorColumn(const Graph& g, const QueryExample& ex);

// Per-node BCE targets/mask from an example's pos / neg sample lists.
void ExampleTargets(const QueryExample& ex, int64_t n,
                    std::vector<float>* targets, std::vector<float>* mask);

class QueryGnn : public Module {
 public:
  QueryGnn(const MethodConfig& cfg, int64_t feature_dim, Rng* rng);

  // Membership logits {n,1} for query q over graph g (g.feature_dim() must
  // equal the construction-time feature_dim).
  Tensor Forward(const Graph& g, NodeId q, Rng* rng) const;

  // Parameters of the final GNN layer only (FeatTrans fine-tuning).
  std::vector<Tensor> FinalLayerParameters() const;

  const GnnStack& stack() const { return stack_; }

 private:
  GnnStack stack_;
};

// Membership logits {n,1} of one query node.
using QueryLogitsFn = std::function<Tensor(NodeId)>;

// The episode loss of Eq. (3) / Eq. (19), the one every learned trainer
// minimises: the masked BCE of logits(ex.query) against each example's
// pos / neg samples, summed in example order and scaled by 1/|examples|.
// `examples` must not be empty; `num_nodes` sizes the targets.
Tensor EpisodeLoss(const std::vector<QueryExample>& examples,
                   int64_t num_nodes, const QueryLogitsFn& logits);

// sigmoid(logits(ex.query)) for every example, computed without gradients:
// one probability vector per example, in example order.
std::vector<std::vector<float>> PredictQueries(
    const std::vector<QueryExample>& examples, const QueryLogitsFn& logits);

// One training step of `model` on `examples` as a batch: zero the
// optimiser's gradients, EpisodeLoss, backward, opt->Step(). Returns the
// loss value.
float QueryGnnEpoch(QueryGnn* model, const Graph& g,
                    const std::vector<QueryExample>& examples, Rng* rng,
                    class Optimizer* opt);

// Test-time adaptation shared by MAML, Reptile and FeatTrans: loads `start`
// into `model`, takes `steps` QueryGnnEpoch steps of plain SGD
// (cfg.inner_lr, rng seeded with cfg.seed) on task.support over `params`
// (tensors of `model`), predicts every query of the task and loads `start`
// again, so no adaptation outlives the call. Every gradient of `model` is
// zero on return: the steps backpropagate through the whole model, not
// only through `params`.
std::vector<std::vector<float>> AdaptAndPredict(
    QueryGnn* model, const std::vector<float>& start,
    std::vector<Tensor> params, int64_t steps, const MethodConfig& cfg,
    const CsTask& task);

}  // namespace cgnp

#endif  // CGNP_META_QUERY_GNN_H_
