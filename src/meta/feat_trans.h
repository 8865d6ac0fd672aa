// Feature-transfer baseline (Section IV): a GNN pre-trained on the union of
// all training-task data; at test time only the final layer is fine-tuned
// on the support set by a few gradient steps.
#ifndef CGNP_META_FEAT_TRANS_H_
#define CGNP_META_FEAT_TRANS_H_

#include <memory>

#include "meta/query_gnn.h"

namespace cgnp {

class FeatTransCs : public CsMethod {
 public:
  explicit FeatTransCs(const MethodConfig& cfg) : cfg_(cfg) {}

  std::string name() const override { return "FeatTrans"; }
  void MetaTrain(const std::vector<CsTask>& train_tasks) override;
  std::vector<std::vector<float>> PredictTask(const CsTask& task) override;

  // The parameters every test task adapts from (set by MetaTrain).
  const std::vector<float>& trained_parameters() const { return pretrained_; }
  // The network PredictTask fine-tunes; null before MetaTrain.
  const QueryGnn* model() const { return model_.get(); }

 private:
  MethodConfig cfg_;
  std::unique_ptr<QueryGnn> model_;
  std::vector<float> pretrained_;  // snapshot restored after each task
};

}  // namespace cgnp

#endif  // CGNP_META_FEAT_TRANS_H_
