// Reptile (Nichol, Achiam, Schulman 2018): first-order meta-learning that
// moves the meta parameters toward each task's adapted parameters
// (Eq. (6)); the inner loop uses all of the task's labelled data without a
// support/query split, exactly as the paper describes.
#ifndef CGNP_META_REPTILE_H_
#define CGNP_META_REPTILE_H_

#include <memory>

#include "meta/query_gnn.h"

namespace cgnp {

class ReptileCs : public CsMethod {
 public:
  explicit ReptileCs(const MethodConfig& cfg) : cfg_(cfg) {}

  std::string name() const override { return "Reptile"; }
  void MetaTrain(const std::vector<CsTask>& train_tasks) override;
  std::vector<std::vector<float>> PredictTask(const CsTask& task) override;

  // The parameters every test task adapts from (set by MetaTrain).
  const std::vector<float>& trained_parameters() const { return meta_params_; }

 private:
  MethodConfig cfg_;
  std::unique_ptr<QueryGnn> model_;
  std::vector<float> meta_params_;
};

}  // namespace cgnp

#endif  // CGNP_META_REPTILE_H_
