// Model-Agnostic Meta-Learning (Finn et al. 2017) over the query GNN,
// first-order variant (FOMAML): the outer update uses the gradient of the
// query-set loss at the adapted parameters, skipping the second-order term.
// See docs/ARCHITECTURE.md "Substitutions"; Reptile (also first-order) is
// implemented separately and exactly.
#ifndef CGNP_META_MAML_H_
#define CGNP_META_MAML_H_

#include <memory>

#include "meta/query_gnn.h"

namespace cgnp {

class MamlCs : public CsMethod {
 public:
  explicit MamlCs(const MethodConfig& cfg) : cfg_(cfg) {}

  std::string name() const override { return "MAML"; }
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

#endif  // CGNP_META_MAML_H_
