// Uniform interface for every community-search method in the benchmark
// suite (classical algorithms, learned baselines and CGNP), plus the shared
// hyper-parameter block and the evaluation harness.
#ifndef CGNP_META_METHOD_H_
#define CGNP_META_METHOD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/metrics.h"
#include "data/tasks.h"
#include "nn/gnn_stack.h"

namespace cgnp {

// Hyper-parameters shared by the learned methods. Defaults follow
// Section VII-A (GAT, 3 layers, dropout 0.2, Adam 5e-4) with the hidden
// width scaled for CPU (see docs/ARCHITECTURE.md "Substitutions").
struct MethodConfig {
  GnnKind gnn = GnnKind::kGat;
  int64_t hidden_dim = 64;
  int64_t num_layers = 3;
  float dropout = 0.2f;

  float lr = 5e-4f;             // Adam learning rate (meta and per-task)
  int64_t meta_epochs = 30;     // passes over the training task set
  int64_t per_task_epochs = 60; // from-scratch training (Supervised etc.)

  // MAML / Reptile loop controls (paper: 10 train steps, 20 test steps,
  // inner 5e-4, outer 1e-3).
  int64_t inner_steps_train = 10;
  int64_t inner_steps_test = 20;
  float inner_lr = 5e-4f;
  float outer_lr = 1e-3f;

  // ICS-GNN: size of the extracted community subgraph.
  int64_t ics_community_size = 30;

  uint64_t seed = 1;
};

// A community-search method: optionally meta-/pre-trained on a task set,
// then queried per test task. Implementations must be deterministic given
// the MethodConfig seed.
class CsMethod {
 public:
  virtual ~CsMethod() = default;

  virtual std::string name() const = 0;

  // Meta- or pre-training over the training tasks. Methods that train from
  // scratch per task (Supervised, ICS-GNN, AQD-GNN, classical algorithms)
  // implement this as a no-op.
  virtual void MetaTrain(const std::vector<CsTask>& train_tasks) = 0;

  // Adapts to the task's support set and predicts membership probabilities
  // (one vector of graph-size scores per query example, aligned with
  // task.query order).
  virtual std::vector<std::vector<float>> PredictTask(const CsTask& task) = 0;
};

// Runs PredictTask over every test task and averages per-query metrics.
EvalStats EvaluateMethod(CsMethod* method, const std::vector<CsTask>& tasks);

// Formats an EvalStats row like the paper's tables.
std::string FormatStatsRow(const std::string& method, const EvalStats& s);

}  // namespace cgnp

#endif  // CGNP_META_METHOD_H_
