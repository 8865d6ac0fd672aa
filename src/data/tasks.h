// Community-search tasks (Section III of the paper).
//
// A task T = (G, Q, L) is a (sub)graph G, a support set of query nodes with
// partial ground-truth (positive / negative sample lists), and a query set
// of held-out queries used for loss computation during meta-training and
// for evaluation at test time. Four task regimes are supported, matching
// Section VII-A:
//   SGSC - Single Graph, Shared Communities
//   SGDC - Single Graph, Disjoint Communities (train/test community split)
//   MGOD - Multiple Graphs, One Domain (e.g. 10 Facebook ego-nets, 6/2/2)
//   MGDD - Multiple Graphs, Different Domains (train on A, test on B)
//
// Task graphs carry dense features [one-hot attributes || core-number ||
// local-clustering-coefficient], the exact feature recipe of Section VII-A.
#ifndef CGNP_DATA_TASKS_H_
#define CGNP_DATA_TASKS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "tensor/rng.h"

namespace cgnp {

// One labelled query: the query node, its partial ground truth (pos / neg
// sample node ids), and the full ground-truth membership used only for
// evaluation metrics.
struct QueryExample {
  NodeId query = -1;
  std::vector<NodeId> pos;
  std::vector<NodeId> neg;
  std::vector<char> truth;  // size = task-graph nodes; 1 = same community
};

struct CsTask {
  Graph graph;
  std::vector<QueryExample> support;
  std::vector<QueryExample> query;
};

enum class TaskRegime { kSgsc, kSgdc, kMgod, kMgdd };

const char* TaskRegimeName(TaskRegime r);

struct TaskConfig {
  int64_t subgraph_size = 200;  // BFS sample size per task
  int64_t shots = 1;            // support queries per task (1-shot / 5-shot)
  int64_t query_set_size = 30;  // held-out queries per task
  int64_t pos_samples = 5;      // positive ground-truth samples per query
  int64_t neg_samples = 10;     // negative ground-truth samples per query
  // When true, queries whose community/complement cannot supply the full
  // pos/neg budgets are kept with as many samples as exist (>= 1 each)
  // instead of being rejected. Used by the Fig. 5 ground-truth-ratio sweep,
  // whose largest budgets exceed any community's size by design.
  bool clamp_samples = false;
};

struct TaskSplit {
  std::vector<CsTask> train;
  std::vector<CsTask> valid;
  std::vector<CsTask> test;
};

// Smallest one-hot width that covers every attribute id in g (0 when g has
// no attributes): the `attribute_dim` the task builders need for g.
int64_t AttributeDim(const Graph& g);

// Returns `sub` with its feature matrix replaced by the Section VII-A
// features; its CSR, attributes and labels are kept as they are. Task
// factories and BuildQueryTask move their subgraph in. The attribute
// one-hot block has `attribute_dim` columns (0 for non-attributed
// datasets); two structural columns (normalised core number, clustering
// coefficient) are always appended.
Graph AttachTaskFeatures(Graph sub, int64_t attribute_dim);

// Samples one task from `g`: BFS subgraph, queries restricted to
// communities flagged in `allowed` (empty = all communities allowed).
// Returns false when no valid task can be drawn (e.g. all sampled
// communities too small for pos_samples).
bool SampleTask(const Graph& g, const TaskConfig& cfg,
                const std::vector<char>& allowed, int64_t attribute_dim,
                Rng* rng, CsTask* out);

// SGSC / SGDC factories over one data graph.
TaskSplit MakeSingleGraphTasks(const Graph& g, TaskRegime regime,
                               const TaskConfig& cfg, int64_t num_train,
                               int64_t num_valid, int64_t num_test, Rng* rng);

// MGOD: one task per data graph; graphs split 60/20/20 into train/valid/test.
TaskSplit MakeMultiGraphTasks(const std::vector<Graph>& graphs,
                              const TaskConfig& cfg, Rng* rng);

// MGDD: train/valid tasks from `train_graph`'s dataset, test tasks from
// `test_graph`'s (e.g. Citeseer -> Cora).
TaskSplit MakeCrossDatasetTasks(const Graph& train_graph,
                                const Graph& test_graph, const TaskConfig& cfg,
                                int64_t num_train, int64_t num_valid,
                                int64_t num_test, Rng* rng);

}  // namespace cgnp

#endif  // CGNP_DATA_TASKS_H_
