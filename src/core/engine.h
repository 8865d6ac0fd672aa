// High-level facade: train a CGNP meta model on a labelled data graph and
// answer community-search queries on it. This is the quickstart-level API
// the examples use; benchmark code drives the lower-level pieces directly.
//
// API v1 (see docs/API.md):
//   * construction goes through the fluent EngineBuilder, which validates
//     the configuration and returns StatusOr<CommunitySearchEngine>;
//   * every method reachable with user input (Fit, Query, checkpoint
//     save/load) returns Status/StatusOr instead of aborting --
//     CGNP_CHECK remains only for internal invariants;
//   * the engine is also reachable through the backend registry as "cgnp"
//     (cs/searcher.h, core/cgnp_searcher.h), side by side with the
//     classical algorithms.
#ifndef CGNP_CORE_ENGINE_H_
#define CGNP_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cgnp.h"
#include "cs/searcher.h"
#include "data/tasks.h"

namespace cgnp {

namespace obs {
class Histogram;
}  // namespace obs

// A community-search query materialised as a self-contained local task:
// the BFS subgraph around the query with the Section VII-A feature matrix
// attached, support observations remapped into local ids, and the map back
// to the parent graph's ids. CommunitySearchEngine::Query builds every
// learned query through this -- direct calls and served requests alike.
struct LocalQueryTask {
  Graph graph;                  // feature-attached task subgraph
  std::vector<NodeId> nodes;    // local id -> parent graph id
  NodeId query = -1;            // local id of the query node
  // Support in local ids; never empty (falls back to the zero-shot
  // self-observation when no labelled example survives the remap).
  std::vector<QueryExample> support;
};

// Deterministic given (g, query, seed): the BFS sample draws from an rng
// seeded with `seed ^ (query + 1)`, so repeated calls -- from any thread --
// materialise the same task. Labelled examples whose nodes fall outside
// the sampled subgraph are dropped (entirely, when the query itself does).
// Node ids outside [0, g.num_nodes()) -- in the query or in the support
// observations -- and empty graphs return a non-OK Status (these arrive
// straight from serving requests and must never abort the process).
StatusOr<LocalQueryTask> BuildQueryTask(
    const Graph& g, NodeId query, const std::vector<QueryExample>& labelled,
    const TaskConfig& tasks, int64_t attribute_dim, uint64_t seed);

// The decode half of Query: one decoder pass over
// the task given its context, sigmoid, then the membership rule (prob >=
// threshold, query always included). Returns members in the parent
// graph's ids; when `member_probs` is non-null it receives the matching
// per-member probability.
std::vector<NodeId> MembersFromContext(const CgnpModel& model,
                                       const LocalQueryTask& task,
                                       const Tensor& context, float threshold,
                                       std::vector<float>* member_probs =
                                           nullptr);

class CommunitySearchEngine {
 public:
  struct Options {
    CgnpConfig model;
    TaskConfig tasks;
    int64_t num_train_tasks = 40;
    // When > 0, this many extra tasks are sampled for validation and
    // meta-training uses early stopping with best-snapshot selection
    // (CgnpMetaTrainLoop).
    int64_t num_valid_tasks = 0;
    int64_t early_stop_patience = 10;
    uint64_t seed = 7;
  };

  // Direct construction does not validate `options`; prefer EngineBuilder,
  // which does (and is the documented v1 entry point).
  explicit CommunitySearchEngine(Options options);

  // Samples training tasks from the labelled graph and meta-trains the
  // model. Errors when `g` carries no ground-truth communities or when the
  // task configuration cannot sample a single task from it. On return the
  // pages training freed are handed back to the OS (glibc's malloc_trim),
  // so a process that fits and then serves does not keep them resident.
  Status Fit(const Graph& g);

  // Answers a community-search query on (a BFS neighborhood of) `g`.
  // `labelled` optionally supplies user-provided support observations in
  // g's node ids; when empty, a single self-observation (the query node
  // with no further positives) conditions the context -- the zero-shot
  // setting. Returns members plus aligned membership probabilities and
  // timing; FailedPrecondition before Fit/load, OutOfRange for bad node
  // ids, InvalidArgument for a bad threshold. With options.cache set, the
  // encoded context is memoised there (core/context_cache.h): a hit skips
  // the encoder and returns bit-identical members and probs.
  StatusOr<QueryResult> Query(const Graph& g, NodeId query,
                              const std::vector<QueryExample>& labelled = {},
                              const QueryOptions& options = {}) const;

  // Persists the engine (options + attribute/feature dims + the trained
  // model, when present) so a model trains once and serves forever.
  // Versioned binary format built on core/checkpoint.h.
  Status SaveCheckpoint(const std::string& path) const;
  // Restores an engine saved with SaveCheckpoint in a fresh process; a
  // restored trained engine answers Query without re-Fitting. NotFound
  // for a missing file, DataLoss for a foreign, corrupt,
  // version-mismatched or truncated one. Also reachable as
  // EngineBuilder().FromCheckpoint(path).Build().
  static StatusOr<CommunitySearchEngine> LoadCheckpoint(
      const std::string& path);

  bool trained() const { return model_ != nullptr; }
  const CgnpModel* model() const { return model_.get(); }
  const Options& options() const { return options_; }
  int64_t attribute_dim() const { return attribute_dim_; }
  int64_t feature_dim() const { return feature_dim_; }

 private:
  Options options_;
  std::unique_ptr<CgnpModel> model_;
  int64_t feature_dim_ = 0;
  int64_t attribute_dim_ = 0;
  // cgnp_backend_search_ms, resolved at construction so no request pays
  // the registry lookup.
  obs::Histogram* search_ms_ = nullptr;
};

// Configuration validation shared by EngineBuilder::Build and tests;
// InvalidArgument naming the offending field when `options` cannot
// produce a trainable engine.
Status ValidateEngineOptions(const CommunitySearchEngine::Options& options);

// Fluent, validating construction -- the v1 replacement for filling in a
// bare Options struct:
//
//   CGNP_ASSIGN_OR_RETURN(
//       CommunitySearchEngine engine,
//       EngineBuilder().WithModel(model_cfg).WithTasks(task_cfg)
//                      .WithSeed(7).Build());
//
// or, restoring a previously trained engine through the same entry point:
//
//   auto restored = EngineBuilder().FromCheckpoint("model.ckpt").Build();
//
// Build() validates the assembled configuration (ValidateEngineOptions)
// and returns InvalidArgument instead of constructing an engine that
// would misbehave later. FromCheckpoint is exclusive with the other
// setters: the checkpoint stores the full configuration.
class EngineBuilder {
 public:
  EngineBuilder() = default;

  EngineBuilder& WithModel(const CgnpConfig& cfg);
  EngineBuilder& WithTasks(const TaskConfig& cfg);
  EngineBuilder& WithTrainTasks(int64_t num_train_tasks);
  // Enables validation-based early stopping during Fit.
  EngineBuilder& WithValidation(int64_t num_valid_tasks,
                                int64_t early_stop_patience = 10);
  EngineBuilder& WithSeed(uint64_t seed);
  EngineBuilder& FromCheckpoint(std::string path);

  StatusOr<CommunitySearchEngine> Build() const;

 private:
  CommunitySearchEngine::Options options_;
  std::string checkpoint_path_;
  bool any_setter_called_ = false;
};

}  // namespace cgnp

#endif  // CGNP_CORE_ENGINE_H_
