// The serve request path of the cgnp engine: the per-request task build
// and CommunitySearchEngine::Query. It has its own translation unit so the
// compiler's inlining here does not move when training code (Fit, in
// engine.cc) changes.
#include "core/engine.h"

#include <chrono>
#include <string>
#include <utility>

#include "core/context_cache.h"
#include "graph/sampling.h"
#include "obs/trace.h"
#include "tensor/workspace.h"

namespace cgnp {

StatusOr<LocalQueryTask> BuildQueryTask(
    const Graph& g, NodeId query, const std::vector<QueryExample>& labelled,
    const TaskConfig& tasks, int64_t attribute_dim, uint64_t seed) {
  // Queries and support observations arrive from external callers (serving
  // requests), so they are range-checked rather than trusted -- with the
  // same validator every registry backend uses.
  CGNP_RETURN_IF_ERROR(ValidateQueryInput(g, query, labelled));
  if (tasks.subgraph_size <= 0) {
    return InvalidArgumentError("task subgraph_size must be positive, got " +
                                std::to_string(tasks.subgraph_size));
  }
  CGNP_TRACE_SPAN("task_build");

  LocalQueryTask out;
  Rng rng(seed ^ static_cast<uint64_t>(query + 1));
  out.nodes = BfsSample(g, query, tasks.subgraph_size, &rng);
  // The query (BFS seed) is nodes[0]; map ids.
  std::vector<NodeId> new_of_old;
  out.graph = AttachTaskFeatures(InducedSubgraph(g, out.nodes, &new_of_old),
                                 attribute_dim);
  out.query = new_of_old[query];

  // Remap user-provided support observations into the task subgraph.
  for (const auto& ex : labelled) {
    if (new_of_old[ex.query] < 0) continue;
    QueryExample local;
    local.query = new_of_old[ex.query];
    for (NodeId v : ex.pos) {
      if (new_of_old[v] >= 0) local.pos.push_back(new_of_old[v]);
    }
    for (NodeId v : ex.neg) {
      if (new_of_old[v] >= 0) local.neg.push_back(new_of_old[v]);
    }
    out.support.push_back(std::move(local));
  }
  if (out.support.empty()) {
    // Zero-shot: condition on the query alone.
    QueryExample self;
    self.query = out.query;
    out.support.push_back(std::move(self));
  }
  return out;
}

std::vector<NodeId> MembersFromContext(const CgnpModel& model,
                                       const LocalQueryTask& task,
                                       const Tensor& context, float threshold,
                                       std::vector<float>* member_probs) {
  CGNP_TRACE_SPAN("decode");
  Tensor logits = model.QueryLogits(task.graph, context, task.query, nullptr);
  const std::vector<float> probs = SigmoidValues(logits);
  std::vector<NodeId> members;
  for (size_t i = 0; i < probs.size(); ++i) {
    if (probs[i] >= threshold ||
        static_cast<NodeId>(i) == task.query) {
      members.push_back(task.nodes[i]);
      if (member_probs != nullptr) member_probs->push_back(probs[i]);
    }
  }
  return members;
}

StatusOr<QueryResult> CommunitySearchEngine::Query(
    const Graph& g, NodeId query, const std::vector<QueryExample>& labelled,
    const QueryOptions& options) const {
  if (!trained()) {
    return FailedPreconditionError(
        "engine is not trained: call Fit or restore a trained checkpoint "
        "before querying");
  }
  // NaN fails both comparisons, so the negated form rejects it too.
  if (!(options.threshold >= 0.0f && options.threshold <= 1.0f)) {
    return InvalidArgumentError("threshold must be in [0, 1], got " +
                                std::to_string(options.threshold));
  }
  const auto start = std::chrono::steady_clock::now();
  CGNP_ASSIGN_OR_RETURN(
      LocalQueryTask task,
      BuildQueryTask(g, query, labelled, options_.tasks, attribute_dim_,
                     options_.seed));
  if (task.graph.feature_dim() != feature_dim_) {
    return InvalidArgumentError(
        "query graph features incompatible with the fitted model: task "
        "feature_dim " + std::to_string(task.graph.feature_dim()) +
        " vs model " + std::to_string(feature_dim_));
  }

  // Inference only: never record tape (see the thread-safety contract on
  // CgnpModel's const methods in core/cgnp.h).
  NoGradGuard no_grad;
  // Decode intermediates live in this thread's arena; `context` (declared
  // after the scope) is destroyed before the arena resets. No-op when a
  // serving layer already opened a scope for this request.
  WorkspaceScope workspace;
  QueryResult result;
  result.backend = "cgnp";
  Tensor context;
  ContextCache::Key key;
  if (options.cache != nullptr) {
    CGNP_TRACE_SPAN("cache_lookup");
    key = {options.graph_id, TaskFingerprint(task), options.graph_version};
    result.cache_eligible = true;
    result.cache_hit = options.cache->Get(key, &context);
  }
  if (!result.cache_hit) {
    CGNP_TRACE_SPAN("encode");
    context = model_->TaskContext(task.graph, task.support, nullptr);
    // Record which parent nodes the context depends on (the task's
    // subgraph) so graph updates invalidate by overlap, not wholesale.
    if (options.cache != nullptr) options.cache->Put(key, context, task.nodes);
  }
  result.members = MembersFromContext(*model_, task, context,
                                      options.threshold, &result.probs);
  {
    // Freeing the task (subgraph rows, features, one attribute set per
    // node, the views encode built) is request work too: give it a stage.
    CGNP_TRACE_SPAN("task_release");
    const LocalQueryTask released = std::move(task);
  }
  const auto end = std::chrono::steady_clock::now();
  result.elapsed_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  search_ms_->Record(result.elapsed_ms);
  return result;
}

}  // namespace cgnp
