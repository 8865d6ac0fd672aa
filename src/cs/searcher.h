// Unified community-search backend interface and registry (API v1).
//
// The paper's pitch is that one query interface should serve many
// community models: the learned CGNP engine and the classical structural /
// attributed algorithms (k-core, k-truss, k-clique, k-ECC, ACQ, ATC, CTC)
// all answer the same question -- "which nodes form the community of q?" --
// so they share one interface here. Callers (QueryServer, benches,
// examples) select a backend *by registry name* at runtime:
//
//   auto searcher = MakeSearcher("ktruss");          // or "cgnp", "acq", ...
//   if (!searcher.ok()) { ... unknown backend ... }
//   auto result = (*searcher)->Search(g, q, /*labelled=*/{}, {});
//
// Built-in names: "kcore", "ktruss", "kclique", "kecc", "acq", "atc",
// "ctc", "kcore_inc" and "ktruss_inc" -- one classical adapter each over
// src/cs/, returning node sets identical to the direct calls; the last two
// answer from SearcherConfig::dynamic_index (a DynamicCommunityIndex, see
// cs/dynamic.h) at its current version -- and "cgnp" (the learned engine,
// restored from SearcherConfig::checkpoint; see core/cgnp_searcher.h to
// wrap an in-memory engine instead). New backends register through
// RegisterSearcherFactory.
//
// Error model: Search never aborts on bad input -- an empty graph or an
// out-of-range query id returns a non-OK Status; MakeSearcher returns
// NotFound for unknown names. See common/status.h and docs/API.md.
#ifndef CGNP_CS_SEARCHER_H_
#define CGNP_CS_SEARCHER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/tasks.h"
#include "graph/graph.h"

namespace cgnp {

class ContextCache;           // core/context_cache.h
class DynamicCommunityIndex;  // cs/dynamic.h

// Per-query knobs, interpreted by the backend.
struct QueryOptions {
  // Learned backends: membership-probability cut in [0, 1]. Ignored by the
  // classical algorithms (their membership is crisp).
  float threshold = 0.5f;
  // Learned backends: optional context cache (not owned). When set, the
  // encoded context is looked up under (graph_id, task fingerprint,
  // graph_version) and stored there on a miss -- a hit skips the encoder.
  // The ids name the request's graph and its version (see ContextCache);
  // they mean nothing without a cache. Classical backends ignore all three.
  ContextCache* cache = nullptr;
  uint64_t graph_id = 0;
  uint64_t graph_version = 0;
};

// One answered community-search query.
struct QueryResult {
  // Predicted members in the parent graph's node ids.
  std::vector<NodeId> members;
  // Membership probability aligned per member, when the backend scores
  // membership (the learned backends); empty for crisp backends.
  std::vector<float> probs;
  // Registry name of the backend that produced this result -- keeps bench
  // and serving output attributable per backend.
  std::string backend;
  // Wall-clock time spent answering, for per-backend timing stats.
  double elapsed_ms = 0.0;
  // The query consulted QueryOptions::cache (learned backends with a
  // cache), and whether the context came from it.
  bool cache_eligible = false;
  bool cache_hit = false;
};

// A community-search backend. Implementations must be safe for concurrent
// Search calls from multiple threads (the classical adapters are
// stateless; the CGNP adapter serves an eval-mode model, see the
// thread-safety contract in core/cgnp.h).
class CommunitySearcher {
 public:
  virtual ~CommunitySearcher() = default;

  // The backend's registry name ("kcore", "cgnp", ...).
  virtual const std::string& name() const = 0;

  // Answers the community of `query` in `g`. `labelled` optionally
  // supplies support observations in g's node ids; backends that cannot
  // condition on supervision ignore it (the classical algorithms).
  // Errors instead of aborting: empty graph or out-of-range node ids in
  // the query/support return InvalidArgument/OutOfRange.
  virtual StatusOr<QueryResult> Search(
      const Graph& g, NodeId query,
      const std::vector<QueryExample>& labelled,
      const QueryOptions& options) const = 0;
};

// Construction-time knobs a factory may consume. One flat struct rather
// than per-backend types so backends stay selectable from generic code
// (flags, serving configs) without a switch per name.
struct SearcherConfig {
  // Structural parameter for the classical backends (k-core k, k-truss k,
  // clique size, edge connectivity, ...); -1 lets each algorithm pick its
  // maximal feasible value, matching the src/cs/ defaults.
  int64_t k = -1;
  // ACQ: maximum attribute-set cardinality explored.
  int64_t max_attr_set = 2;
  // ATC: hop bound around the query node.
  int64_t d = 3;
  // "cgnp": engine checkpoint to restore (required by the registered
  // factory; wrap an in-memory engine with MakeCgnpSearcher instead).
  std::string checkpoint;
  // "kcore_inc" / "ktruss_inc": the incremental index those backends
  // answer from, at its current version (required by them, InvalidArgument
  // when absent; ignored by every other backend). Shared: many searchers
  // may point at one index while edits keep flowing into it. Their Search
  // validates the request against the Graph it is handed, like every
  // backend, so that Graph must have the index's node count (a snapshot
  // of the index, as DynamicGraphServer passes).
  std::shared_ptr<DynamicCommunityIndex> dynamic_index;
};

using SearcherFactory =
    std::function<StatusOr<std::unique_ptr<CommunitySearcher>>(
        const SearcherConfig&)>;

// Registers a backend under `name`. Returns InvalidArgument when the name
// is already taken (built-ins included). Thread-safe.
Status RegisterSearcherFactory(const std::string& name,
                               SearcherFactory factory);

// Instantiates the backend registered under `name`; NotFound (listing the
// registered names) for unknown ones. Thread-safe.
StatusOr<std::unique_ptr<CommunitySearcher>> MakeSearcher(
    const std::string& name, const SearcherConfig& config = {});

// Sorted names of every registered backend (built-ins always included).
std::vector<std::string> RegisteredSearcherNames();
bool IsSearcherRegistered(const std::string& name);

// Shared range validation for a query and its support observations
// against `g` -- the single source of truth used by the classical
// adapters and by BuildQueryTask (core/engine_query.cc), so every backend
// rejects the same malformed request the same way: InvalidArgument for
// an empty graph, OutOfRange for node ids outside [0, num_nodes).
Status ValidateQueryInput(const Graph& g, NodeId query,
                          const std::vector<QueryExample>& labelled);

}  // namespace cgnp

#endif  // CGNP_CS_SEARCHER_H_
