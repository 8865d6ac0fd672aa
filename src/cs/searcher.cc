#include "cs/searcher.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <utility>

#include "cs/acq.h"
#include "cs/atc.h"
#include "cs/ctc.h"
#include "cs/dynamic.h"
#include "cs/kclique_community.h"
#include "cs/kcore_community.h"
#include "cs/kecc_community.h"
#include "cs/ktruss_community.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cgnp {

// Defined in core/cgnp_searcher.cc; forward-declared (not included) so the
// registry stays free of a compile-time dependency on the learned engine.
SearcherFactory MakeCgnpSearcherFactory();

Status ValidateQueryInput(const Graph& g, NodeId query,
                          const std::vector<QueryExample>& labelled) {
  if (g.num_nodes() == 0) {
    return InvalidArgumentError("cannot search an empty graph");
  }
  // Per-id bounds go through the shared CheckNodeId gate (graph/graph.h),
  // the same one the delta mutation API uses -- one message, one code,
  // every layer.
  CGNP_RETURN_IF_ERROR(CheckNodeId(g, query, "query"));
  for (const auto& ex : labelled) {
    CGNP_RETURN_IF_ERROR(CheckNodeId(g, ex.query, "support"));
    for (NodeId v : ex.pos) {
      CGNP_RETURN_IF_ERROR(CheckNodeId(g, v, "support"));
    }
    for (NodeId v : ex.neg) {
      CGNP_RETURN_IF_ERROR(CheckNodeId(g, v, "support"));
    }
  }
  return Status::Ok();
}

namespace {

// The one adapter over every classical algorithm: validates input against
// the Graph handed to Search, times the call, and returns exactly the node
// set the algorithm returns (the acceptance contract for the registry).
// Classical membership is crisp, so `probs` stays empty; `labelled` is
// only validated (these algorithms cannot condition on supervision). The
// kcore / ktruss / kecc / ctc algorithms read the structural decomposition
// cached on the queried graph (Graph::Cores / Trusses), so only the first
// query on a graph pays for peeling it; kcore_inc / ktruss_inc answer from
// a DynamicCommunityIndex at its current version and may fail with its
// Status.
class ClassicalSearcher : public CommunitySearcher {
 public:
  using Algorithm =
      std::function<StatusOr<std::vector<NodeId>>(const Graph&, NodeId)>;

  ClassicalSearcher(std::string name, Algorithm algorithm)
      : name_(std::move(name)),
        algorithm_(std::move(algorithm)),
        search_ms_(&obs::MetricsRegistry::Default().GetHistogram(
            "cgnp_backend_search_ms", {{"backend", name_}})) {}

  const std::string& name() const override { return name_; }

  StatusOr<QueryResult> Search(const Graph& g, NodeId query,
                               const std::vector<QueryExample>& labelled,
                               const QueryOptions& options) const override {
    // A served classical answer reports this as its one depth-0 stage.
    CGNP_TRACE_SPAN("search");
    (void)options;
    CGNP_RETURN_IF_ERROR(ValidateQueryInput(g, query, labelled));
    QueryResult result;
    result.backend = name_;
    const auto start = std::chrono::steady_clock::now();
    CGNP_ASSIGN_OR_RETURN(result.members, algorithm_(g, query));
    const auto end = std::chrono::steady_clock::now();
    result.elapsed_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    search_ms_->Record(result.elapsed_ms);
    return result;
  }

 private:
  const std::string name_;
  const Algorithm algorithm_;
  // Per-backend elapsed-time histogram in the default registry (shared
  // family with the learned backend; see core/engine.cc).
  obs::Histogram* const search_ms_;
};

struct Registry {
  std::mutex mu;
  std::map<std::string, SearcherFactory> factories;
};

StatusOr<std::unique_ptr<CommunitySearcher>> MakeClassical(
    std::string name, ClassicalSearcher::Algorithm algorithm) {
  return std::unique_ptr<CommunitySearcher>(
      new ClassicalSearcher(std::move(name), std::move(algorithm)));
}

// "kcore_inc" / "ktruss_inc": `query` (DynamicCommunityIndex::
// KCoreCommunity or KTrussCommunity) on SearcherConfig::dynamic_index.
using IndexQuery = StatusOr<std::vector<NodeId>> (DynamicCommunityIndex::*)(
    NodeId, int64_t) const;
SearcherFactory IncrementalFactory(std::string name, IndexQuery query) {
  return [name = std::move(name), query](const SearcherConfig& cfg)
             -> StatusOr<std::unique_ptr<CommunitySearcher>> {
    if (cfg.dynamic_index == nullptr) {
      return InvalidArgumentError(
          "the \"" + name +
          "\" backend needs SearcherConfig::dynamic_index (a "
          "DynamicCommunityIndex over the served graph)");
    }
    return MakeClassical(name, [index = cfg.dynamic_index, query, k = cfg.k](
                                   const Graph&, NodeId q) {
      return ((*index).*query)(q, k);
    });
  };
}

// Explicit registration of the built-ins (static self-registration is
// unreliable from a static library: the linker may drop the translation
// unit). Runs once, under the registry lock acquired by the caller.
void RegisterBuiltins(Registry* registry) {
  auto add = [registry](const std::string& name, SearcherFactory factory) {
    registry->factories.emplace(name, std::move(factory));
  };
  add("kcore", [](const SearcherConfig& cfg) {
    return MakeClassical("kcore", [k = cfg.k](const Graph& g, NodeId q) {
      return KCoreCommunity(g, q, k, g.Cores());
    });
  });
  add("ktruss", [](const SearcherConfig& cfg) {
    return MakeClassical("ktruss", [k = cfg.k](const Graph& g, NodeId q) {
      return KTrussCommunity(g, q, k, g.Trusses());
    });
  });
  add("kclique", [](const SearcherConfig& cfg)
          -> StatusOr<std::unique_ptr<CommunitySearcher>> {
    KCliqueConfig kc;
    if (cfg.k > 0) {
      // k = 1 would trip the k >= 2 invariant inside the clique
      // enumerator; construction-time config is public input, so reject
      // it here instead.
      if (cfg.k < 2) {
        return InvalidArgumentError(
            "kclique needs k >= 2 (or -1 for the default), got " +
            std::to_string(cfg.k));
      }
      kc.k = cfg.k;
    }
    return MakeClassical("kclique", [kc](const Graph& g, NodeId q) {
      return KCliqueCommunity(g, q, kc);
    });
  });
  add("kecc", [](const SearcherConfig& cfg) {
    KEccConfig kc;
    kc.k = cfg.k;
    return MakeClassical("kecc", [kc](const Graph& g, NodeId q) {
      return KEccCommunity(g, q, kc, g.Cores());
    });
  });
  add("acq", [](const SearcherConfig& cfg) {
    AcqConfig ac;
    if (cfg.k > 0) ac.k = cfg.k;
    ac.max_attr_set = cfg.max_attr_set;
    return MakeClassical("acq", [ac](const Graph& g, NodeId q) {
      return AttributedCommunityQuery(g, q, ac);
    });
  });
  add("atc", [](const SearcherConfig& cfg) {
    AtcConfig ac;
    ac.k = cfg.k;
    ac.d = cfg.d;
    return MakeClassical("atc", [ac](const Graph& g, NodeId q) {
      return AttributedTrussCommunity(g, q, ac);
    });
  });
  add("ctc", [](const SearcherConfig& cfg) {
    CtcConfig cc;
    cc.k = cfg.k;
    return MakeClassical("ctc", [cc](const Graph& g, NodeId q) {
      return ClosestTrussCommunity(g, q, cc, g.Trusses());
    });
  });
  // Incremental backends answering from a shared DynamicCommunityIndex
  // (cs/dynamic.h) at its current version.
  add("kcore_inc", IncrementalFactory("kcore_inc",
                                      &DynamicCommunityIndex::KCoreCommunity));
  add("ktruss_inc", IncrementalFactory("ktruss_inc",
                                       &DynamicCommunityIndex::KTrussCommunity));
  // The learned backend lives in core/, above this layer; it contributes
  // its factory through the forward-declared hook.
  add("cgnp", MakeCgnpSearcherFactory());
}

Registry& GetRegistry() {
  static Registry* registry = [] {
    auto* r = new Registry();
    RegisterBuiltins(r);
    return r;
  }();
  return *registry;
}

}  // namespace

Status RegisterSearcherFactory(const std::string& name,
                               SearcherFactory factory) {
  if (name.empty()) {
    return InvalidArgumentError("backend name must be non-empty");
  }
  if (factory == nullptr) {
    return InvalidArgumentError("backend factory must be callable: " + name);
  }
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  const auto [it, inserted] =
      registry.factories.emplace(name, std::move(factory));
  (void)it;
  if (!inserted) {
    return InvalidArgumentError("backend already registered: " + name);
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<CommunitySearcher>> MakeSearcher(
    const std::string& name, const SearcherConfig& config) {
  SearcherFactory factory;
  {
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    const auto it = registry.factories.find(name);
    if (it == registry.factories.end()) {
      std::string known;
      for (const auto& [known_name, unused] : registry.factories) {
        (void)unused;
        if (!known.empty()) known += ", ";
        known += known_name;
      }
      return NotFoundError("unknown community-search backend \"" + name +
                           "\" (registered: " + known + ")");
    }
    factory = it->second;
  }
  // Invoke outside the lock: factories may do real work (load checkpoints).
  return factory(config);
}

std::vector<std::string> RegisteredSearcherNames() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<std::string> names;
  names.reserve(registry.factories.size());
  for (const auto& [name, unused] : registry.factories) {
    (void)unused;
    names.push_back(name);
  }
  return names;
}

bool IsSearcherRegistered(const std::string& name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.factories.count(name) > 0;
}

}  // namespace cgnp
