#include "meta/classical.h"

namespace cgnp {

ClassicalMethod ClassicalMethod::Atc(const AtcConfig& cfg) {
  return {"ATC", [cfg](const Graph& g, NodeId q) {
            return AttributedTrussCommunity(g, q, cfg);
          }};
}

ClassicalMethod ClassicalMethod::Acq(const AcqConfig& cfg) {
  return {"ACQ", [cfg](const Graph& g, NodeId q) {
            auto members = AttributedCommunityQuery(g, q, cfg);
            if (members.empty()) members = KCoreCommunity(g, q, cfg.k);
            return members;
          }};
}

ClassicalMethod ClassicalMethod::Ctc(const CtcConfig& cfg) {
  return {"CTC", [cfg](const Graph& g, NodeId q) {
            return ClosestTrussCommunity(g, q, cfg);
          }};
}

ClassicalMethod ClassicalMethod::KCore() {
  return {"k-core",
          [](const Graph& g, NodeId q) { return KCoreCommunity(g, q); }};
}

ClassicalMethod ClassicalMethod::KTruss() {
  return {"k-truss",
          [](const Graph& g, NodeId q) { return KTrussCommunity(g, q); }};
}

ClassicalMethod ClassicalMethod::KClique(const KCliqueConfig& cfg) {
  return {"k-clique", [cfg](const Graph& g, NodeId q) {
            auto members = KCliqueCommunity(g, q, cfg);
            if (members.empty()) members.push_back(q);
            return members;
          }};
}

ClassicalMethod ClassicalMethod::KEcc(const KEccConfig& cfg) {
  return {"k-ecc", [cfg](const Graph& g, NodeId q) {
            return KEccCommunity(g, q, cfg);
          }};
}

std::vector<std::vector<float>> ClassicalMethod::PredictTask(
    const CsTask& task) {
  std::vector<std::vector<float>> out;
  out.reserve(task.query.size());
  for (const auto& ex : task.query) {
    std::vector<float> probs(task.graph.num_nodes(), 0.0f);
    for (NodeId v : algorithm_(task.graph, ex.query)) probs[v] = 1.0f;
    out.push_back(std::move(probs));
  }
  return out;
}

}  // namespace cgnp
