#include "graph/decomposition.h"

#include <chrono>
#include <limits>

#include "common/check.h"
#include "graph/algorithms.h"
#include "obs/metrics.h"

namespace cgnp {

namespace {

// Core and truss numbers are bounded by the maximum degree, so they only
// overflow int32 on a node with more than 2^31 neighbours.
int32_t Narrow(int64_t v) {
  CGNP_CHECK_LE(v, std::numeric_limits<int32_t>::max());
  return static_cast<int32_t>(v);
}

// Builds one part of a Graph's cached decomposition and records the build
// in the default registry, so a server can tell where its first classical
// query's latency went.
template <typename Part>
Part RecordedBuild(const char* part, Part (*compute)(const Graph&),
                   const Graph& g) {
  const auto start = std::chrono::steady_clock::now();
  Part value = compute(g);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  auto& registry = obs::MetricsRegistry::Default();
  const obs::Labels labels = {{"part", part}};
  registry.GetCounter("cgnp_graph_decomposition_builds_total", labels)
      .Increment();
  registry.GetHistogram("cgnp_graph_decomposition_build_ms", labels)
      .Record(ms);
  return value;
}

}  // namespace

CoreDecomposition ComputeCoreDecomposition(const Graph& g) {
  const std::vector<int64_t> core = CoreNumbers(g);
  CoreDecomposition d;
  d.core.reserve(core.size());
  for (const int64_t c : core) d.core.push_back(Narrow(c));
  return d;
}

TrussDecomposition ComputeTrussDecomposition(const Graph& g) {
  const EdgeList el = BuildEdgeList(g);
  const std::vector<int64_t> truss = TrussNumbers(g, el);
  TrussDecomposition d;
  d.truss.reserve(el.edge_of_pos.size());
  for (const int64_t e : el.edge_of_pos) d.truss.push_back(Narrow(truss[e]));
  return d;
}

const CoreDecomposition& Graph::Cores() const {
  return cores_.Get([this] {
    return RecordedBuild("core", ComputeCoreDecomposition, *this);
  });
}

const TrussDecomposition& Graph::Trusses() const {
  return trusses_.Get([this] {
    return RecordedBuild("truss", ComputeTrussDecomposition, *this);
  });
}

}  // namespace cgnp
