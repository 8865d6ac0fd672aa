// The classical community-search algorithms as CsMethods, so the benchmark
// harness can evaluate them alongside the learned methods. They ignore
// ground truth entirely and output 0/1 memberships.
#ifndef CGNP_META_CLASSICAL_H_
#define CGNP_META_CLASSICAL_H_

#include <functional>
#include <string>

#include "cs/acq.h"
#include "cs/atc.h"
#include "cs/ctc.h"
#include "cs/kclique_community.h"
#include "cs/kcore_community.h"
#include "cs/kecc_community.h"
#include "cs/ktruss_community.h"
#include "meta/method.h"

namespace cgnp {

// A display name plus the algorithm answering one query. The named
// constructors call the src/cs functions directly on the task graph (no
// graph-cached decompositions, unlike the served registry backends in
// cs/searcher.cc), so their timings cover the whole search.
class ClassicalMethod : public CsMethod {
 public:
  using Algorithm = std::function<std::vector<NodeId>(const Graph&, NodeId)>;

  ClassicalMethod(std::string name, Algorithm algorithm)
      : name_(std::move(name)), algorithm_(std::move(algorithm)) {}

  static ClassicalMethod Atc(const AtcConfig& cfg = {});
  // Falls back to the k-core community when no attributed community
  // exists. The benches skip ACQ on non-attributed graphs, as the paper
  // does.
  static ClassicalMethod Acq(const AcqConfig& cfg = {});
  static ClassicalMethod Ctc(const CtcConfig& cfg = {});
  // Plain structural baselines (used in the examples and ablations).
  static ClassicalMethod KCore();
  static ClassicalMethod KTruss();
  // Falls back to {q} when q is in no k-clique community.
  static ClassicalMethod KClique(const KCliqueConfig& cfg = {});
  static ClassicalMethod KEcc(const KEccConfig& cfg = {});

  std::string name() const override { return name_; }
  void MetaTrain(const std::vector<CsTask>&) override {}
  std::vector<std::vector<float>> PredictTask(const CsTask& task) override;

 private:
  std::string name_;
  Algorithm algorithm_;
};

}  // namespace cgnp

#endif  // CGNP_META_CLASSICAL_H_
