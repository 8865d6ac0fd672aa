#include "cs/kcore_community.h"

#include "common/check.h"
#include "graph/algorithms.h"

namespace cgnp {

std::vector<NodeId> KCoreCommunity(const Graph& g, NodeId q, int64_t k) {
  return KCoreCommunity(g, q, k, ComputeCoreDecomposition(g));
}

std::vector<NodeId> KCoreCommunity(const Graph& g, NodeId q, int64_t k,
                                   const CoreDecomposition& cores) {
  CGNP_CHECK_GE(q, 0);  // NOLINT(cgnp-no-abort): validated precondition -- the registry adapter's ValidateQueryInput rejects this with Status before dispatch
  CGNP_CHECK_LT(q, g.num_nodes());  // NOLINT(cgnp-no-abort): validated precondition -- the registry adapter's ValidateQueryInput rejects this with Status before dispatch
  return KCoreCommunityIn(g, cores.core, q, k);
}

}  // namespace cgnp
