#include "cs/ktruss_community.h"

#include "common/check.h"
#include "graph/algorithms.h"

namespace cgnp {

std::vector<NodeId> KTrussCommunity(const Graph& g, NodeId q, int64_t k) {
  return KTrussCommunity(g, q, k, ComputeTrussDecomposition(g));
}

std::vector<NodeId> KTrussCommunity(const Graph& g, NodeId q, int64_t k,
                                    const TrussDecomposition& trusses) {
  CGNP_CHECK_GE(q, 0);  // NOLINT(cgnp-no-abort): validated precondition -- the registry adapter's ValidateQueryInput rejects this with Status before dispatch
  CGNP_CHECK_LT(q, g.num_nodes());  // NOLINT(cgnp-no-abort): validated precondition -- the registry adapter's ValidateQueryInput rejects this with Status before dispatch
  if (k < 0) k = MaxTrussOf(g, q, trusses);
  if (k <= 2 && g.Degree(q) == 0) return {q};
  return ConnectedKTrussContaining(g, q, k, trusses);
}

}  // namespace cgnp
