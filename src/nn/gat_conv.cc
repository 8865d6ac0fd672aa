#include "nn/gat_conv.h"

#include "tensor/gat_aggregate.h"
#include "tensor/ops.h"

namespace cgnp {

GatConv::GatConv(int64_t in_dim, int64_t out_dim, Rng* rng,
                 float negative_slope)
    : negative_slope_(negative_slope) {
  weight_ = RegisterParameter(GlorotWeight(in_dim, out_dim, rng));
  attn_src_ = RegisterParameter(GlorotWeight(out_dim, 1, rng));
  attn_dst_ = RegisterParameter(GlorotWeight(out_dim, 1, rng));
  bias_ = RegisterParameter(Tensor::Zeros({1, out_dim}, /*requires_grad=*/true));
}

Tensor GatConv::Forward(const Graph& g, const Tensor& x) const {
  // The projection, then one fused op that scores, normalises and
  // aggregates each destination's in-edges (tensor/gat_aggregate.h), in
  // training and serving alike. Bitwise deterministic per thread count at
  // any SIMD level (docs/KERNELS.md); under a WorkspaceScope (the serve
  // path) every intermediate is arena-allocated.
  const Graph::EdgeIndex& ei = g.AttentionEdges();
  Tensor h = MatMul(x, weight_);  // {n, out}
  return Add(GatAggregate(h, attn_src_, attn_dst_, ei.src, ei.seg_ptr,
                          negative_slope_),
             bias_);
}

}  // namespace cgnp
