// The composed GAT attention chain: what GatConv::Forward ran, op by op,
// before tensor/gat_aggregate.h fused it. GatAggregate and GatConv are
// pinned to it bitwise (tests/gat_aggregate_test.cc): forward output and
// every gradient, at each SIMD level and thread count.
#ifndef CGNP_TESTS_GAT_ORACLES_H_
#define CGNP_TESTS_GAT_ORACLES_H_

#include "graph/graph.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace cgnp {
namespace oracle {

// GatAggregate(h, attn_src, attn_dst, edges.src, edges.seg_ptr, slope),
// composed from the generic ops.
inline Tensor ComposedGatAggregate(const Tensor& h, const Tensor& attn_src,
                                   const Tensor& attn_dst,
                                   const Graph::EdgeIndex& edges,
                                   float negative_slope) {
  Tensor s_src = MatMul(h, attn_src);  // {n, 1}
  Tensor s_dst = MatMul(h, attn_dst);  // {n, 1}
  Tensor e = Add(IndexSelectRows(s_dst, edges.dst),
                 IndexSelectRows(s_src, edges.src));
  Tensor alpha = SegmentSoftmax(LeakyRelu(e, negative_slope), edges.seg_ptr);
  Tensor messages = Mul(IndexSelectRows(h, edges.src), alpha);  // {m, d}
  return SegmentSumRows(messages, edges.seg_ptr);
}

// GatConv::Forward over the composed chain, given the layer's parameters
// in registration order: weight {in,out}, attn_src {out,1}, attn_dst
// {out,1}, bias {1,out}.
inline Tensor ComposedGatConv(const Graph& g, const Tensor& x,
                              const Tensor& weight, const Tensor& attn_src,
                              const Tensor& attn_dst, const Tensor& bias,
                              float negative_slope = 0.2f) {
  Tensor h = MatMul(x, weight);
  return Add(ComposedGatAggregate(h, attn_src, attn_dst, g.AttentionEdges(),
                                  negative_slope),
             bias);
}

}  // namespace oracle
}  // namespace cgnp

#endif  // CGNP_TESTS_GAT_ORACLES_H_
