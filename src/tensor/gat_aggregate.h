// Fused GAT attention aggregation (Velickovic et al., ICLR 2018), one
// head. For every destination node v and each of its in-edges e = (u, v):
//   s_src = h * attn_src,  s_dst = h * attn_dst                 ({n,1})
//   alpha_e = softmax over v's in-edges of LeakyReLU(s_dst[v] + s_src[u])
//   out[v]  = sum_e alpha_e * h[u]
// One pass per destination segment scores its edges, normalises them and
// accumulates the weighted rows; the {m,1} scores and the {m,d} messages
// of the unfused form are never materialised.
//
// Bitwise contract (docs/KERNELS.md "Determinism contract"): the output and
// every gradient (h, attn_src, attn_dst) are bit for bit what the composed
// chain computes, at each SIMD level and any thread count:
//   s_src = MatMul(h, attn_src); s_dst = MatMul(h, attn_dst);
//   e = Add(IndexSelectRows(s_dst, dst), IndexSelectRows(s_src, src));
//   alpha = SegmentSoftmax(LeakyRelu(e, slope), seg_ptr);
//   out = SegmentSumRows(Mul(IndexSelectRows(h, src), alpha), seg_ptr).
// tests/gat_oracles.h keeps that chain as the reference.
//
// The attention mat-vecs are part of the op, not inputs: h's gradient is a
// sum whose order decides its bits, and the chain adds the two mat-vec
// terms before the message terms. Only a node that owns all three can add
// them in that order (the tape runs a consumer's backward before its
// inputs').
#ifndef CGNP_TENSOR_GAT_AGGREGATE_H_
#define CGNP_TENSOR_GAT_AGGREGATE_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace cgnp {

// h is {n,d}; attn_src and attn_dst are {d,1}. Edges are grouped by
// destination: those in [seg_ptr[v], seg_ptr[v+1]) point into v, and
// src[e] is the source of edge e (Graph::AttentionEdges() lays them out
// this way). Empty segments give a zero row. Returns {n,d}.
//
// The backward closure, with its copies of src and seg_ptr, is built only
// when the tape records; a forward under NoGradGuard inside a
// WorkspaceScope makes no heap allocation.
Tensor GatAggregate(const Tensor& h, const Tensor& attn_src,
                    const Tensor& attn_dst, const std::vector<int64_t>& src,
                    const std::vector<int64_t>& seg_ptr,
                    float negative_slope);

}  // namespace cgnp

#endif  // CGNP_TENSOR_GAT_AGGREGATE_H_
