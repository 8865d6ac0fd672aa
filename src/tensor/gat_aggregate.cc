#include "tensor/gat_aggregate.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "tensor/simd.h"

namespace cgnp {

namespace {

// What backward needs beyond the parents (h, attn_src, attn_dst). Built
// only when the tape records.
struct GatTape {
  std::vector<int64_t> src;
  std::vector<int64_t> seg_ptr;
  FloatVec s_src;  // {n} attention logits
  FloatVec s_dst;  // {n}
  FloatVec alpha;  // {m} attention weights
  float negative_slope = 0.0f;
};

// Segment grain: a segment costs about (average in-degree) * d.
int64_t SegmentGrain(int64_t n, int64_t m, int64_t d) {
  return GrainForWork((m / std::max<int64_t>(1, n) + 1) * d);
}

// s[i] += h[i] . attn with the gemm_row call MatMul(h, attn) makes per
// row, so s is that MatMul's output bit for bit. (A kernel that ran rows
// side by side would have to copy how the compiler vectorised
// gemm_row's one-column tail, which mixes rounded products and FMAs.)
void AttentionLogits(const simd::SimdKernels* K, int64_t n, int64_t d,
                     const float* h, const float* attn, float* s) {
  ParallelFor(0, n, GrainForWork(d), [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) K->gemm_row(1, d, h + i * d, attn, s + i);
  });
}

// Gradient of one attention vector, as MatMul(h, attn)'s backward computes
// it: grad[i] += sum over nodes p of h[p][i] * ds[p], one axpy kernel call
// per nonzero h entry, rows of grad split across chunks.
void AttentionGrad(const simd::SimdKernels* K, int64_t n, int64_t d,
                   const float* h, const float* ds, float* grad) {
  ParallelFor(0, d, GrainForWork(n), [=](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      for (int64_t p = 0; p < n; ++p) {
        const float av = h[p * d + i];
        if (av == 0.0f) continue;
        K->axpy(1, av, ds + p, grad + i);
      }
    }
  });
}

// The composed chain's backward, step for step, without its {m,d}
// buffers. A "0.0f +" stands for the chain's accumulation into a zeroed
// gradient buffer (it turns -0 into +0).
void GatBackward(const GatTape& t, TensorImpl& self) {
  TensorImpl& h = *self.parents[0];
  TensorImpl& attn_src = *self.parents[1];
  TensorImpl& attn_dst = *self.parents[2];
  const int64_t n = h.shape[0], d = h.shape[1];
  const int64_t m = static_cast<int64_t>(t.src.size());
  const float* hd = h.data.data();
  const float* g = self.grad.data();
  const int64_t* src = t.src.data();
  const int64_t* seg = t.seg_ptr.data();
  const float* alpha = t.alpha.data();
  const float* s_src = t.s_src.data();
  const float* s_dst = t.s_dst.data();
  const float slope = t.negative_slope;
  const simd::SimdKernels* K = &simd::Kernels();

  // Per edge, the gradient of its raw score s_dst[v] + s_src[u]: Mul's
  // alpha gradient (h[u] . g[v], in column order), then SegmentSoftmax's
  // and LeakyRelu's backward. Per node, s_dst's gradient: the sum of its
  // segment's edges in edge order. Segments own their edges, so they
  // split across chunks.
  FloatVec de(static_cast<size_t>(m));
  FloatVec ds_dst(static_cast<size_t>(n));
  float* de_p = de.data();
  float* ds_dst_p = ds_dst.data();
  ParallelFor(0, n, SegmentGrain(n, m, d), [=](int64_t v_lo, int64_t v_hi) {
    for (int64_t v = v_lo; v < v_hi; ++v) {
      const int64_t lo = seg[v], hi = seg[v + 1];
      const float* gv = g + v * d;
      // Four edges' dot products side by side: independent chains, each
      // still summed in column order.
      int64_t e4 = lo;
      for (; e4 + 4 <= hi; e4 += 4) {
        const float* h0 = hd + src[e4] * d;
        const float* h1 = hd + src[e4 + 1] * d;
        const float* h2 = hd + src[e4 + 2] * d;
        const float* h3 = hd + src[e4 + 3] * d;
        float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
        for (int64_t j = 0; j < d; ++j) {
          a0 += h0[j] * gv[j];
          a1 += h1[j] * gv[j];
          a2 += h2[j] * gv[j];
          a3 += h3[j] * gv[j];
        }
        de_p[e4] = a0;
        de_p[e4 + 1] = a1;
        de_p[e4 + 2] = a2;
        de_p[e4 + 3] = a3;
      }
      for (int64_t e = e4; e < hi; ++e) {
        const float* hu = hd + src[e] * d;
        float acc = 0.0f;
        for (int64_t j = 0; j < d; ++j) acc += hu[j] * gv[j];
        de_p[e] = acc;
      }
      float dot = 0.0f;
      for (int64_t e = lo; e < hi; ++e) dot += de_p[e] * alpha[e];
      float acc_dst = 0.0f;
      for (int64_t e = lo; e < hi; ++e) {
        const float dlr = 0.0f + alpha[e] * (de_p[e] - dot);
        const float score = s_dst[v] + s_src[src[e]];
        de_p[e] = 0.0f + (score > 0 ? 1.0f : slope) * dlr;
        acc_dst += de_p[e];
      }
      ds_dst_p[v] = acc_dst;
    }
  });
  // s_src's gradient: a scatter in edge order (sources repeat), serial.
  FloatVec ds_src(static_cast<size_t>(n));
  for (int64_t e = 0; e < m; ++e) ds_src[src[e]] += de_p[e];

  if (h.requires_grad) {
    h.EnsureGrad();
    float* hg = h.grad.data();
    const float* as = attn_src.data.data();
    const float* ad = attn_dst.data.data();
    const float* ds_src_p = ds_src.data();
    // Per element, the chain's order: s_src's mat-vec term, s_dst's, then
    // one message term per out-edge in edge order (a serial scatter).
    ParallelFor(0, n, GrainForWork(d), [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        float* row = hg + i * d;
        const float a = ds_src_p[i];
        if (a != 0.0f) {
          for (int64_t j = 0; j < d; ++j) row[j] += a * as[j];
        }
        const float b = ds_dst_p[i];
        if (b != 0.0f) {
          for (int64_t j = 0; j < d; ++j) row[j] += b * ad[j];
        }
      }
    });
    for (int64_t v = 0; v < n; ++v) {
      for (int64_t e = seg[v]; e < seg[v + 1]; ++e) {
        K->gather_scale_add(d, 1, &v, alpha + e, g, hg + src[e] * d);
      }
    }
  }
  if (attn_src.requires_grad) {
    attn_src.EnsureGrad();
    AttentionGrad(K, n, d, hd, ds_src.data(), attn_src.grad.data());
  }
  if (attn_dst.requires_grad) {
    attn_dst.EnsureGrad();
    AttentionGrad(K, n, d, hd, ds_dst_p, attn_dst.grad.data());
  }
}

}  // namespace

Tensor GatAggregate(const Tensor& h, const Tensor& attn_src,
                    const Tensor& attn_dst, const std::vector<int64_t>& src,
                    const std::vector<int64_t>& seg_ptr,
                    float negative_slope) {
  CGNP_CHECK_EQ(h.dim(), 2);
  const int64_t n = h.rows(), d = h.cols();
  const int64_t m = static_cast<int64_t>(src.size());
  CGNP_CHECK_EQ(attn_src.rows(), d);
  CGNP_CHECK_EQ(attn_src.cols(), 1);
  CGNP_CHECK_EQ(attn_dst.rows(), d);
  CGNP_CHECK_EQ(attn_dst.cols(), 1);
  CGNP_CHECK_EQ(static_cast<int64_t>(seg_ptr.size()), n + 1);
  CGNP_CHECK_EQ(seg_ptr.front(), 0);
  CGNP_CHECK_EQ(seg_ptr.back(), m);
  for (int64_t u : src) {
    CGNP_CHECK_GE(u, 0);
    CGNP_CHECK_LT(u, n);
  }

  const bool record = GradModeEnabled() &&
                      (h.requires_grad() || attn_src.requires_grad() ||
                       attn_dst.requires_grad());
  std::shared_ptr<GatTape> tape;
  GatTape scratch;  // holds the buffers when nothing records
  Tensor out;
  if (record) {
    tape = std::make_shared<GatTape>();
    tape->src = src;
    tape->seg_ptr = seg_ptr;
    tape->negative_slope = negative_slope;
    out = internal::NewOpNode(
        {n, d}, true, {h.impl(), attn_src.impl(), attn_dst.impl()},
        [tape](TensorImpl& self) { GatBackward(*tape, self); });
  } else {
    out = internal::NewOpNode({n, d}, false, {}, nullptr);
  }
  GatTape& t = record ? *tape : scratch;
  t.s_src.assign(static_cast<size_t>(n), 0.0f);
  t.s_dst.assign(static_cast<size_t>(n), 0.0f);
  t.alpha.resize(static_cast<size_t>(m));

  const simd::SimdKernels* K = &simd::Kernels();
  const float* hd = h.data();
  AttentionLogits(K, n, d, hd, attn_src.data(), t.s_src.data());
  AttentionLogits(K, n, d, hd, attn_dst.data(), t.s_dst.data());
  // Per destination segment: raw scores, then SegmentSoftmax's kernel
  // sequence over LeakyRelu of them (in place in alpha), then the weighted
  // sum of source rows into the segment's output row.
  const int64_t* seg = seg_ptr.data();
  const int64_t* sp = src.data();
  const float* ss = t.s_src.data();
  const float* sd = t.s_dst.data();
  float* a = t.alpha.data();
  float* o = out.data();
  ParallelFor(0, n, SegmentGrain(n, m, d), [=](int64_t v_lo, int64_t v_hi) {
    for (int64_t v = v_lo; v < v_hi; ++v) {
      const int64_t lo = seg[v], len = seg[v + 1] - lo;
      if (len == 0) continue;
      float* av = a + lo;
      for (int64_t e = 0; e < len; ++e) av[e] = sd[v] + ss[sp[lo + e]];
      K->leaky_relu(len, negative_slope, av, av);
      const float mx = K->max(len, av);
      const float z = K->exp_sum(len, mx, av, av);
      K->scale(len, av, 1.0f / z, av);
      K->gather_scale_add(d, len, sp + lo, av, hd, o + v * d);
    }
  });
  return out;
}

}  // namespace cgnp
