// Kernel implementations. This translation unit is compiled with
// -O3 -ffp-contract=off (see src/CMakeLists.txt): -O3 so the micro-kernel's
// fixed-trip inner loops vectorize, -ffp-contract=off so the compiler cannot
// contract a*b+c into FMA — contraction would change results between hosts
// with and without FMA units and break the determinism contract.
#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <vector>

#include "obs/trace.h"
#include "tensor/qtensor.h"  // kQuantBlock, reported in kernel_build_info
#include "tensor/simd.h"
#include "tensor/simd_kernels.h"

namespace odlp::tensor {

using detail::AQuad;
using detail::BPanels;
using detail::kKC;
using detail::kMR;
using detail::kNR;
using detail::Operand;
using detail::Skip;

// One micro-kernel serves all three products (nn, nt, tn): A is read in
// place through AQuad (rows, or columns when transposed), and B through
// BPanels. No operand is ever transposed into a copy.

namespace {

// Floats in the packed panels of a logical K×N B.
std::size_t packed_b_floats(std::size_t K, std::size_t N) {
  return ((N + kNR - 1) / kNR) * kNR * K;
}

// Packs logical B columns [j0, j0+nr) into one kNR-wide panel:
// dst[p*kNR + j'], zero-padding columns past nr.
void pack_panel(const Operand& b, std::size_t K, std::size_t j0,
                std::size_t nr, float* __restrict__ dst) {
  if (!b.trans) {
    for (std::size_t p = 0; p < K; ++p) {
      const float* __restrict__ src = b.data + p * b.ld + j0;
      float* __restrict__ d = dst + p * kNR;
      for (std::size_t j = 0; j < nr; ++j) d[j] = src[j];
      for (std::size_t j = nr; j < kNR; ++j) d[j] = 0.0f;
    }
    return;
  }
  for (std::size_t j = 0; j < nr; ++j) {
    const float* __restrict__ src = b.data + (j0 + j) * b.ld;
    for (std::size_t p = 0; p < K; ++p) dst[p * kNR + j] = src[p];
  }
  for (std::size_t p = 0; p < K; ++p) {
    for (std::size_t j = nr; j < kNR; ++j) dst[p * kNR + j] = 0.0f;
  }
}

// Packs all of logical B (K×N) into kNR-wide panels: panel j0/kNR holds
// bp[panel*K*kNR + p*kNR + j'].
void pack_b(const Operand& b, std::size_t K, std::size_t N,
            float* __restrict__ bp) {
  for (std::size_t j0 = 0; j0 < N; j0 += kNR) {
    pack_panel(b, K, j0, std::min(kNR, N - j0), bp + (j0 / kNR) * K * kNR);
  }
}

// The hot core: acc[kMR][kNR] += A's quad × one B panel over kc steps.
// Fixed-trip inner loops over a flat accumulator array — exactly the shape
// GCC/Clang auto-vectorize into mulps/addps with the accumulators held in
// registers. Branch-free, so throughput is independent of sparsity.
inline void micro_kernel(const AQuad& a, const float* __restrict__ bp,
                         std::size_t bstep, std::size_t kc,
                         float* __restrict__ acc) {
  const float* a0 = a.row[0];
  const float* a1 = a.row[1];
  const float* a2 = a.row[2];
  const float* a3 = a.row[3];
  for (std::size_t p = 0; p < kc; ++p) {
    const float v0 = *a0, v1 = *a1, v2 = *a2, v3 = *a3;
    for (std::size_t j = 0; j < kNR; ++j) {
      const float bv = bp[j];
      acc[0 * kNR + j] += v0 * bv;
      acc[1 * kNR + j] += v1 * bv;
      acc[2 * kNR + j] += v2 * bv;
      acc[3 * kNR + j] += v3 * bv;
    }
    a0 += a.step;
    a1 += a.step;
    a2 += a.step;
    a3 += a.step;
    bp += bstep;
  }
}

// The tiled product C[M×N] (+)= A · B. Per output element the accumulation
// order is strictly ascending k: k-blocks run in order with C loaded/stored
// between them (bit-exact equal to one continuous float accumulation), and
// within a block the micro-kernel walks p upward. A quad's k range and
// panel count come from detail::quad_span; every term it leaves out is an
// exact ±0 product (DESIGN.md §8). detail::gemm_tiled_rows_avx2
// (ops_avx2.cpp) is the AVX2 build of this loop, with the same per-element
// op sequence.
void gemm_tiled_rows(const Operand& a, const BPanels& b, std::size_t M,
                     std::size_t K, std::size_t N, float* __restrict__ c,
                     std::size_t ldc, bool accumulate, Skip skip) {
  const std::size_t panels = (N + kNR - 1) / kNR;
  float acc[kMR * kNR];
  for (std::size_t p0 = 0; p0 < K; p0 += kKC) {
    const std::size_t p1 = std::min(K, p0 + kKC);
    const bool first = (p0 == 0) && !accumulate;
    for (std::size_t i = 0; i < M; i += kMR) {
      const std::size_t mr = std::min(kMR, M - i);
      const detail::QuadSpan span = detail::quad_span(skip, i, mr, K, panels);
      const std::size_t lo = std::max(p0, span.k_lo);
      const std::size_t hi = std::min(p1, span.k_hi);
      const std::size_t kc = hi > lo ? hi - lo : 0;
      if (kc == 0 && !first) continue;
      const AQuad quad = detail::quad_at(a, i, mr, lo);
      for (std::size_t panel = 0; panel < span.panels; ++panel) {
        const std::size_t j0 = panel * kNR;
        const std::size_t nr = std::min(kNR, N - j0);
        std::fill(acc, acc + kMR * kNR, 0.0f);
        if (!first) {
          for (std::size_t r = 0; r < mr; ++r) {
            const float* crow = c + (i + r) * ldc + j0;
            for (std::size_t j = 0; j < nr; ++j) acc[r * kNR + j] = crow[j];
          }
        }
        const std::size_t bstep = b.step(panel);
        micro_kernel(quad, b.panel(panel) + lo * bstep, bstep, kc, acc);
        for (std::size_t r = 0; r < mr; ++r) {
          float* crow = c + (i + r) * ldc + j0;
          for (std::size_t j = 0; j < nr; ++j) crow[j] = acc[r * kNR + j];
        }
      }
    }
  }
}

// Small-shape paths (m < kMR or n < kNR): packing would cost more than it
// saves, so these run unpacked — but still branch-free in the inner loop and
// with the same ascending-k per-element order. Covers m=1 incremental
// decode and the rank-8 LoRA products. Each honours `skip` per row.
void small_nn(const Operand& a, const Operand& b, std::size_t M, std::size_t K,
              std::size_t N, float* __restrict__ c, std::size_t ldc,
              bool accumulate, Skip skip) {
  for (std::size_t i = 0; i < M; ++i) {
    const float* __restrict__ arow = a.data + i * a.ld;
    float* __restrict__ crow = c + i * ldc;
    if (!accumulate) std::fill(crow, crow + N, 0.0f);
    const std::size_t k_end = skip == Skip::kKPastRow ? std::min(K, i + 1) : K;
    for (std::size_t p = 0; p < k_end; ++p) {
      const float av = arow[p];
      const float* __restrict__ brow = b.data + p * b.ld;
      for (std::size_t j = 0; j < N; ++j) crow[j] += av * brow[j];
    }
  }
}

void small_nt(const Operand& a, const Operand& b, std::size_t M, std::size_t K,
              std::size_t N, float* __restrict__ c, std::size_t ldc,
              bool accumulate, Skip skip) {
  for (std::size_t i = 0; i < M; ++i) {
    const float* __restrict__ arow = a.data + i * a.ld;
    float* __restrict__ crow = c + i * ldc;
    const std::size_t n_end =
        skip == Skip::kColsPastRow ? std::min(N, i + 1) : N;
    for (std::size_t j = 0; j < n_end; ++j) {
      const float* __restrict__ brow = b.data + j * b.ld;
      // Fixed 4-way split dot: order depends only on K.
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      std::size_t p = 0;
      for (; p + 4 <= K; p += 4) {
        s0 += arow[p] * brow[p];
        s1 += arow[p + 1] * brow[p + 1];
        s2 += arow[p + 2] * brow[p + 2];
        s3 += arow[p + 3] * brow[p + 3];
      }
      float s = (s0 + s1) + (s2 + s3);
      for (; p < K; ++p) s += arow[p] * brow[p];
      crow[j] = accumulate ? crow[j] + s : s;
    }
  }
}

void small_tn(const Operand& a, const Operand& b, std::size_t M, std::size_t K,
              std::size_t N, float* __restrict__ c, std::size_t ldc,
              bool accumulate, Skip skip) {
  for (std::size_t i = 0; i < M; ++i) {
    float* __restrict__ crow = c + i * ldc;
    if (!accumulate) std::fill(crow, crow + N, 0.0f);
    for (std::size_t p = skip == Skip::kKBeforeRow ? i : 0; p < K; ++p) {
      const float av = a.data[p * a.ld + i];
      const float* __restrict__ brow = b.data + p * b.ld;
      for (std::size_t j = 0; j < N; ++j) crow[j] += av * brow[j];
    }
  }
}

// One entry point for all three products: C[M×N] (+)= A · B at row stride
// ldc. B's panels come from `packed_b` when the caller holds them; else a
// transposed B is packed once into a thread-local buffer, and a plain B is
// read in place with only its partial last panel packed there.
void gemm(const Operand& a, const Operand& b, std::size_t M, std::size_t K,
          std::size_t N, float* c, std::size_t ldc, bool accumulate,
          Skip skip, const PackedB* packed_b) {
  assert(!(a.trans && b.trans));  // tt never occurs
  assert(c != a.data && c != b.data);
  if (M == 0 || N == 0) return;
  if (K == 0) {
    if (!accumulate) {
      for (std::size_t i = 0; i < M; ++i) {
        std::fill(c + i * ldc, c + i * ldc + N, 0.0f);
      }
    }
    return;
  }
  // Path choice is a function of the full shape only (determinism: a given
  // shape always takes the same path, whatever `skip` leaves out).
  if (M < kMR || N < kNR) {
    if (a.trans) {
      small_tn(a, b, M, K, N, c, ldc, accumulate, skip);
    } else if (b.trans) {
      small_nt(a, b, M, K, N, c, ldc, accumulate, skip);
    } else {
      small_nn(a, b, M, K, N, c, ldc, accumulate, skip);
    }
    return;
  }
  BPanels panels{nullptr, b.data, b.ld, nullptr, K, N / kNR};
  if (packed_b) {
    assert(packed_b->k() == K && packed_b->n() == N &&
           packed_b->transposed() == b.trans);
    panels.packed = packed_b->data();
  } else if (b.trans || N % kNR != 0) {
    thread_local std::vector<float> pack_buffer;
    const std::size_t need = b.trans ? packed_b_floats(K, N) : K * kNR;
    if (pack_buffer.size() < need) pack_buffer.resize(need);
    if (b.trans) {
      pack_b(b, K, N, pack_buffer.data());
      panels.packed = pack_buffer.data();
    } else {
      pack_panel(b, K, panels.full * kNR, N % kNR, pack_buffer.data());
      panels.tail = pack_buffer.data();
    }
  }
#ifdef ODLP_SIMD_KERNELS_X86
  if (active_simd_level() >= SimdLevel::kAvx2) {
    detail::gemm_tiled_rows_avx2(a, panels, M, K, N, c, ldc, accumulate, skip);
    return;
  }
#endif
  gemm_tiled_rows(a, panels, M, K, N, c, ldc, accumulate, skip);
}

Operand operand(ConstMatView v, bool trans) {
  return Operand{v.data, v.ld, trans};
}

}  // namespace

PackedB::PackedB(const Tensor& w, bool transposed)
    : k_(transposed ? w.cols() : w.rows()),
      n_(transposed ? w.rows() : w.cols()),
      transposed_(transposed) {
  panels_.resize(packed_b_floats(k_, n_));
  pack_b(Operand{w.data(), w.cols(), transposed}, k_, n_, panels_.data());
}

PackedB PackedB::nn(const Tensor& w) { return PackedB(w, false); }

PackedB PackedB::nt(const Tensor& w) { return PackedB(w, true); }

KernelBuildInfo kernel_build_info() {
  static_assert(kMR == 4 && kNR == 8,
                "update the variant string alongside the tile constants");
  const SimdLevel level = active_simd_level();
  KernelBuildInfo info;
  // The AVX2 row loop runs two adjacent panels per quad (a 4×16 tile).
  info.variant = level >= SimdLevel::kAvx2 ? "tiled-4x16-inplace-avx2"
                                           : "tiled-4x8-inplace";
  info.simd_level = simd_level_name(level);
#ifdef ODLP_NATIVE_ARCH
  info.native_arch = true;
#else
  info.native_arch = false;
#endif
  if (level >= SimdLevel::kVnni) {
    info.int8_variant = "q8-4x16-dpbusd-vnni";
  } else if (level >= SimdLevel::kAvx2) {
    info.int8_variant = "q8-4x16-maddubs-avx2";
  } else {
#ifdef __SSE2__
    info.int8_variant = level >= SimdLevel::kSse2 ? "q8-4x16-madd-sse2"
                                                  : "q8-4x16-scalar";
#else
    info.int8_variant = "q8-4x16-scalar";
#endif
  }
  info.int8_block = kQuantBlock;
  return info;
}

void matmul_into(ConstMatView a, ConstMatView b, MatView out, bool accumulate,
                 Triangle tri, const PackedB* packed_b) {
  ODLP_TRACE_SCOPE("tensor.gemm");
  assert(a.cols == b.rows && out.rows == a.rows && out.cols == b.cols);
  assert(tri == Triangle::kFull || a.rows == a.cols);
  gemm(operand(a, false), operand(b, false), a.rows, a.cols, b.cols, out.data,
       out.ld, accumulate,
       tri == Triangle::kLower ? Skip::kKPastRow : Skip::kNone, packed_b);
}

void matmul_nt_into(ConstMatView a, ConstMatView b, MatView out,
                    bool accumulate, Triangle tri, const PackedB* packed_b) {
  ODLP_TRACE_SCOPE("tensor.gemm");
  assert(a.cols == b.cols && out.rows == a.rows && out.cols == b.rows);
  assert(tri == Triangle::kFull || out.rows == out.cols);
  gemm(operand(a, false), operand(b, true), a.rows, a.cols, b.rows, out.data,
       out.ld, accumulate,
       tri == Triangle::kLower ? Skip::kColsPastRow : Skip::kNone, packed_b);
}

void matmul_tn_into(ConstMatView a, ConstMatView b, MatView out,
                    bool accumulate, Triangle tri) {
  ODLP_TRACE_SCOPE("tensor.gemm");
  assert(a.rows == b.rows && out.rows == a.cols && out.cols == b.cols);
  assert(tri == Triangle::kFull || a.rows == a.cols);
  gemm(operand(a, true), operand(b, false), a.cols, a.rows, b.cols, out.data,
       out.ld, accumulate,
       tri == Triangle::kLower ? Skip::kKBeforeRow : Skip::kNone, nullptr);
}

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out,
                 bool accumulate, const PackedB* packed_b) {
  if (!accumulate) out.resize_uninitialized(a.rows(), b.cols());
  matmul_into(view(a), view(b), view(out), accumulate, Triangle::kFull,
              packed_b);
}

void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& out,
                    bool accumulate, const PackedB* packed_b) {
  if (!accumulate) out.resize_uninitialized(a.rows(), b.rows());
  matmul_nt_into(view(a), view(b), view(out), accumulate, Triangle::kFull,
                 packed_b);
}

void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& out,
                    bool accumulate) {
  if (!accumulate) out.resize_uninitialized(a.cols(), b.cols());
  matmul_tn_into(view(a), view(b), view(out), accumulate);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  matmul_into(a, b, c);
  return c;
}

Tensor matmul_reference(const Tensor& a, const Tensor& b) {
  assert(a.cols() == b.rows());
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Tensor c(m, n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.row(i);
    float* crow = c.row(i);
    for (std::size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b.row(p);
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

void matmul_backward(const Tensor& a, const Tensor& b, const Tensor& dc,
                     Tensor& da, Tensor& db) {
  assert(dc.rows() == a.rows() && dc.cols() == b.cols());
  assert(da.same_shape(a) && db.same_shape(b));
  matmul_nt_into(dc, b, da, /*accumulate=*/true);  // dA += dC · Bᵀ
  matmul_tn_into(a, dc, db, /*accumulate=*/true);  // dB += Aᵀ · dC
}

void matmul_backward_reference(const Tensor& a, const Tensor& b,
                               const Tensor& dc, Tensor& da, Tensor& db) {
  assert(dc.rows() == a.rows() && dc.cols() == b.cols());
  assert(da.same_shape(a) && db.same_shape(b));
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  // dA += dC * B^T
  for (std::size_t i = 0; i < m; ++i) {
    const float* dcrow = dc.row(i);
    float* darow = da.row(i);
    for (std::size_t p = 0; p < k; ++p) {
      const float* brow = b.row(p);
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) acc += static_cast<double>(dcrow[j]) * brow[j];
      darow[p] += static_cast<float>(acc);
    }
  }
  // dB += A^T * dC
  for (std::size_t p = 0; p < k; ++p) {
    float* dbrow = db.row(p);
    for (std::size_t i = 0; i < m; ++i) {
      const float av = a.at(i, p);
      if (av == 0.0f) continue;
      const float* dcrow = dc.row(i);
      for (std::size_t j = 0; j < n; ++j) dbrow[j] += av * dcrow[j];
    }
  }
}

Tensor transpose(const Tensor& a) {
  Tensor t = Tensor::uninitialized(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

void add_row_broadcast_inplace(Tensor& inout, const Tensor& bias) {
  assert(bias.rows() == 1 && bias.cols() == inout.cols());
  const float* b = bias.row(0);
  for (std::size_t i = 0; i < inout.rows(); ++i) {
    float* row = inout.row(i);
    for (std::size_t j = 0; j < inout.cols(); ++j) row[j] += b[j];
  }
}

Tensor add_row_broadcast(const Tensor& in, const Tensor& bias) {
  Tensor out = in;
  add_row_broadcast_inplace(out, bias);
  return out;
}

void add_row_broadcast_backward(const Tensor& dout, Tensor& dbias) {
  assert(dbias.rows() == 1 && dbias.cols() == dout.cols());
  float* db = dbias.row(0);
  if (dout.size() < kChunkedReduceMinElems) {
    for (std::size_t i = 0; i < dout.rows(); ++i) {
      const float* row = dout.row(i);
      for (std::size_t j = 0; j < dout.cols(); ++j) db[j] += row[j];
    }
    return;
  }
  const std::vector<float> partial = reduce_row_chunks(
      dout.rows(),
      [&](std::size_t i0, std::size_t i1) {
        std::vector<float> acc(dout.cols(), 0.0f);
        for (std::size_t i = i0; i < i1; ++i) {
          const float* row = dout.row(i);
          for (std::size_t j = 0; j < dout.cols(); ++j) acc[j] += row[j];
        }
        return acc;
      },
      [](std::vector<float>& acc, const std::vector<float>& part) {
        for (std::size_t j = 0; j < acc.size(); ++j) acc[j] += part[j];
      });
  for (std::size_t j = 0; j < dout.cols(); ++j) db[j] += partial[j];
}

namespace {

// Stabilized softmax of the n >= 1 entries at `in` into `o` (may alias).
void softmax_row(const float* in, float* o, std::size_t n) {
  float mx = in[0];
  for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, in[j]);
  double sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    o[j] = std::exp(in[j] - mx);
    sum += o[j];
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (std::size_t j = 0; j < n; ++j) o[j] *= inv;
}

}  // namespace

void softmax_rows_into(const Tensor& logits, Tensor& out) {
  out.resize_uninitialized(logits.rows(), logits.cols());
  for (std::size_t i = 0; i < logits.rows(); ++i) {
    softmax_row(logits.row(i), out.row(i), logits.cols());
  }
}

void softmax_causal_rows_into(const Tensor& scores, float scale, Tensor& out) {
  assert(scores.rows() == scores.cols());
  const std::size_t T = scores.rows();
  out.resize_uninitialized(T, T);
  for (std::size_t i = 0; i < T; ++i) {
    const float* in = scores.row(i);
    float* o = out.row(i);
    for (std::size_t j = 0; j <= i; ++j) o[j] = in[j] * scale;
    softmax_row(o, o, i + 1);
    // +0: the bytes a softmax over a −inf-masked row writes there.
    std::fill(o + i + 1, o + T, 0.0f);
  }
}

Tensor softmax_rows(const Tensor& logits) {
  Tensor out;
  softmax_rows_into(logits, out);
  return out;
}

void softmax_causal_rows_backward_into(const Tensor& probs, const Tensor& dout,
                                       float scale, Tensor& din) {
  assert(probs.same_shape(dout) && probs.rows() == probs.cols());
  const std::size_t T = probs.rows();
  din.resize_uninitialized(T, T);
  for (std::size_t i = 0; i < T; ++i) {
    const float* s = probs.row(i);
    const float* d = dout.row(i);
    float* o = din.row(i);
    double dot = 0.0;
    for (std::size_t j = 0; j <= i; ++j) dot += static_cast<double>(d[j]) * s[j];
    for (std::size_t j = 0; j <= i; ++j) {
      o[j] = (s[j] * (d[j] - static_cast<float>(dot))) * scale;
    }
    std::fill(o + i + 1, o + T, 0.0f);
  }
}

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
}

void gelu_into(const Tensor& in, Tensor& out, Tensor& tanh_u) {
  out.resize_uninitialized(in.rows(), in.cols());
  tanh_u.resize_uninitialized(in.rows(), in.cols());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const float x = in.data()[i];
    const float t = std::tanh(kGeluC * (x + 0.044715f * x * x * x));
    tanh_u.data()[i] = t;
    out.data()[i] = 0.5f * x * (1.0f + t);
  }
}

Tensor gelu(const Tensor& in) {
  Tensor out;
  Tensor tanh_u;
  gelu_into(in, out, tanh_u);
  return out;
}

void gelu_backward_into(const Tensor& in, const Tensor& tanh_u,
                        const Tensor& dout, Tensor& din) {
  assert(in.same_shape(dout) && in.same_shape(tanh_u));
  din.resize_uninitialized(in.rows(), in.cols());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const float x = in.data()[i];
    const float t = tanh_u.data()[i];
    const float sech2 = 1.0f - t * t;
    const float du = kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
    const float grad = 0.5f * (1.0f + t) + 0.5f * x * sech2 * du;
    din.data()[i] = dout.data()[i] * grad;
  }
}

void layernorm_rows_into(const Tensor& in, float eps, LayerNormCache* cache,
                         Tensor& out) {
  out.resize_uninitialized(in.rows(), in.cols());
  if (cache) {
    // resize_uninitialized keeps the cache's storage across steps instead of
    // reallocating a zero-filled tensor each forward.
    cache->normalized.resize_uninitialized(in.rows(), in.cols());
    cache->inv_std.resize(in.rows());
  }
  const std::size_t n = in.cols();
  for (std::size_t i = 0; i < in.rows(); ++i) {
    const float* x = in.row(i);
    double mean = 0.0;
    for (std::size_t j = 0; j < n; ++j) mean += x[j];
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double d = x[j] - mean;
      var += d * d;
    }
    var /= static_cast<double>(n);
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps));
    float* o = out.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      o[j] = (x[j] - static_cast<float>(mean)) * inv_std;
    }
    if (cache) {
      std::memcpy(cache->normalized.row(i), o, n * sizeof(float));
      cache->inv_std[i] = inv_std;
    }
  }
}

Tensor layernorm_rows(const Tensor& in, float eps, LayerNormCache* cache) {
  Tensor out;
  layernorm_rows_into(in, eps, cache, out);
  return out;
}

void layernorm_rows_backward_into(const Tensor& dout,
                                  const LayerNormCache& cache, Tensor& din) {
  assert(dout.same_shape(cache.normalized));
  const std::size_t n = dout.cols();
  din.resize_uninitialized(dout.rows(), dout.cols());
  for (std::size_t i = 0; i < dout.rows(); ++i) {
    const float* d = dout.row(i);
    const float* xn = cache.normalized.row(i);
    const float inv_std = cache.inv_std[i];
    double sum_d = 0.0, sum_dxn = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      sum_d += d[j];
      sum_dxn += static_cast<double>(d[j]) * xn[j];
    }
    const float mean_d = static_cast<float>(sum_d / n);
    const float mean_dxn = static_cast<float>(sum_dxn / n);
    float* o = din.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      o[j] = inv_std * (d[j] - mean_d - xn[j] * mean_dxn);
    }
  }
}

Tensor layernorm_rows_backward(const Tensor& dout, const LayerNormCache& cache) {
  Tensor din;
  layernorm_rows_backward_into(dout, cache, din);
  return din;
}

void add_into(const Tensor& a, const Tensor& b, Tensor& out) {
  assert(a.same_shape(b));
  out.resize_uninitialized(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.data()[i] = a.data()[i] + b.data()[i];
  }
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out;
  add_into(a, b, out);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  assert(a.same_shape(b));
  Tensor out = a;
  out -= b;
  return out;
}

Tensor mul_elem(const Tensor& a, const Tensor& b) {
  assert(a.same_shape(b));
  Tensor out = Tensor::uninitialized(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) out.data()[i] = a.data()[i] * b.data()[i];
  return out;
}

void scale_into(const Tensor& a, float s, Tensor& out) {
  out.resize_uninitialized(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) out.data()[i] = a.data()[i] * s;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out;
  scale_into(a, s, out);
  return out;
}

Tensor mean_rows(const Tensor& in) {
  Tensor out(1, in.cols(), 0.0f);
  if (in.rows() == 0) return out;
  for (std::size_t i = 0; i < in.rows(); ++i) {
    const float* row = in.row(i);
    for (std::size_t j = 0; j < in.cols(); ++j) out.at(0, j) += row[j];
  }
  const float inv = 1.0f / static_cast<float>(in.rows());
  for (std::size_t j = 0; j < in.cols(); ++j) out.at(0, j) *= inv;
  return out;
}

float cosine_similarity(const Tensor& a, const Tensor& b) {
  assert(a.size() == b.size());
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a.data()[i]) * b.data()[i];
    na += static_cast<double>(a.data()[i]) * a.data()[i];
    nb += static_cast<double>(b.data()[i]) * b.data()[i];
  }
  if (na == 0.0 || nb == 0.0) return 0.0f;
  return static_cast<float>(dot / (std::sqrt(na) * std::sqrt(nb)));
}

double sum_squares(const Tensor& a) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a.data()[i]) * a.data()[i];
  }
  return acc;
}

double dot(const Tensor& a, const Tensor& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a.data()[i]) * b.data()[i];
  }
  return acc;
}

}  // namespace odlp::tensor
