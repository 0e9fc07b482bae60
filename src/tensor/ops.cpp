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
#include "util/thread_pool.h"

namespace odlp::tensor {

using detail::kKC;
using detail::kMR;
using detail::kNR;
using detail::Operand;

// One micro-kernel plus trans-aware packing serves all three products (nn,
// nt, tn) — the transpose happens during packing, never as a materialized
// copy. Rows past mr are zero-padded so the micro-kernel is branch-free;
// padded lanes never reach C.
void detail::pack_a(const Operand& a, std::size_t i0, std::size_t mr,
                    std::size_t p0, std::size_t p1, float* __restrict__ ap) {
  if (!a.trans) {
    for (std::size_t r = 0; r < mr; ++r) {
      const float* __restrict__ src = a.data + (i0 + r) * a.ld;
      for (std::size_t p = p0; p < p1; ++p) ap[(p - p0) * kMR + r] = src[p];
    }
  } else {
    for (std::size_t p = p0; p < p1; ++p) {
      const float* __restrict__ src = a.data + p * a.ld + i0;
      float* __restrict__ dst = ap + (p - p0) * kMR;
      for (std::size_t r = 0; r < mr; ++r) dst[r] = src[r];
    }
  }
  for (std::size_t r = mr; r < kMR; ++r) {
    for (std::size_t p = p0; p < p1; ++p) ap[(p - p0) * kMR + r] = 0.0f;
  }
}

namespace {

// Pack all of logical B (K×N) into kNR-wide panels: panel j0/kNR holds
// bp[panel*K*kNR + p*kNR + j']. Columns past N are zero-padded.
void pack_b(const Operand& b, std::size_t K, std::size_t N,
            float* __restrict__ bp) {
  const std::size_t panels = (N + kNR - 1) / kNR;
  for (std::size_t panel = 0; panel < panels; ++panel) {
    const std::size_t j0 = panel * kNR;
    const std::size_t nr = std::min(kNR, N - j0);
    float* __restrict__ dst_panel = bp + panel * K * kNR;
    if (!b.trans) {
      for (std::size_t p = 0; p < K; ++p) {
        const float* __restrict__ src = b.data + p * b.ld + j0;
        float* __restrict__ dst = dst_panel + p * kNR;
        for (std::size_t j = 0; j < nr; ++j) dst[j] = src[j];
        for (std::size_t j = nr; j < kNR; ++j) dst[j] = 0.0f;
      }
    } else {
      for (std::size_t j = 0; j < nr; ++j) {
        const float* __restrict__ src = b.data + (j0 + j) * b.ld;
        for (std::size_t p = 0; p < K; ++p) dst_panel[p * kNR + j] = src[p];
      }
      if (nr < kNR) {
        for (std::size_t p = 0; p < K; ++p) {
          for (std::size_t j = nr; j < kNR; ++j) dst_panel[p * kNR + j] = 0.0f;
        }
      }
    }
  }
}

// The hot core: acc[kMR][kNR] += A-quad × B-panel over kc steps. Fixed-trip
// inner loops over a flat accumulator array — exactly the shape GCC/Clang
// auto-vectorize into mulps/addps with the accumulators held in registers.
// Branch-free by construction (zero padding replaced the old `if (av == 0)`
// skip), so throughput is independent of sparsity.
inline void micro_kernel(const float* __restrict__ ap,
                         const float* __restrict__ bp, std::size_t kc,
                         float* __restrict__ acc) {
  for (std::size_t p = 0; p < kc; ++p) {
    const float a0 = ap[0], a1 = ap[1], a2 = ap[2], a3 = ap[3];
    for (std::size_t j = 0; j < kNR; ++j) {
      const float bv = bp[j];
      acc[0 * kNR + j] += a0 * bv;
      acc[1 * kNR + j] += a1 * bv;
      acc[2 * kNR + j] += a2 * bv;
      acc[3 * kNR + j] += a3 * bv;
    }
    ap += kMR;
    bp += kNR;
  }
}

// C rows [i0, i1) of the tiled product. Per output element the accumulation
// order is strictly ascending k: k-blocks run in order with C loaded/stored
// between them (bit-exact equal to one continuous float accumulation), and
// within a block the micro-kernel walks p upward. Row chunks touch disjoint
// C rows, so any row partition — hence any lane count — yields bit-identical
// results. detail::gemm_tiled_rows_avx2 (ops_avx2.cpp) is the AVX2 build of
// this loop, with the same per-element op sequence.
void gemm_tiled_rows(const Operand& a, const float* __restrict__ bp,
                     std::size_t K, std::size_t N, float* __restrict__ c,
                     std::size_t ldc, bool accumulate, std::size_t i0,
                     std::size_t i1) {
  const std::size_t panels = (N + kNR - 1) / kNR;
  float apack[kMR * kKC];
  float acc[kMR * kNR];
  for (std::size_t p0 = 0; p0 < K; p0 += kKC) {
    const std::size_t p1 = std::min(K, p0 + kKC);
    const bool first = (p0 == 0) && !accumulate;
    for (std::size_t i = i0; i < i1; i += kMR) {
      const std::size_t mr = std::min(kMR, i1 - i);
      detail::pack_a(a, i, mr, p0, p1, apack);
      for (std::size_t panel = 0; panel < panels; ++panel) {
        const std::size_t j0 = panel * kNR;
        const std::size_t nr = std::min(kNR, N - j0);
        std::fill(acc, acc + kMR * kNR, 0.0f);
        if (!first) {
          for (std::size_t r = 0; r < mr; ++r) {
            const float* crow = c + (i + r) * ldc + j0;
            for (std::size_t j = 0; j < nr; ++j) acc[r * kNR + j] = crow[j];
          }
        }
        micro_kernel(apack, bp + panel * K * kNR + p0 * kNR, p1 - p0, acc);
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
// decode and the rank-8 LoRA products.
void small_nn(const Operand& a, const Operand& b, std::size_t K, std::size_t N,
              float* __restrict__ c, std::size_t ldc, bool accumulate,
              std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* __restrict__ arow = a.data + i * a.ld;
    float* __restrict__ crow = c + i * ldc;
    if (!accumulate) std::fill(crow, crow + N, 0.0f);
    for (std::size_t p = 0; p < K; ++p) {
      const float av = arow[p];
      const float* __restrict__ brow = b.data + p * b.ld;
      for (std::size_t j = 0; j < N; ++j) crow[j] += av * brow[j];
    }
  }
}

void small_nt(const Operand& a, const Operand& b, std::size_t K, std::size_t N,
              float* __restrict__ c, std::size_t ldc, bool accumulate,
              std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* __restrict__ arow = a.data + i * a.ld;
    float* __restrict__ crow = c + i * ldc;
    for (std::size_t j = 0; j < N; ++j) {
      const float* __restrict__ brow = b.data + j * b.ld;
      // Fixed 4-way split dot: order depends only on K, never on lanes.
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

void small_tn(const Operand& a, const Operand& b, std::size_t K, std::size_t N,
              float* __restrict__ c, std::size_t ldc, bool accumulate,
              std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    float* __restrict__ crow = c + i * ldc;
    if (!accumulate) std::fill(crow, crow + N, 0.0f);
    for (std::size_t p = 0; p < K; ++p) {
      const float av = a.data[p * a.ld + i];
      const float* __restrict__ brow = b.data + p * b.ld;
      for (std::size_t j = 0; j < N; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_small_rows(const Operand& a, const Operand& b, std::size_t K,
                     std::size_t N, float* c, std::size_t ldc, bool accumulate,
                     std::size_t i0, std::size_t i1) {
  assert(!(a.trans && b.trans));  // tt never occurs
  if (a.trans) {
    small_tn(a, b, K, N, c, ldc, accumulate, i0, i1);
  } else if (b.trans) {
    small_nt(a, b, K, N, c, ldc, accumulate, i0, i1);
  } else {
    small_nn(a, b, K, N, c, ldc, accumulate, i0, i1);
  }
}

// Rows per matmul chunk sized so one chunk is a meaningful slice of work.
std::size_t matmul_row_grain(std::size_t m, std::size_t k, std::size_t n,
                             std::size_t lanes) {
  const std::size_t flops_per_row = 2 * k * n;
  std::size_t grain = flops_per_row == 0
                          ? m
                          : std::max<std::size_t>(1, (1u << 15) / flops_per_row);
  // No more than ~4 chunks per lane of slack, no fewer than one row.
  const std::size_t min_grain = (m + lanes * 4 - 1) / (lanes * 4);
  return std::max(grain, std::max<std::size_t>(1, min_grain));
}

// Shared driver for all three products. B is packed once by the calling
// thread into a thread-local buffer (read-only for the row workers); rows
// fan out to the pool when fans_out(2·m·k·n).
void gemm(const Operand& a, const Operand& b, std::size_t M, std::size_t K,
          std::size_t N, Tensor& out, bool accumulate) {
  if (!accumulate) {
    out.resize_uninitialized(M, N);
  }
  assert(out.rows() == M && out.cols() == N);
  assert(out.data() != a.data && out.data() != b.data);
  float* c = out.data();
  const std::size_t ldc = N;
  if (M == 0 || N == 0) return;
  if (K == 0) {
    if (!accumulate) out.zero();
    return;
  }
  // Path choice is a function of shape only (determinism: a given shape
  // always takes the same path, whatever the lane count). The SIMD level is
  // read once here, on the calling thread, and captured by value so pool
  // workers never touch the dispatch atomic and a concurrent
  // set_simd_level() cannot split one product across kernel variants (they
  // are bit-identical anyway — this just keeps the hot loop load-free).
  const bool tiled = M >= kMR && N >= kNR;
  const bool use_avx2 = active_simd_level() >= SimdLevel::kAvx2;
  const float* bp = nullptr;
  if (tiled) {
    thread_local std::vector<float> pack_buffer;
    const std::size_t need = ((N + kNR - 1) / kNR) * kNR * K;
    if (pack_buffer.size() < need) pack_buffer.resize(need);
    pack_b(b, K, N, pack_buffer.data());
    bp = pack_buffer.data();
  }
  auto run = [&, use_avx2](std::size_t i0, std::size_t i1) {
    if (!tiled) {
      gemm_small_rows(a, b, K, N, c, ldc, accumulate, i0, i1);
      return;
    }
#ifdef ODLP_SIMD_KERNELS_X86
    if (use_avx2) {
      detail::gemm_tiled_rows_avx2(a, bp, K, N, c, ldc, accumulate, i0, i1);
      return;
    }
#else
    (void)use_avx2;
#endif
    gemm_tiled_rows(a, bp, K, N, c, ldc, accumulate, i0, i1);
  };
  if (!fans_out(2 * M * K * N)) {
    run(0, M);
    return;
  }
  util::ThreadPool& pool = util::ThreadPool::global();
  std::size_t grain = matmul_row_grain(M, K, N, pool.lanes());
  // Quad-align chunks so only the final one packs a partial A quad.
  grain = (grain + kMR - 1) / kMR * kMR;
  pool.parallel_for(0, M, grain, run);
}

}  // namespace

KernelBuildInfo kernel_build_info() {
  static_assert(kMR == 4 && kNR == 8,
                "update the variant string alongside the tile constants");
  const SimdLevel level = active_simd_level();
  KernelBuildInfo info;
  // The AVX2 row loop runs two adjacent panels per quad (a 4×16 tile).
  info.variant = level >= SimdLevel::kAvx2 ? "tiled-4x16-packed-avx2"
                                           : "tiled-4x8-packed";
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

void matmul_into(const Tensor& a, const Tensor& b, Tensor& out,
                 bool accumulate) {
  ODLP_TRACE_SCOPE("tensor.gemm");
  assert(a.cols() == b.rows());
  gemm(Operand{a.data(), a.cols(), false}, Operand{b.data(), b.cols(), false},
       a.rows(), a.cols(), b.cols(), out, accumulate);
}

void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& out,
                    bool accumulate) {
  ODLP_TRACE_SCOPE("tensor.gemm");
  assert(a.cols() == b.cols());
  gemm(Operand{a.data(), a.cols(), false}, Operand{b.data(), b.cols(), true},
       a.rows(), a.cols(), b.rows(), out, accumulate);
}

void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& out,
                    bool accumulate) {
  ODLP_TRACE_SCOPE("tensor.gemm");
  assert(a.rows() == b.rows());
  gemm(Operand{a.data(), a.cols(), true}, Operand{b.data(), b.cols(), false},
       a.cols(), a.rows(), b.cols(), out, accumulate);
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
  auto apply = [&](std::size_t i0, std::size_t i1) {
    const float* b = bias.row(0);
    for (std::size_t i = i0; i < i1; ++i) {
      float* row = inout.row(i);
      for (std::size_t j = 0; j < inout.cols(); ++j) row[j] += b[j];
    }
  };
  if (fans_out(inout.size() * kRowwiseFlopsPerElem)) {
    util::ThreadPool::global().parallel_for(0, inout.rows(), 0, apply);
  } else {
    apply(0, inout.rows());
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
  // Shared accumulator: reduce fixed-grain chunk partials in chunk order so
  // the result is independent of the lane count and of fans_out().
  const std::vector<float> partial =
      util::ThreadPool::global().reduce_ordered<std::vector<float>>(
      0, dout.rows(), /*grain=*/0, std::vector<float>(),
      [&](std::size_t i0, std::size_t i1) {
        std::vector<float> acc(dout.cols(), 0.0f);
        for (std::size_t i = i0; i < i1; ++i) {
          const float* row = dout.row(i);
          for (std::size_t j = 0; j < dout.cols(); ++j) acc[j] += row[j];
        }
        return acc;
      },
      [](const std::vector<float>& a, const std::vector<float>& b) {
        if (a.empty()) return b;
        if (b.empty()) return a;
        std::vector<float> out = a;
        for (std::size_t j = 0; j < out.size(); ++j) out[j] += b[j];
        return out;
      },
      fans_out(dout.size() * kRowwiseFlopsPerElem));
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
  auto apply = [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      softmax_row(logits.row(i), out.row(i), logits.cols());
    }
  };
  if (fans_out(logits.size() * kRowwiseFlopsPerElem)) {
    util::ThreadPool::global().parallel_for(0, logits.rows(), 0, apply);
  } else {
    apply(0, logits.rows());
  }
}

void softmax_causal_rows_into(const Tensor& scores, float scale, Tensor& out) {
  assert(scores.rows() == scores.cols());
  const std::size_t T = scores.rows();
  out.resize_uninitialized(T, T);
  auto apply = [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      const float* in = scores.row(i);
      float* o = out.row(i);
      for (std::size_t j = 0; j <= i; ++j) o[j] = in[j] * scale;
      softmax_row(o, o, i + 1);
      // +0: the bytes a softmax over a −inf-masked row writes there.
      std::fill(o + i + 1, o + T, 0.0f);
    }
  };
  if (fans_out(scores.size() * kRowwiseFlopsPerElem)) {
    util::ThreadPool::global().parallel_for(0, T, 0, apply);
  } else {
    apply(0, T);
  }
}

Tensor softmax_rows(const Tensor& logits) {
  Tensor out;
  softmax_rows_into(logits, out);
  return out;
}

void softmax_rows_backward_into(const Tensor& softmax_out, const Tensor& dout,
                                Tensor& din) {
  assert(softmax_out.same_shape(dout));
  din.resize_uninitialized(softmax_out.rows(), softmax_out.cols());
  for (std::size_t i = 0; i < softmax_out.rows(); ++i) {
    const float* s = softmax_out.row(i);
    const float* d = dout.row(i);
    float* o = din.row(i);
    double dot = 0.0;
    for (std::size_t j = 0; j < softmax_out.cols(); ++j) dot += static_cast<double>(d[j]) * s[j];
    for (std::size_t j = 0; j < softmax_out.cols(); ++j) {
      o[j] = s[j] * (d[j] - static_cast<float>(dot));
    }
  }
}

Tensor softmax_rows_backward(const Tensor& softmax_out, const Tensor& dout) {
  Tensor din;
  softmax_rows_backward_into(softmax_out, dout, din);
  return din;
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

Tensor relu(const Tensor& in) {
  Tensor out = Tensor::uninitialized(in.rows(), in.cols());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out.data()[i] = in.data()[i] > 0.0f ? in.data()[i] : 0.0f;
  }
  return out;
}

Tensor relu_backward(const Tensor& in, const Tensor& dout) {
  assert(in.same_shape(dout));
  Tensor din = Tensor::uninitialized(in.rows(), in.cols());
  for (std::size_t i = 0; i < in.size(); ++i) {
    din.data()[i] = in.data()[i] > 0.0f ? dout.data()[i] : 0.0f;
  }
  return din;
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
  auto apply = [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
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
  };
  if (fans_out(in.size() * kRowwiseFlopsPerElem)) {
    util::ThreadPool::global().parallel_for(0, in.rows(), 0, apply);
  } else {
    apply(0, in.rows());
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
  auto apply = [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
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
  };
  if (fans_out(dout.size() * kRowwiseFlopsPerElem)) {
    util::ThreadPool::global().parallel_for(0, dout.rows(), 0, apply);
  } else {
    apply(0, dout.rows());
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
