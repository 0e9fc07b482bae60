// INT8 GEMM kernels. Like ops.cpp this TU is compiled -O3 -ffp-contract=off
// (see src/CMakeLists.txt): -O3 so the fixed-trip integer inner loops widen
// and vectorize, -ffp-contract=off so the fp32 scale fixup cannot contract
// into FMA and break the bit-exactness contract against the reference.
//
// On x86-64 the hot loops use SSE2 intrinsics directly (pmaddwd computes
// x0·w[j] + x1·w[j+stride] on int16 pairs — exactly this kernel's k-pair
// step; the compiler does not find that form from the scalar loop because
// the int8→int32 widening chain blocks its dot-product pattern). Integer
// block sums are exact in any evaluation order, so the vector and scalar
// forms produce bit-identical int32 accumulators and the fp32 fixup — the
// only inexact step — is shared verbatim; tests/test_quantized_equivalence
// asserts the paths agree bit-for-bit.
//
// qmatmul_into picks among the scalar / SSE2 variants here and the AVX2
// vpmaddubsw variants in qops_avx2.cpp at call time via
// tensor::active_simd_level() (tensor/simd.h, DESIGN.md §12); the dispatch
// level never changes results, only throughput.
#include "tensor/qops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/simd.h"
#include "tensor/simd_kernels.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#define ODLP_QOPS_SSE2 1
#endif

namespace odlp::tensor {

namespace {

// Register tile: kQMR C rows × kQNR int32 accumulators, held across one
// 32-deep k-block (64 int32 = 16 SSE registers' worth).
constexpr std::size_t kQMR = 4;
constexpr std::size_t kQNR = 16;

// Dynamically quantized activations: one symmetric scale per row, codes
// pre-widened to int16 (the operand width the SSE2-baseline widening
// multiply wants). Reused as a thread_local so decode steps don't allocate.
struct QuantizedRows {
  std::vector<std::int16_t> values;
  std::vector<float> scales;
};

void quantize_rows(const Tensor& x, QuantizedRows& out) {
  const std::size_t m = x.rows(), k = x.cols();
  if (out.values.size() < m * k) out.values.resize(m * k);
  if (out.scales.size() < m) out.scales.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = x.row(i);
    float amax = 0.0f;
    for (std::size_t p = 0; p < k; ++p) {
      amax = std::max(amax, std::fabs(row[p]));
    }
    const float scale = amax / 127.0f;
    out.scales[i] = scale;
    float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    if (!std::isfinite(inv)) inv = 0.0f;  // denormal amax: degrade to zeros
    std::int16_t* qrow = out.values.data() + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const long q = std::lround(row[p] * inv);
      qrow[p] = static_cast<std::int16_t>(std::clamp<long>(q, -127, 127));
    }
  }
}

#ifdef ODLP_QOPS_SSE2
// Broadcasts the (x0, x1) activation pair into every int16 lane-pair of an
// XMM register, the left operand pmaddwd wants.
inline __m128i broadcast_pair(std::int32_t x0, std::int32_t x1) {
  return _mm_set1_epi32(static_cast<std::int32_t>(
      static_cast<std::uint16_t>(x0) |
      (static_cast<std::uint32_t>(static_cast<std::uint16_t>(x1)) << 16)));
}

// Sign-extends 16 int8 weights to two int16x8 halves (SSE2 has no pmovsxbw;
// unpack into the high byte and shift arithmetically back down).
inline void widen_i8x16(const std::int8_t* w, __m128i& lo, __m128i& hi) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(w));
  lo = _mm_srai_epi16(_mm_unpacklo_epi8(zero, raw), 8);
  hi = _mm_srai_epi16(_mm_unpackhi_epi8(zero, raw), 8);
}

// acc[j..j+3] += x0·w0[j] + x1·w1[j] for the four int32 lanes of `acc`,
// where `iw` holds interleaved (w0[j], w1[j]) int16 pairs.
inline void madd_accumulate(__m128i* acc, __m128i xp, __m128i iw) {
  _mm_storeu_si128(acc, _mm_add_epi32(_mm_loadu_si128(acc),
                                      _mm_madd_epi16(xp, iw)));
}
#endif  // ODLP_QOPS_SSE2

// m < kQMR rows (the m=1 decode step): stream the whole weight once per row,
// j-inner with the k loop advanced two weight rows at a time. Per k-block
// the int32 accumulator row is exact, then the fp32 fixup adds sx·sw·acc in
// ascending block order. Odd-length block tails reuse the k-pair body with
// x1 = 0 (and w1 aliased to w0 so the dead load stays in bounds).
//
// Each kernel comes in per-SIMD-level variants with an identical signature
// (scalar and, on x86, SSE2 here; AVX2 in qops_avx2.cpp); qmatmul_into picks
// one per call from tensor::active_simd_level(). The integer block sums are
// exact in every variant, so the level is invisible in the results.
void qgemm_small_rows_scalar(const std::int16_t* qx, const float* sx,
                             std::size_t K, std::size_t N,
                             const std::int8_t* qw, const float* sw,
                             std::size_t nblocks, float* c, std::size_t ldc,
                             bool accumulate, std::size_t i0, std::size_t i1) {
  thread_local std::vector<std::int32_t> accbuf;
  if (accbuf.size() < N) accbuf.resize(N);
  std::int32_t* __restrict__ acc = accbuf.data();
  for (std::size_t i = i0; i < i1; ++i) {
    float* __restrict__ crow = c + i * ldc;
    if (!accumulate) std::fill(crow, crow + N, 0.0f);
    const std::int16_t* qrow = qx + i * K;
    const float sxr = sx[i];
    for (std::size_t kb = 0; kb < nblocks; ++kb) {
      const std::size_t p0 = kb * kQuantBlock;
      const std::size_t p1 = std::min(K, p0 + kQuantBlock);
      std::memset(acc, 0, N * sizeof(std::int32_t));
      for (std::size_t p = p0; p < p1; p += 2) {
        const bool has_pair = p + 1 < p1;
        const std::int32_t x0 = qrow[p];
        const std::int32_t x1 = has_pair ? qrow[p + 1] : 0;
        const std::int8_t* __restrict__ w0 = qw + p * N;
        const std::int8_t* __restrict__ w1 = has_pair ? w0 + N : w0;
        for (std::size_t j = 0; j < N; ++j) {
          acc[j] += x0 * static_cast<std::int32_t>(w0[j]) +
                    x1 * static_cast<std::int32_t>(w1[j]);
        }
      }
      const float* __restrict__ swb = sw + kb * N;
      for (std::size_t j = 0; j < N; ++j) {
        crow[j] += sxr * swb[j] * static_cast<float>(acc[j]);
      }
    }
  }
}

#ifdef ODLP_QOPS_SSE2
void qgemm_small_rows_sse2(const std::int16_t* qx, const float* sx,
                           std::size_t K, std::size_t N, const std::int8_t* qw,
                           const float* sw, std::size_t nblocks, float* c,
                           std::size_t ldc, bool accumulate, std::size_t i0,
                           std::size_t i1) {
  thread_local std::vector<std::int32_t> accbuf;
  if (accbuf.size() < N) accbuf.resize(N);
  std::int32_t* __restrict__ acc = accbuf.data();
  for (std::size_t i = i0; i < i1; ++i) {
    float* __restrict__ crow = c + i * ldc;
    if (!accumulate) std::fill(crow, crow + N, 0.0f);
    const std::int16_t* qrow = qx + i * K;
    const float sxr = sx[i];
    for (std::size_t kb = 0; kb < nblocks; ++kb) {
      const std::size_t p0 = kb * kQuantBlock;
      const std::size_t p1 = std::min(K, p0 + kQuantBlock);
      std::memset(acc, 0, N * sizeof(std::int32_t));
      for (std::size_t p = p0; p < p1; p += 2) {
        const bool has_pair = p + 1 < p1;
        const std::int32_t x0 = qrow[p];
        const std::int32_t x1 = has_pair ? qrow[p + 1] : 0;
        const std::int8_t* __restrict__ w0 = qw + p * N;
        const std::int8_t* __restrict__ w1 = has_pair ? w0 + N : w0;
        std::size_t j = 0;
        const __m128i xp = broadcast_pair(x0, x1);
        for (; j + 16 <= N; j += 16) {
          __m128i a0lo, a0hi, a1lo, a1hi;
          widen_i8x16(w0 + j, a0lo, a0hi);
          widen_i8x16(w1 + j, a1lo, a1hi);
          __m128i* ap = reinterpret_cast<__m128i*>(acc + j);
          madd_accumulate(ap + 0, xp, _mm_unpacklo_epi16(a0lo, a1lo));
          madd_accumulate(ap + 1, xp, _mm_unpackhi_epi16(a0lo, a1lo));
          madd_accumulate(ap + 2, xp, _mm_unpacklo_epi16(a0hi, a1hi));
          madd_accumulate(ap + 3, xp, _mm_unpackhi_epi16(a0hi, a1hi));
        }
        for (; j < N; ++j) {
          acc[j] += x0 * static_cast<std::int32_t>(w0[j]) +
                    x1 * static_cast<std::int32_t>(w1[j]);
        }
      }
      const float* __restrict__ swb = sw + kb * N;
      for (std::size_t j = 0; j < N; ++j) {
        crow[j] += sxr * swb[j] * static_cast<float>(acc[j]);
      }
    }
  }
}
#endif  // ODLP_QOPS_SSE2

// m ≥ kQMR: quads of C rows × kQNR-wide column tiles share one streamed
// weight block; acc[kQMR][kQNR] int32 lives in registers across the 32-deep
// k loop, then the fp32 fixup runs per (block, tile). Per output element the
// work and fixup order are identical to the small path — only the traversal
// is tiled — so both paths (and any row partition) are bit-identical.
void qgemm_tiled_rows_scalar(const std::int16_t* qx, const float* sx,
                             std::size_t K, std::size_t N,
                             const std::int8_t* qw, const float* sw,
                             std::size_t nblocks, float* c, std::size_t ldc,
                             bool accumulate, std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; i += kQMR) {
    const std::size_t mr = std::min(kQMR, i1 - i);
    if (!accumulate) {
      for (std::size_t r = 0; r < mr; ++r) {
        float* crow = c + (i + r) * ldc;
        std::fill(crow, crow + N, 0.0f);
      }
    }
    for (std::size_t kb = 0; kb < nblocks; ++kb) {
      const std::size_t p0 = kb * kQuantBlock;
      const std::size_t p1 = std::min(K, p0 + kQuantBlock);
      const float* __restrict__ swb = sw + kb * N;
      for (std::size_t j0 = 0; j0 < N; j0 += kQNR) {
        const std::size_t nr = std::min(kQNR, N - j0);
        std::int32_t acc[kQMR * kQNR] = {};
        if (mr == kQMR && nr == kQNR) {
          for (std::size_t p = p0; p < p1; ++p) {
            const std::int8_t* __restrict__ wrow = qw + p * N + j0;
            const std::int32_t x0 = qx[(i + 0) * K + p];
            const std::int32_t x1 = qx[(i + 1) * K + p];
            const std::int32_t x2 = qx[(i + 2) * K + p];
            const std::int32_t x3 = qx[(i + 3) * K + p];
            for (std::size_t j = 0; j < kQNR; ++j) {
              const std::int32_t wv = wrow[j];
              acc[0 * kQNR + j] += x0 * wv;
              acc[1 * kQNR + j] += x1 * wv;
              acc[2 * kQNR + j] += x2 * wv;
              acc[3 * kQNR + j] += x3 * wv;
            }
          }
        } else {
          for (std::size_t p = p0; p < p1; ++p) {
            const std::int8_t* __restrict__ wrow = qw + p * N + j0;
            for (std::size_t r = 0; r < mr; ++r) {
              const std::int32_t xv = qx[(i + r) * K + p];
              for (std::size_t j = 0; j < nr; ++j) {
                acc[r * kQNR + j] += xv * static_cast<std::int32_t>(wrow[j]);
              }
            }
          }
        }
        for (std::size_t r = 0; r < mr; ++r) {
          float* __restrict__ crow = c + (i + r) * ldc + j0;
          const float sxr = sx[i + r];
          const float* __restrict__ swt = swb + j0;
          const std::int32_t* arow = acc + r * kQNR;
          for (std::size_t j = 0; j < nr; ++j) {
            crow[j] += sxr * swt[j] * static_cast<float>(arow[j]);
          }
        }
      }
    }
  }
}

#ifdef ODLP_QOPS_SSE2
void qgemm_tiled_rows_sse2(const std::int16_t* qx, const float* sx,
                           std::size_t K, std::size_t N, const std::int8_t* qw,
                           const float* sw, std::size_t nblocks, float* c,
                           std::size_t ldc, bool accumulate, std::size_t i0,
                           std::size_t i1) {
  for (std::size_t i = i0; i < i1; i += kQMR) {
    const std::size_t mr = std::min(kQMR, i1 - i);
    if (!accumulate) {
      for (std::size_t r = 0; r < mr; ++r) {
        float* crow = c + (i + r) * ldc;
        std::fill(crow, crow + N, 0.0f);
      }
    }
    for (std::size_t kb = 0; kb < nblocks; ++kb) {
      const std::size_t p0 = kb * kQuantBlock;
      const std::size_t p1 = std::min(K, p0 + kQuantBlock);
      const float* __restrict__ swb = sw + kb * N;
      for (std::size_t j0 = 0; j0 < N; j0 += kQNR) {
        const std::size_t nr = std::min(kQNR, N - j0);
        std::int32_t acc[kQMR * kQNR] = {};
        if (mr == kQMR && nr == kQNR) {
          // Same k-pair pmaddwd step as the small path, with the widened +
          // interleaved weight tile shared across the four C rows.
          __m128i vacc[kQMR][4];
          for (std::size_t r = 0; r < kQMR; ++r) {
            for (std::size_t t = 0; t < 4; ++t) {
              vacc[r][t] = _mm_setzero_si128();
            }
          }
          for (std::size_t p = p0; p < p1; p += 2) {
            const bool has_pair = p + 1 < p1;
            const std::int8_t* __restrict__ w0 = qw + p * N + j0;
            const std::int8_t* __restrict__ w1 = has_pair ? w0 + N : w0;
            __m128i a0lo, a0hi, a1lo, a1hi;
            widen_i8x16(w0, a0lo, a0hi);
            widen_i8x16(w1, a1lo, a1hi);
            const __m128i iw[4] = {_mm_unpacklo_epi16(a0lo, a1lo),
                                   _mm_unpackhi_epi16(a0lo, a1lo),
                                   _mm_unpacklo_epi16(a0hi, a1hi),
                                   _mm_unpackhi_epi16(a0hi, a1hi)};
            for (std::size_t r = 0; r < kQMR; ++r) {
              const std::int16_t* xrow = qx + (i + r) * K;
              const __m128i xp = broadcast_pair(
                  xrow[p], has_pair ? xrow[p + 1] : 0);
              for (std::size_t t = 0; t < 4; ++t) {
                vacc[r][t] =
                    _mm_add_epi32(vacc[r][t], _mm_madd_epi16(xp, iw[t]));
              }
            }
          }
          for (std::size_t r = 0; r < kQMR; ++r) {
            for (std::size_t t = 0; t < 4; ++t) {
              _mm_storeu_si128(
                  reinterpret_cast<__m128i*>(acc + r * kQNR + 4 * t),
                  vacc[r][t]);
            }
          }
        } else {
          for (std::size_t p = p0; p < p1; ++p) {
            const std::int8_t* __restrict__ wrow = qw + p * N + j0;
            for (std::size_t r = 0; r < mr; ++r) {
              const std::int32_t xv = qx[(i + r) * K + p];
              for (std::size_t j = 0; j < nr; ++j) {
                acc[r * kQNR + j] += xv * static_cast<std::int32_t>(wrow[j]);
              }
            }
          }
        }
        for (std::size_t r = 0; r < mr; ++r) {
          float* __restrict__ crow = c + (i + r) * ldc + j0;
          const float sxr = sx[i + r];
          const float* __restrict__ swt = swb + j0;
          const std::int32_t* arow = acc + r * kQNR;
          for (std::size_t j = 0; j < nr; ++j) {
            crow[j] += sxr * swt[j] * static_cast<float>(arow[j]);
          }
        }
      }
    }
  }
}
#endif  // ODLP_QOPS_SSE2

// Shared signature of every qgemm row-kernel variant.
using QGemmRowsFn = void (*)(const std::int16_t*, const float*, std::size_t,
                             std::size_t, const std::int8_t*, const float*,
                             std::size_t, float*, std::size_t, bool,
                             std::size_t, std::size_t);

}  // namespace

void qmatmul_into(const Tensor& x, const QuantizedTensor& w, Tensor& out,
                  bool accumulate) {
  assert(w.axis() == QuantAxis::kAlongRows);
  assert(x.cols() == w.rows());
  const std::size_t M = x.rows(), K = x.cols(), N = w.cols();
  if (!accumulate) out.resize_uninitialized(M, N);
  assert(out.rows() == M && out.cols() == N);
  assert(out.data() != x.data());
  if (M == 0 || N == 0) return;
  if (K == 0) {
    if (!accumulate) out.zero();
    return;
  }
  thread_local QuantizedRows qa;
  quantize_rows(x, qa);
  const std::int16_t* qx = qa.values.data();
  const float* sx = qa.scales.data();
  const std::int8_t* qw = w.values();
  const float* sw = w.scales();
  const std::size_t nblocks = w.blocks();
  float* c = out.data();
  const bool tiled = M >= kQMR;
  // Kernel variant selection happens once per call. Every variant is bit-identical — exact int32 block sums feeding
  // the shared fp32 fixup — so the level affects throughput only.
  QGemmRowsFn small_fn = qgemm_small_rows_scalar;
  QGemmRowsFn tiled_fn = qgemm_tiled_rows_scalar;
  const SimdLevel level = active_simd_level();
#ifdef ODLP_QOPS_SSE2
  if (level >= SimdLevel::kSse2) {
    small_fn = qgemm_small_rows_sse2;
    tiled_fn = qgemm_tiled_rows_sse2;
  }
#endif
#ifdef ODLP_SIMD_KERNELS_X86
  if (level >= SimdLevel::kAvx2) {
    small_fn = detail::qgemm_small_rows_avx2;
    tiled_fn = detail::qgemm_tiled_rows_avx2;
  }
#ifdef ODLP_HAVE_AVXVNNI
  // kVnni upgrades only the tiled kernel; the small path stays AVX2 (it is
  // weight-streaming-bound — see qops_vnni.cpp).
  if (level >= SimdLevel::kVnni) {
    tiled_fn = detail::qgemm_tiled_rows_vnni;
  }
#endif
#endif
  const QGemmRowsFn rows_fn = tiled ? tiled_fn : small_fn;
  rows_fn(qx, sx, K, N, qw, sw, nblocks, c, N, accumulate, 0, M);
}

Tensor qmatmul(const Tensor& x, const QuantizedTensor& w) {
  Tensor out;
  qmatmul_into(x, w, out);
  return out;
}

Tensor qmatmul_reference(const Tensor& x, const QuantizedTensor& w) {
  assert(w.axis() == QuantAxis::kAlongRows);
  assert(x.cols() == w.rows());
  const std::size_t M = x.rows(), K = x.cols(), N = w.cols();
  Tensor out(M, N, 0.0f);
  if (M == 0 || N == 0 || K == 0) return out;
  QuantizedRows qa;
  quantize_rows(x, qa);
  const std::int8_t* qw = w.values();
  const float* sw = w.scales();
  for (std::size_t i = 0; i < M; ++i) {
    const std::int16_t* qrow = qa.values.data() + i * K;
    const float sxr = qa.scales[i];
    float* crow = out.row(i);
    for (std::size_t kb = 0; kb < w.blocks(); ++kb) {
      const std::size_t p0 = kb * kQuantBlock;
      const std::size_t p1 = std::min(K, p0 + kQuantBlock);
      const float* swb = sw + kb * N;
      for (std::size_t j = 0; j < N; ++j) {
        std::int32_t acc = 0;
        for (std::size_t p = p0; p < p1; ++p) {
          acc += static_cast<std::int32_t>(qrow[p]) *
                 static_cast<std::int32_t>(qw[p * N + j]);
        }
        // The identical fixup expression as the tiled/small kernels — the
        // int32 sum is exact, so this line alone decides bit-equality.
        crow[j] += sxr * swb[j] * static_cast<float>(acc);
      }
    }
  }
  return out;
}

}  // namespace odlp::tensor
