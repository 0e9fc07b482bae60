// AVX-VNNI build of the tiled int8 GEMM row kernel. Compiled -mavxvnni -O3
// -ffp-contract=off in its own TU (src/CMakeLists.txt, gated on the
// toolchain supporting the flag via ODLP_HAVE_AVXVNNI); the dispatcher in
// qops.cpp only calls in here once active_simd_level() confirms kVnni.
//
// vpdpbusd multiplies unsigned×signed byte quads and accumulates the exact
// widened sum into int32 lanes — the whole sign/maddubs/madd/add chain of
// the AVX2 kernel in one instruction, and with no int16 saturation hazard
// (the four products are widened before summing). vpdpbusd wants an
// unsigned×signed operand pair, but both our operands are signed, so the
// kernel biases the WEIGHTS: wu = w ⊕ 0x80 = w + 128 ∈ [1, 255] (codes
// clamp to ±127, so the bias never wraps) — one vpxor per shuffled tile
// half — and accumulates
//
//   Σ wu·x  =  Σ w·x + 128·Σ x
//
// per (block, column). The correction term needs only Σ x over the block's
// vectorized k positions, a per-(row, block) scalar that falls out of the
// activation packing loop for free; it is broadcast-subtracted once per
// block before the fixup. Biasing the weights rather than the activations
// keeps Σw recomputation out of the inner loop entirely and leaves exactly
// 16 live ymm values (8 accumulators + the 8-register shuffle network), so
// nothing spills. Every step is integer and order-free, so the block sums
// are bit-identical to the scalar/SSE2/AVX2/reference kernels and the
// shared fp32 fixup keeps the whole product bit-exact across dispatch
// levels.
//
// There is deliberately no VNNI small-rows path: at m < 4 the GEMV step is
// bound by streaming the weight matrix, not by the multiply chain, so kVnni
// keeps dispatching small shapes to the AVX2 kernel (simd_kernels.h).
#include "tensor/simd_kernels.h"

#if defined(ODLP_SIMD_KERNELS_X86) && defined(ODLP_HAVE_AVXVNNI)

#include <immintrin.h>

#include <algorithm>

#include "tensor/qtensor.h"  // kQuantBlock

namespace odlp::tensor::detail {

namespace {

// Same register tile as qops.cpp: 4 C rows × 16 int32 accumulators.
constexpr std::size_t kQMR = 4;
constexpr std::size_t kQNR = 16;

// Identical weight-tile shuffle as qops_avx2.cpp: 4(k) × 16(col) int8 tile
// into per-column k-quads, one 32-bit lane per column.
inline void load_kquad_tile(const std::int8_t* w, std::size_t stride,
                            __m256i& q07, __m256i& q8f) {
  const __m128i r0 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(w));
  const __m128i r1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + stride));
  const __m128i r2 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + 2 * stride));
  const __m128i r3 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + 3 * stride));
  const __m128i lo01 = _mm_unpacklo_epi8(r0, r1);
  const __m128i hi01 = _mm_unpackhi_epi8(r0, r1);
  const __m128i lo23 = _mm_unpacklo_epi8(r2, r3);
  const __m128i hi23 = _mm_unpackhi_epi8(r2, r3);
  q07 = _mm256_set_m128i(_mm_unpackhi_epi16(lo01, lo23),
                         _mm_unpacklo_epi16(lo01, lo23));
  q8f = _mm256_set_m128i(_mm_unpackhi_epi16(hi01, hi23),
                         _mm_unpacklo_epi16(hi01, hi23));
}

// Broadcasts one activation k-quad (raw signed bytes — the signed vpdpbusd
// operand) into every 32-bit lane. Codes are int16 in storage but always
// fit ±127.
inline __m256i broadcast_kquad(const std::int16_t* x) {
  const auto u8 = [](std::int32_t v) {
    return static_cast<std::uint32_t>(static_cast<std::uint8_t>(v));
  };
  return _mm256_set1_epi32(static_cast<std::int32_t>(
      u8(x[0]) | (u8(x[1]) << 8) | (u8(x[2]) << 16) | (u8(x[3]) << 24)));
}

}  // namespace

void qgemm_tiled_rows_vnni(const std::int16_t* qx, const float* sx,
                           std::size_t K, std::size_t N, const std::int8_t* qw,
                           const float* sw, std::size_t nblocks, float* c,
                           std::size_t ldc, bool accumulate, std::size_t i0,
                           std::size_t i1) {
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
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
      const std::size_t quad_end = p0 + ((p1 - p0) & ~std::size_t{3});
      const std::size_t nquads = (quad_end - p0) / 4;
      const float* __restrict__ swb = sw + kb * N;
      // Activation k-quads depend only on (row, k): pack all four rows'
      // quads once per block and reuse them across every column tile. The
      // packing pass also yields Σx over the vectorized k positions — the
      // weight-bias correction term, one int32 per row per block.
      __m256i xq[kQMR][kQuantBlock / 4];
      std::int32_t xsum[kQMR] = {};
      if (mr == kQMR) {
        for (std::size_t r = 0; r < kQMR; ++r) {
          const std::int16_t* xrow = qx + (i + r) * K;
          for (std::size_t q = 0; q < nquads; ++q) {
            const std::int16_t* xp = xrow + p0 + 4 * q;
            xq[r][q] = broadcast_kquad(xp);
            xsum[r] += xp[0] + xp[1] + xp[2] + xp[3];
          }
        }
      }
      for (std::size_t j0 = 0; j0 < N; j0 += kQNR) {
        const std::size_t nr = std::min(kQNR, N - j0);
        std::int32_t acc[kQMR * kQNR] = {};
        if (mr == kQMR && nr == kQNR) {
          // One biased shuffled weight tile shared across the four C rows:
          // per k-quad the inner loop is two vpxor and eight vpdpbusd. The
          // accumulators are named locals (not an array) so they stay
          // pinned in ymm registers — with an indexed array GCC
          // round-trips every accumulator through the stack each k-quad,
          // which costs more than the dpbusd itself.
          __m256i a0l = _mm256_setzero_si256(), a0h = a0l, a1l = a0l,
                  a1h = a0l, a2l = a0l, a2h = a0l, a3l = a0l, a3h = a0l;
          for (std::size_t q = 0; q < nquads; ++q) {
            __m256i q07, q8f;
            load_kquad_tile(qw + (p0 + 4 * q) * N + j0, N, q07, q8f);
            q07 = _mm256_xor_si256(q07, bias);  // w + 128, now unsigned
            q8f = _mm256_xor_si256(q8f, bias);
            a0l = _mm256_dpbusd_avx_epi32(a0l, q07, xq[0][q]);
            a0h = _mm256_dpbusd_avx_epi32(a0h, q8f, xq[0][q]);
            a1l = _mm256_dpbusd_avx_epi32(a1l, q07, xq[1][q]);
            a1h = _mm256_dpbusd_avx_epi32(a1h, q8f, xq[1][q]);
            a2l = _mm256_dpbusd_avx_epi32(a2l, q07, xq[2][q]);
            a2h = _mm256_dpbusd_avx_epi32(a2h, q8f, xq[2][q]);
            a3l = _mm256_dpbusd_avx_epi32(a3l, q07, xq[3][q]);
            a3h = _mm256_dpbusd_avx_epi32(a3h, q8f, xq[3][q]);
          }
          // Undo the +128 weight bias: acc = Σ(w+128)·x − 128·Σx.
          const __m256i rl[kQMR] = {a0l, a1l, a2l, a3l};
          const __m256i rh[kQMR] = {a0h, a1h, a2h, a3h};
          for (std::size_t r = 0; r < kQMR; ++r) {
            const __m256i corr = _mm256_set1_epi32(128 * xsum[r]);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i*>(acc + r * kQNR),
                _mm256_sub_epi32(rl[r], corr));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i*>(acc + r * kQNR + 8),
                _mm256_sub_epi32(rh[r], corr));
          }
          // Block-length % 4 tail: integer adds are exact in any order, so
          // the unbiased scalar stragglers keep the block sum bit-identical.
          for (std::size_t p = quad_end; p < p1; ++p) {
            const std::int8_t* __restrict__ wrow = qw + p * N + j0;
            for (std::size_t r = 0; r < kQMR; ++r) {
              const std::int32_t xv = qx[(i + r) * K + p];
              for (std::size_t j = 0; j < kQNR; ++j) {
                acc[r * kQNR + j] += xv * static_cast<std::int32_t>(wrow[j]);
              }
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

}  // namespace odlp::tensor::detail

#endif  // ODLP_SIMD_KERNELS_X86 && ODLP_HAVE_AVXVNNI
