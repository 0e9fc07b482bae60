// AVX2 builds of the int8 GEMM row kernels (vpmaddubsw + vpmaddwd k-quad
// step). Compiled -mavx2 -O3 -ffp-contract=off in its own TU
// (src/CMakeLists.txt) so no AVX instruction leaks into the portable build;
// the dispatcher in qops.cpp only calls in here once active_simd_level()
// confirms AVX2.
//
// Per k-quad (four consecutive k positions inside one quant block) and
// 16-column tile, the weight rows are shuffled into per-column k-quads
// (one 32-bit lane = the 4 weights of one column) and each activation quad
// is broadcast twice: |x| bytes as the unsigned vpmaddubsw operand and the
// raw bytes as a sign source. vpsignb folds the activation signs into the
// weights — exact because quantized codes never reach −128 (QuantizedTensor
// clamps to ±127, qops.cpp clamps activations to ±127) — then
// vpmaddubsw(|x|, sign(w,x)) forms int16 pair sums (max |127·127·2| = 32258,
// no saturation) and vpmaddwd against ones collapses them into one int32 per
// column. Integer sums are exact in any order, so the per-block accumulators
// are bit-identical to the scalar/SSE2/reference kernels and the shared fp32
// fixup line keeps the whole product bit-exact across dispatch levels.
#include "tensor/simd_kernels.h"

#ifdef ODLP_SIMD_KERNELS_X86

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "tensor/qtensor.h"  // kQuantBlock

namespace odlp::tensor::detail {

namespace {

// Same register tile as qops.cpp: 4 C rows × 16 int32 accumulators.
constexpr std::size_t kQMR = 4;
constexpr std::size_t kQNR = 16;

// Loads a 4(k) × 16(col) int8 weight tile (row stride `stride`) and shuffles
// it into per-column k-quads: q07 columns 0..7, q8f columns 8..15, each
// 32-bit lane holding one column's four consecutive-k weights in k order.
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
  const __m128i lo01 = _mm_unpacklo_epi8(r0, r1);  // (w0,w1) pairs, cols 0..7
  const __m128i hi01 = _mm_unpackhi_epi8(r0, r1);  // cols 8..15
  const __m128i lo23 = _mm_unpacklo_epi8(r2, r3);  // (w2,w3) pairs, cols 0..7
  const __m128i hi23 = _mm_unpackhi_epi8(r2, r3);  // cols 8..15
  q07 = _mm256_set_m128i(_mm_unpackhi_epi16(lo01, lo23),   // cols 4..7
                         _mm_unpacklo_epi16(lo01, lo23));  // cols 0..3
  q8f = _mm256_set_m128i(_mm_unpackhi_epi16(hi01, hi23),   // cols 12..15
                         _mm_unpacklo_epi16(hi01, hi23));  // cols 8..11
}

// Broadcasts one activation k-quad into every 32-bit lane: xabs carries the
// magnitudes (unsigned vpmaddubsw operand), xsgn the raw signed bytes
// (vpsignb source). Codes are int16 in storage but always fit int8 (±127).
inline void broadcast_kquad(const std::int16_t* x, __m256i& xabs,
                            __m256i& xsgn) {
  const std::int32_t x0 = x[0], x1 = x[1], x2 = x[2], x3 = x[3];
  const auto raw8 = [](std::int32_t v) {
    return static_cast<std::uint32_t>(static_cast<std::uint8_t>(v));
  };
  const auto abs8 = [](std::int32_t v) {
    return static_cast<std::uint32_t>(
        static_cast<std::uint8_t>(v < 0 ? -v : v));
  };
  xabs = _mm256_set1_epi32(static_cast<std::int32_t>(
      abs8(x0) | (abs8(x1) << 8) | (abs8(x2) << 16) | (abs8(x3) << 24)));
  xsgn = _mm256_set1_epi32(static_cast<std::int32_t>(
      raw8(x0) | (raw8(x1) << 8) | (raw8(x2) << 16) | (raw8(x3) << 24)));
}

// acc[lane] += Σ_{q<4} x_q · w_q for the column in that lane. vpsignb also
// zeroes weights where x == 0, which is exact since |x| = 0 there anyway.
inline __m256i kquad_dot(__m256i xabs, __m256i xsgn, __m256i wq, __m256i acc,
                         __m256i ones) {
  const __m256i signed_w = _mm256_sign_epi8(wq, xsgn);
  const __m256i pairs = _mm256_maddubs_epi16(xabs, signed_w);
  return _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
}

}  // namespace

void qgemm_small_rows_avx2(const std::int16_t* qx, const float* sx,
                           std::size_t K, std::size_t N, const std::int8_t* qw,
                           const float* sw, std::size_t nblocks, float* c,
                           std::size_t ldc, bool accumulate, std::size_t i0,
                           std::size_t i1) {
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::size_t i = i0; i < i1; ++i) {
    float* __restrict__ crow = c + i * ldc;
    if (!accumulate) std::fill(crow, crow + N, 0.0f);
    const std::int16_t* qrow = qx + i * K;
    const float sxr = sx[i];
    for (std::size_t kb = 0; kb < nblocks; ++kb) {
      const std::size_t p0 = kb * kQuantBlock;
      const std::size_t p1 = std::min(K, p0 + kQuantBlock);
      const std::size_t quad_end = p0 + ((p1 - p0) & ~std::size_t{3});
      const std::size_t nquads = (quad_end - p0) / 4;
      const float* __restrict__ swb = sw + kb * N;
      // The activation k-quads depend only on k: pack them once per block
      // and reuse across every column tile, so the hot loop touches only
      // weight bytes and accumulators.
      __m256i xab[kQuantBlock / 4], xsg[kQuantBlock / 4];
      for (std::size_t q = 0; q < nquads; ++q) {
        broadcast_kquad(qrow + p0 + 4 * q, xab[q], xsg[q]);
      }
      std::size_t j0 = 0;
      for (; j0 + kQNR <= N; j0 += kQNR) {
        __m256i acc07 = _mm256_setzero_si256();
        __m256i acc8f = _mm256_setzero_si256();
        for (std::size_t q = 0; q < nquads; ++q) {
          __m256i q07, q8f;
          load_kquad_tile(qw + (p0 + 4 * q) * N + j0, N, q07, q8f);
          acc07 = kquad_dot(xab[q], xsg[q], q07, acc07, ones);
          acc8f = kquad_dot(xab[q], xsg[q], q8f, acc8f, ones);
        }
        alignas(32) std::int32_t acc[kQNR];
        _mm256_store_si256(reinterpret_cast<__m256i*>(acc), acc07);
        _mm256_store_si256(reinterpret_cast<__m256i*>(acc + 8), acc8f);
        // Block-length % 4 tail: integer adds are exact in any order, so
        // finishing the stragglers scalar keeps the block sum bit-identical.
        for (std::size_t p = quad_end; p < p1; ++p) {
          const std::int32_t xv = qrow[p];
          const std::int8_t* __restrict__ wrow = qw + p * N + j0;
          for (std::size_t j = 0; j < kQNR; ++j) {
            acc[j] += xv * static_cast<std::int32_t>(wrow[j]);
          }
        }
        float* __restrict__ cj = crow + j0;
        const float* __restrict__ swt = swb + j0;
        for (std::size_t j = 0; j < kQNR; ++j) {
          cj[j] += sxr * swt[j] * static_cast<float>(acc[j]);
        }
      }
      for (; j0 < N; ++j0) {
        std::int32_t acc = 0;
        for (std::size_t p = p0; p < p1; ++p) {
          acc += static_cast<std::int32_t>(qrow[p]) *
                 static_cast<std::int32_t>(qw[p * N + j0]);
        }
        crow[j0] += sxr * swb[j0] * static_cast<float>(acc);
      }
    }
  }
}

void qgemm_tiled_rows_avx2(const std::int16_t* qx, const float* sx,
                           std::size_t K, std::size_t N, const std::int8_t* qw,
                           const float* sw, std::size_t nblocks, float* c,
                           std::size_t ldc, bool accumulate, std::size_t i0,
                           std::size_t i1) {
  const __m256i ones = _mm256_set1_epi16(1);
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
      // quads once per block and reuse them across every column tile. This
      // is the batching payoff — the hot loop streams weight bytes once and
      // amortizes both the stream and the tile shuffle over four C rows.
      __m256i xab[kQMR][kQuantBlock / 4], xsg[kQMR][kQuantBlock / 4];
      if (mr == kQMR) {
        for (std::size_t r = 0; r < kQMR; ++r) {
          for (std::size_t q = 0; q < nquads; ++q) {
            broadcast_kquad(qx + (i + r) * K + p0 + 4 * q, xab[r][q],
                            xsg[r][q]);
          }
        }
      }
      for (std::size_t j0 = 0; j0 < N; j0 += kQNR) {
        const std::size_t nr = std::min(kQNR, N - j0);
        std::int32_t acc[kQMR * kQNR] = {};
        if (mr == kQMR && nr == kQNR) {
          // The shuffled weight tile is shared across the four C rows.
          __m256i vacc[kQMR][2];
          for (std::size_t r = 0; r < kQMR; ++r) {
            vacc[r][0] = _mm256_setzero_si256();
            vacc[r][1] = _mm256_setzero_si256();
          }
          for (std::size_t q = 0; q < nquads; ++q) {
            __m256i q07, q8f;
            load_kquad_tile(qw + (p0 + 4 * q) * N + j0, N, q07, q8f);
            for (std::size_t r = 0; r < kQMR; ++r) {
              vacc[r][0] = kquad_dot(xab[r][q], xsg[r][q], q07, vacc[r][0], ones);
              vacc[r][1] = kquad_dot(xab[r][q], xsg[r][q], q8f, vacc[r][1], ones);
            }
          }
          for (std::size_t r = 0; r < kQMR; ++r) {
            _mm256_storeu_si256(
                reinterpret_cast<__m256i*>(acc + r * kQNR), vacc[r][0]);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i*>(acc + r * kQNR + 8), vacc[r][1]);
          }
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

#endif  // ODLP_SIMD_KERNELS_X86
