// AVX2 build of the fp32 GEMM tiled row loop. This TU is compiled with
// -mavx2 -O3 -ffp-contract=off (src/CMakeLists.txt): isolated so the rest of
// the library stays runnable on SSE2-only hosts, -ffp-contract=off plus
// explicit mul+add intrinsics (never _mm256_fmadd_ps) so results cannot
// diverge from the portable micro_kernel — per output element both start
// from 0 (first k-block of a non-accumulating product) or from C, then
// perform the identical `acc += a*b` float sequence in ascending k, making
// the dispatch level invisible in the results (DESIGN.md §12).
#include "tensor/simd_kernels.h"

#ifdef ODLP_SIMD_KERNELS_X86

#include <immintrin.h>

#include <algorithm>

namespace odlp::tensor::detail {

namespace {

// The 4×16 register tile: C rows [0, 4) × two adjacent full 8-wide panels,
// eight ymm accumulators loaded from and stored back to C in place (or
// started at zero when `first`). Per k step the packed A quad supplies four
// broadcast scalars and each panel one 8-wide row.
inline void tile_4x16(const float* ap, const float* bp0, const float* bp1,
                      std::size_t kc, float* c, std::size_t ldc, bool first) {
  __m256 c00, c01, c10, c11, c20, c21, c30, c31;
  if (first) {
    c00 = c01 = c10 = c11 = c20 = c21 = c30 = c31 = _mm256_setzero_ps();
  } else {
    c00 = _mm256_loadu_ps(c + 0 * ldc);
    c01 = _mm256_loadu_ps(c + 0 * ldc + 8);
    c10 = _mm256_loadu_ps(c + 1 * ldc);
    c11 = _mm256_loadu_ps(c + 1 * ldc + 8);
    c20 = _mm256_loadu_ps(c + 2 * ldc);
    c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
    c30 = _mm256_loadu_ps(c + 3 * ldc);
    c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp0);
    const __m256 b1 = _mm256_loadu_ps(bp1);
    __m256 a = _mm256_broadcast_ss(ap + 0);
    c00 = _mm256_add_ps(c00, _mm256_mul_ps(a, b0));
    c01 = _mm256_add_ps(c01, _mm256_mul_ps(a, b1));
    a = _mm256_broadcast_ss(ap + 1);
    c10 = _mm256_add_ps(c10, _mm256_mul_ps(a, b0));
    c11 = _mm256_add_ps(c11, _mm256_mul_ps(a, b1));
    a = _mm256_broadcast_ss(ap + 2);
    c20 = _mm256_add_ps(c20, _mm256_mul_ps(a, b0));
    c21 = _mm256_add_ps(c21, _mm256_mul_ps(a, b1));
    a = _mm256_broadcast_ss(ap + 3);
    c30 = _mm256_add_ps(c30, _mm256_mul_ps(a, b0));
    c31 = _mm256_add_ps(c31, _mm256_mul_ps(a, b1));
    ap += kMR;
    bp0 += kNR;
    bp1 += kNR;
  }
  _mm256_storeu_ps(c + 0 * ldc, c00);
  _mm256_storeu_ps(c + 0 * ldc + 8, c01);
  _mm256_storeu_ps(c + 1 * ldc, c10);
  _mm256_storeu_ps(c + 1 * ldc + 8, c11);
  _mm256_storeu_ps(c + 2 * ldc, c20);
  _mm256_storeu_ps(c + 2 * ldc + 8, c21);
  _mm256_storeu_ps(c + 3 * ldc, c30);
  _mm256_storeu_ps(c + 3 * ldc + 8, c31);
}

// acc[4×8] += A-quad × one B panel: the 4×8 tile for the staged edges (an
// odd or partial final panel, or an mr < 4 quad), one ymm per C row.
inline void tile_4x8_staged(const float* ap, const float* bp, std::size_t kc,
                            float* acc) {
  __m256 c0 = _mm256_loadu_ps(acc + 0);
  __m256 c1 = _mm256_loadu_ps(acc + 8);
  __m256 c2 = _mm256_loadu_ps(acc + 16);
  __m256 c3 = _mm256_loadu_ps(acc + 24);
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256 b = _mm256_loadu_ps(bp);
    c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_broadcast_ss(ap + 0), b));
    c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_broadcast_ss(ap + 1), b));
    c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_broadcast_ss(ap + 2), b));
    c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_broadcast_ss(ap + 3), b));
    ap += kMR;
    bp += kNR;
  }
  _mm256_storeu_ps(acc + 0, c0);
  _mm256_storeu_ps(acc + 8, c1);
  _mm256_storeu_ps(acc + 16, c2);
  _mm256_storeu_ps(acc + 24, c3);
}

}  // namespace

void gemm_tiled_rows_avx2(const Operand& a, const float* bp, std::size_t K,
                          std::size_t N, float* c, std::size_t ldc,
                          bool accumulate, std::size_t i0, std::size_t i1) {
  static_assert(kMR == 4 && kNR == 8, "the tiles below hard-code 4 rows × 8");
  const std::size_t panels = (N + kNR - 1) / kNR;
  const std::size_t full_panels = N / kNR;
  alignas(32) float apack[kMR * kKC];
  alignas(32) float acc[kMR * kNR];
  for (std::size_t p0 = 0; p0 < K; p0 += kKC) {
    const std::size_t p1 = std::min(K, p0 + kKC);
    const std::size_t kc = p1 - p0;
    const bool first = (p0 == 0) && !accumulate;
    for (std::size_t i = i0; i < i1; i += kMR) {
      const std::size_t mr = std::min(kMR, i1 - i);
      pack_a(a, i, mr, p0, p1, apack);
      std::size_t panel = 0;
      if (mr == kMR) {
        for (; panel + 2 <= full_panels; panel += 2) {
          const float* bp0 = bp + panel * K * kNR + p0 * kNR;
          tile_4x16(apack, bp0, bp0 + K * kNR, kc, c + i * ldc + panel * kNR,
                    ldc, first);
        }
      }
      for (; panel < panels; ++panel) {
        const std::size_t j0 = panel * kNR;
        const std::size_t nr = std::min(kNR, N - j0);
        std::fill(acc, acc + kMR * kNR, 0.0f);
        if (!first) {
          for (std::size_t r = 0; r < mr; ++r) {
            const float* crow = c + (i + r) * ldc + j0;
            for (std::size_t j = 0; j < nr; ++j) acc[r * kNR + j] = crow[j];
          }
        }
        tile_4x8_staged(apack, bp + panel * K * kNR + p0 * kNR, kc, acc);
        for (std::size_t r = 0; r < mr; ++r) {
          float* crow = c + (i + r) * ldc + j0;
          for (std::size_t j = 0; j < nr; ++j) crow[j] = acc[r * kNR + j];
        }
      }
    }
  }
}

}  // namespace odlp::tensor::detail

#endif  // ODLP_SIMD_KERNELS_X86
