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
// started at zero when `first`). Per k step A's quad supplies four
// broadcast scalars, read where they lie, and each panel one 8-wide row.
inline void tile_4x16(const AQuad& a, const float* bp0, const float* bp1,
                      std::size_t bstep, std::size_t kc, float* c,
                      std::size_t ldc, bool first) {
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
  const float* a0 = a.row[0];
  const float* a1 = a.row[1];
  const float* a2 = a.row[2];
  const float* a3 = a.row[3];
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bp0);
    const __m256 b1 = _mm256_loadu_ps(bp1);
    __m256 av = _mm256_broadcast_ss(a0);
    c00 = _mm256_add_ps(c00, _mm256_mul_ps(av, b0));
    c01 = _mm256_add_ps(c01, _mm256_mul_ps(av, b1));
    av = _mm256_broadcast_ss(a1);
    c10 = _mm256_add_ps(c10, _mm256_mul_ps(av, b0));
    c11 = _mm256_add_ps(c11, _mm256_mul_ps(av, b1));
    av = _mm256_broadcast_ss(a2);
    c20 = _mm256_add_ps(c20, _mm256_mul_ps(av, b0));
    c21 = _mm256_add_ps(c21, _mm256_mul_ps(av, b1));
    av = _mm256_broadcast_ss(a3);
    c30 = _mm256_add_ps(c30, _mm256_mul_ps(av, b0));
    c31 = _mm256_add_ps(c31, _mm256_mul_ps(av, b1));
    a0 += a.step;
    a1 += a.step;
    a2 += a.step;
    a3 += a.step;
    bp0 += bstep;
    bp1 += bstep;
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

// acc[4×8] += A's quad × one B panel: the 4×8 tile for the staged edges (an
// odd or partial final panel, or an mr < 4 quad), one ymm per C row.
inline void tile_4x8_staged(const AQuad& a, const float* bp, std::size_t bstep,
                            std::size_t kc, float* acc) {
  __m256 c0 = _mm256_loadu_ps(acc + 0);
  __m256 c1 = _mm256_loadu_ps(acc + 8);
  __m256 c2 = _mm256_loadu_ps(acc + 16);
  __m256 c3 = _mm256_loadu_ps(acc + 24);
  const float* a0 = a.row[0];
  const float* a1 = a.row[1];
  const float* a2 = a.row[2];
  const float* a3 = a.row[3];
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256 b = _mm256_loadu_ps(bp);
    c0 = _mm256_add_ps(c0, _mm256_mul_ps(_mm256_broadcast_ss(a0), b));
    c1 = _mm256_add_ps(c1, _mm256_mul_ps(_mm256_broadcast_ss(a1), b));
    c2 = _mm256_add_ps(c2, _mm256_mul_ps(_mm256_broadcast_ss(a2), b));
    c3 = _mm256_add_ps(c3, _mm256_mul_ps(_mm256_broadcast_ss(a3), b));
    a0 += a.step;
    a1 += a.step;
    a2 += a.step;
    a3 += a.step;
    bp += bstep;
  }
  _mm256_storeu_ps(acc + 0, c0);
  _mm256_storeu_ps(acc + 8, c1);
  _mm256_storeu_ps(acc + 16, c2);
  _mm256_storeu_ps(acc + 24, c3);
}

}  // namespace

void gemm_tiled_rows_avx2(const Operand& a, const BPanels& b, std::size_t M,
                          std::size_t K, std::size_t N, float* c,
                          std::size_t ldc, bool accumulate, Skip skip) {
  static_assert(kMR == 4 && kNR == 8, "the tiles below hard-code 4 rows × 8");
  const std::size_t panels = (N + kNR - 1) / kNR;
  alignas(32) float acc[kMR * kNR];
  for (std::size_t p0 = 0; p0 < K; p0 += kKC) {
    const std::size_t p1 = std::min(K, p0 + kKC);
    const bool first = (p0 == 0) && !accumulate;
    for (std::size_t i = 0; i < M; i += kMR) {
      const std::size_t mr = std::min(kMR, M - i);
      const QuadSpan span = quad_span(skip, i, mr, K, panels);
      const std::size_t lo = std::max(p0, span.k_lo);
      const std::size_t hi = std::min(p1, span.k_hi);
      const std::size_t kc = hi > lo ? hi - lo : 0;
      if (kc == 0 && !first) continue;
      const AQuad quad = quad_at(a, i, mr, lo);
      std::size_t panel = 0;
      if (mr == kMR) {
        // Two adjacent full panels share one step (both in place or both
        // packed), so they run as one 4×16 tile.
        for (; panel + 2 <= span.panels && panel + 2 <= b.full; panel += 2) {
          const std::size_t bstep = b.step(panel);
          tile_4x16(quad, b.panel(panel) + lo * bstep,
                    b.panel(panel + 1) + lo * bstep, bstep, kc,
                    c + i * ldc + panel * kNR, ldc, first);
        }
      }
      for (; panel < span.panels; ++panel) {
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
        tile_4x8_staged(quad, b.panel(panel) + lo * bstep, bstep, kc, acc);
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
