// Internal: per-ISA kernel entry points shared between the dispatching TUs
// (ops.cpp / qops.cpp) and the AVX2 TUs (ops_avx2.cpp / qops_avx2.cpp, built
// with -mavx2 -O3 -ffp-contract=off — see src/CMakeLists.txt). Keeping the
// AVX2 bodies in their own TUs means the rest of the library never emits AVX
// instructions, so the binary still runs on SSE2-only hosts; the dispatcher
// only calls these after tensor::active_simd_level() confirms AVX2.
//
// Every entry here is bit-identical to its portable sibling: the fp32 tile
// performs the same per-element multiply/add sequence (no FMA — the TU is
// compiled -ffp-contract=off and uses explicit mul+add intrinsics), and the
// int8 kernels produce exact int32 block sums feeding the shared fp32 fixup
// expression.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define ODLP_SIMD_KERNELS_X86 1
#endif

namespace odlp::tensor::detail {

// fp32 GEMM geometry, shared by the portable row loop (ops.cpp) and the
// AVX2 one (ops_avx2.cpp): C is computed in kMR-row quads × kNR-wide column
// panels per kKC-deep k-block. The portable micro-kernel holds a kMR×kNR
// accumulator tile; the AVX2 loop runs two adjacent panels at once (a
// kMR×2·kNR tile). Both read A in place (AQuad) and B through the same
// panel source (BPanels).
inline constexpr std::size_t kMR = 4;
inline constexpr std::size_t kNR = 8;
inline constexpr std::size_t kKC = 256;

// A GEMM operand viewed through an optional transpose: logical element
// [r][c] lives at data[c*ld + r] when trans, data[r*ld + c] otherwise.
struct Operand {
  const float* data;
  std::size_t ld;
  bool trans;
};

// Known-zero work a product skips (tensor::Triangle resolved per product,
// DESIGN.md §8). A square T×T operand is lower-triangular:
//  * kKPastRow (nn, A): quad rows [i, i+mr) stop k at i+mr;
//  * kKBeforeRow (tn, A = the transposed operand): they start k at i;
//  * kColsPastRow (nt, C): they compute only the panels up to column i+mr−1.
enum class Skip { kNone, kKPastRow, kKBeforeRow, kColsPastRow };

// The k range [k_lo, k_hi) and the panel count quad rows [i, i+mr) need.
struct QuadSpan {
  std::size_t k_lo, k_hi, panels;
};
inline QuadSpan quad_span(Skip skip, std::size_t i, std::size_t mr,
                          std::size_t K, std::size_t panels) {
  QuadSpan s{0, K, panels};
  if (skip == Skip::kKPastRow) s.k_hi = i + mr < K ? i + mr : K;
  if (skip == Skip::kKBeforeRow) s.k_lo = i;
  if (skip == Skip::kColsPastRow) {
    const std::size_t need = (i + mr - 1) / kNR + 1;
    s.panels = need < panels ? need : panels;
  }
  return s;
}

// Quad rows [i, i+mr) of A read in place from k index p: row r's element
// p+s lives at row[r][s*step]. Rows past mr repeat row mr−1, a valid row,
// and the row loops discard their results.
struct AQuad {
  const float* row[kMR];
  std::size_t step;
};
inline AQuad quad_at(const Operand& a, std::size_t i, std::size_t mr,
                     std::size_t p) {
  AQuad q;
  q.step = a.trans ? a.ld : 1;
  for (std::size_t r = 0; r < kMR; ++r) {
    const std::size_t ri = i + (r < mr ? r : mr - 1);
    q.row[r] = a.trans ? a.data + p * a.ld + ri : a.data + ri * a.ld + p;
  }
  return q;
}

// B's kNR-wide column panels as the row loops read them: row p of panel q
// (kNR floats) at panel(q) + p*step(q). They come from one packed block
// (`packed`: a PackedB, or per-call packing of a transposed B), or from B
// itself in place (`data`, row stride `ld`), whose partial last panel is
// packed on its own (`tail`). Packed panels zero-pad columns past N.
struct BPanels {
  const float* packed;
  const float* data;
  std::size_t ld;
  const float* tail;
  std::size_t K;
  std::size_t full;  // N / kNR
  const float* panel(std::size_t q) const {
    if (packed) return packed + q * K * kNR;
    return q < full ? data + q * kNR : tail;
  }
  std::size_t step(std::size_t q) const {
    return packed || q >= full ? kNR : ld;
  }
};

#ifdef ODLP_SIMD_KERNELS_X86

// AVX2 build of ops.cpp's tiled row loop: C[M×N] (+)= A · B (K deep) with
// B read through `b`, skipping the work `skip` names. Same k-blocks, same
// k ranges, same per-element op sequence as the portable loop, so the bytes
// match it.
void gemm_tiled_rows_avx2(const Operand& a, const BPanels& b, std::size_t M,
                          std::size_t K, std::size_t N, float* c,
                          std::size_t ldc, bool accumulate, Skip skip);

// AVX2 vpmaddubsw(+vpmaddwd) builds of qops.cpp's int8 row kernels. Same
// signature contract as the scalar/SSE2 variants: C rows [i0, i1) of
// out (+)= X[m,K] · Q(W)[K,N], with qx the int16-widened row codes, sx the
// per-row activation scales, and sw the per-(block, col) weight scales.
void qgemm_small_rows_avx2(const std::int16_t* qx, const float* sx,
                           std::size_t K, std::size_t N, const std::int8_t* qw,
                           const float* sw, std::size_t nblocks, float* c,
                           std::size_t ldc, bool accumulate, std::size_t i0,
                           std::size_t i1);
void qgemm_tiled_rows_avx2(const std::int16_t* qx, const float* sx,
                           std::size_t K, std::size_t N, const std::int8_t* qw,
                           const float* sw, std::size_t nblocks, float* c,
                           std::size_t ldc, bool accumulate, std::size_t i0,
                           std::size_t i1);

#ifdef ODLP_HAVE_AVXVNNI
// AVX-VNNI vpdpbusd build of the tiled kernel (qops_vnni.cpp, -mavxvnni).
// Same exact-int32-block-sum contract; there is deliberately no VNNI small
// path — the m<4 GEMV step is weight-streaming-bound, so kVnni dispatches it
// to qgemm_small_rows_avx2 (the win concentrates where rows amortize the
// stream).
void qgemm_tiled_rows_vnni(const std::int16_t* qx, const float* sx,
                           std::size_t K, std::size_t N, const std::int8_t* qw,
                           const float* sw, std::size_t nblocks, float* c,
                           std::size_t ldc, bool accumulate, std::size_t i0,
                           std::size_t i1);
#endif  // ODLP_HAVE_AVXVNNI

#endif  // ODLP_SIMD_KERNELS_X86

}  // namespace odlp::tensor::detail
