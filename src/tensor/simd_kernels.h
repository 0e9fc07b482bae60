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
// AVX2 one (ops_avx2.cpp): A is packed into kMR-row quads per kKC-deep
// k-block (so a packed quad, kMR·kKC floats, stays L1-resident), B into
// kNR-wide column panels. The portable micro-kernel holds a kMR×kNR
// accumulator tile; the AVX2 loop runs two adjacent panels at once (a
// kMR×2·kNR tile). Both read the same packed layouts.
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

// Packs logical rows [i0, i0+mr) × k range [p0, p1) of A into quads
// ap[(p-p0)*kMR + r], zero-padding rows past mr (ops.cpp).
void pack_a(const Operand& a, std::size_t i0, std::size_t mr, std::size_t p0,
            std::size_t p1, float* ap);

#ifdef ODLP_SIMD_KERNELS_X86

// AVX2 build of ops.cpp's tiled row loop: C rows [i0, i1) (+)= A · B with B
// packed into panels `bp` (K×N logical). Same k-blocks, same packing, same
// per-element op sequence as the portable loop, so the bytes match it.
void gemm_tiled_rows_avx2(const Operand& a, const float* bp, std::size_t K,
                          std::size_t N, float* c, std::size_t ldc,
                          bool accumulate, std::size_t i0, std::size_t i1);

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
