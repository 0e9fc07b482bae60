// Runtime SIMD dispatch for the GEMM hot cores (DESIGN.md §12).
//
// The kernel TUs (ops.cpp / qops.cpp) select among per-ISA kernel variants at
// call time instead of committing to one instruction set at build time:
//
//   kScalar — portable C++ loops (the compiler may still auto-vectorize them
//             to the build baseline, but no hand-written intrinsics run)
//   kSse2   — SSE2 pmaddwd int8 kernels (the PR-4 baseline)
//   kAvx2   — AVX2 vpmaddubsw+vpmaddwd int8 kernels and the AVX2 fp32
//             micro-kernel (compiled in their own -mavx2 TUs)
//   kVnni   — AVX-VNNI vpdpbusd int8 tiled kernel (-mavxvnni TU); fp32 and
//             the m<4 int8 GEMV path reuse the AVX2 kernels, so this level
//             only exists when the toolchain can emit AVX-VNNI
//             (ODLP_HAVE_AVXVNNI) and the host reports the feature
//
// The active level starts at the detected host capability (cpuid) and can be
// forced lower via set_simd_level(), a test hook — the dispatch-matrix tests
// sweep every level available on the host. Every
// variant of a kernel is bit-identical to every other (fp32: same
// per-element accumulation order; int8: exact integer block sums plus the
// shared fp32 fixup), so the level changes throughput, never results; the
// `*_reference` kernels remain the oracle either way.
#pragma once

namespace odlp::tensor {

// Ordered capability ladder: a level implies every level below it.
enum class SimdLevel : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kVnni = 3,
};

// Highest level the host CPU supports (cpuid probe, cached after first call).
// Non-x86 builds always report kScalar.
SimdLevel detected_simd_level();

// Level the kernel TUs currently dispatch on: detected_simd_level() until a
// set_simd_level() call.
SimdLevel active_simd_level();

// Forces the active level (test hook for the dispatch-matrix sweep). Clamped
// to detected_simd_level(); returns the level actually applied.
SimdLevel set_simd_level(SimdLevel level);

// "scalar" | "sse2" | "avx2" | "vnni".
const char* simd_level_name(SimdLevel level);

}  // namespace odlp::tensor
