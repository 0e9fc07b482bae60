// Forward and backward kernels over rank-2 tensors.
//
// Every forward kernel has a matching backward kernel taking the upstream
// gradient and producing gradients w.r.t. its inputs, so modules can compose
// them into exact backprop without an autograd graph. All kernels are
// verified against finite differences in tests/test_gradcheck.cpp.
//
// Kernel families:
//  * `*_into` variants write into a caller-provided tensor (typically a
//    tensor::Workspace slot) so hot paths run allocation-free; the
//    allocating spellings are thin wrappers over them.
//  * The GEMM products (matmul / matmul_nt / matmul_tn) share one
//    register-tiled row loop over packed panels (ops.cpp, with a 4×16 AVX2
//    build in ops_avx2.cpp; both compiled with -O3 -ffp-contract=off, see
//    src/CMakeLists.txt).
//  * `*_reference` kernels are the plain serial implementations, retained as
//    the numerical baseline. The tiled kernels are *deterministic* — the
//    per-element accumulation order is a fixed function of the shape, so
//    results are identical run-to-run and for any thread-pool lane count —
//    but NOT bit-identical to the references (different accumulator widths
//    and FP order); equivalence tests use a tight relative-tolerance band
//    (DESIGN.md §8, tests/test_kernel_shapes.cpp).
#pragma once

#include <cstddef>

#include "tensor/tensor.h"

namespace odlp::tensor {

// The one dispatch cut-over for kernel regions: gemm, qgemm and the
// row-wise tensor/nn ops leave the calling thread for the util::ThreadPool
// only when a call's work reaches this many flops. Below it, waking and
// joining the workers costs more than the split saves: on a 4-core x86-64
// host every model-shaped GEMM up to 192³ ran slower at 4 lanes than
// inline, and 256³ (2²⁵ flops) was the first shape to gain (bench_perf's
// `fanout_cutover` table, DESIGN.md §8). Keyed on shape only, never on the
// lane count, and both sides of it write the same bytes.
inline constexpr std::size_t kFanOutMinFlops = std::size_t{1} << 25;

// Row-wise ops state their work as elements × this weight: roughly what one
// element costs in GEMM flops at the tiled kernel's rate (on the table's
// host a softmax element costs ~260, a LayerNorm element ~100).
inline constexpr std::size_t kRowwiseFlopsPerElem = 128;

inline constexpr bool fans_out(std::size_t work_flops) {
  return work_flops >= kFanOutMinFlops;
}

// Row reductions into a shared accumulator (bias/gain gradients, the CE
// loss) below this many elements run as one straight loop; at or above it
// as fixed-grain chunk partials combined in chunk order
// (ThreadPool::reduce_ordered), inline or on the pool per fans_out(). This
// picks the summation order, so it is part of the determinism contract:
// changing it changes bytes.
inline constexpr std::size_t kChunkedReduceMinElems = std::size_t{1} << 14;

// How the GEMM hot cores are built AND dispatched, recorded by bench_perf
// into results/BENCH_perf.json so perf trajectories name the kernel they
// measured. The variant strings reflect the *runtime* SIMD dispatch level
// (tensor/simd.h) at the moment of the call, not just compile-time flags —
// forcing a level via ODLP_SIMD or set_simd_level() changes what this
// reports (tests/test_simd_dispatch.cpp pins the mapping).
struct KernelBuildInfo {
  const char* variant;       // fp32 core: "tiled-4x8-packed" or, at the
                             // AVX2 level, "tiled-4x16-packed-avx2"
  const char* simd_level;    // active dispatch level:
                             // "scalar"|"sse2"|"avx2"|"vnni"
  bool native_arch;          // true when built with ODLP_NATIVE_ARCH (-march=native)
  const char* int8_variant;  // int8 backend (qops.cpp): "q8-4x16-scalar",
                             // "q8-4x16-madd-sse2", "q8-4x16-maddubs-avx2",
                             // or "q8-4x16-dpbusd-vnni"
  std::size_t int8_block;    // quant block along k (tensor::kQuantBlock)
};
KernelBuildInfo kernel_build_info();

// out[m,n] (+)= A[m,k] * B[k,n]. Register-tiled 4xN micro-kernel over packed
// B panels; row-parallel on the util::ThreadPool when fans_out(2·m·k·n).
// When accumulate is false, `out` is reshaped (uninitialized) and every
// element is written exactly once. `out` must not alias `a` or `b`.
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out,
                 bool accumulate = false);

// out[m,n] (+)= A[m,k] * B[n,k]^T  (shared micro-kernel, B packed transposed).
void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& out,
                    bool accumulate = false);

// out[m,n] (+)= A[k,m]^T * B[k,n]  (shared micro-kernel, A packed transposed).
void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& out,
                    bool accumulate = false);

// Allocating wrapper over matmul_into.
Tensor matmul(const Tensor& a, const Tensor& b);

// Single-threaded unblocked triple-loop kernel, kept as the numerical
// reference for the tiled matmul (tests, bench_perf).
Tensor matmul_reference(const Tensor& a, const Tensor& b);

// Given dC, accumulate dA += dC * B^T and dB += A^T * dC (composed from the
// nt / tn products above — same tiled core, same determinism contract).
void matmul_backward(const Tensor& a, const Tensor& b, const Tensor& dc,
                     Tensor& da, Tensor& db);

// Serial reference implementation of matmul_backward (tests, bench_perf).
void matmul_backward_reference(const Tensor& a, const Tensor& b,
                               const Tensor& dc, Tensor& da, Tensor& db);

// B[n,m] = A[m,n]^T
Tensor transpose(const Tensor& a);

// Out[t, n] = In[t, n] + bias[0, n] (row-broadcast).
Tensor add_row_broadcast(const Tensor& in, const Tensor& bias);

// inout[t, n] += bias[0, n], in place (the allocation-free spelling).
void add_row_broadcast_inplace(Tensor& inout, const Tensor& bias);

// dBias[0, n] += column sums of dOut.
void add_row_broadcast_backward(const Tensor& dout, Tensor& dbias);

// Row-wise softmax. Numerically stabilized (max subtraction).
Tensor softmax_rows(const Tensor& logits);
void softmax_rows_into(const Tensor& logits, Tensor& out);

// Causal softmax of a square score matrix: row i of `out` is the softmax of
// scale·scores[i, 0..i], and +0 above the diagonal. Reads and exponentiates
// only j <= i, yet writes the bytes softmax_rows_into writes for
// scale·scores with −inf over the upper triangle (DESIGN.md §8).
void softmax_causal_rows_into(const Tensor& scores, float scale, Tensor& out);

// Backward through row-wise softmax: dIn = softmax ⊙ (dOut − rowdot(dOut, softmax)).
Tensor softmax_rows_backward(const Tensor& softmax_out, const Tensor& dout);
void softmax_rows_backward_into(const Tensor& softmax_out, const Tensor& dout,
                                Tensor& din);

// GELU (tanh approximation) forward / backward. The forward also writes
// tanh_u = tanh(√(2/π)·(x + 0.044715·x³)) per element, and the backward
// reads it back instead of calling tanh again: the same float, so the same
// gradient bytes (DESIGN.md §8).
Tensor gelu(const Tensor& in);
void gelu_into(const Tensor& in, Tensor& out, Tensor& tanh_u);
void gelu_backward_into(const Tensor& in, const Tensor& tanh_u,
                        const Tensor& dout, Tensor& din);

// ReLU forward / backward (kept for ablation/testing).
Tensor relu(const Tensor& in);
Tensor relu_backward(const Tensor& in, const Tensor& dout);

// Row-wise layer normalization (no affine; the nn::LayerNorm module owns
// gain/bias). eps stabilizes the variance.
struct LayerNormCache {
  Tensor normalized;           // (x - mean) / sqrt(var + eps)
  std::vector<float> inv_std;  // per-row 1/sqrt(var + eps)
};
Tensor layernorm_rows(const Tensor& in, float eps, LayerNormCache* cache);
void layernorm_rows_into(const Tensor& in, float eps, LayerNormCache* cache,
                         Tensor& out);
Tensor layernorm_rows_backward(const Tensor& dout, const LayerNormCache& cache);
void layernorm_rows_backward_into(const Tensor& dout, const LayerNormCache& cache,
                                  Tensor& din);

// Elementwise binary/unary convenience (allocating).
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul_elem(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);

// out = a + b, written in full (allocation-free spelling; out is reshaped).
void add_into(const Tensor& a, const Tensor& b, Tensor& out);

// out = a * s, written in full (out is reshaped).
void scale_into(const Tensor& a, float s, Tensor& out);

// Mean over rows: out[0, n] = mean_t in[t, n].
Tensor mean_rows(const Tensor& in);

// Cosine similarity between two equal-length vectors given as [1, n] (or any
// equal-shape tensors, flattened). Returns 0 if either has zero norm.
float cosine_similarity(const Tensor& a, const Tensor& b);

// Double-precision Σ xᵢ² and Σ aᵢ·bᵢ — the same accumulations
// cosine_similarity performs internally, exposed so callers can cache norms
// and reduce each cosine to a single dot product (buffer IDD fast path).
double sum_squares(const Tensor& a);
double dot(const Tensor& a, const Tensor& b);

}  // namespace odlp::tensor
