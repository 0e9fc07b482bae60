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
//    register-tiled row loop (ops.cpp, with a 4×16 AVX2 build in
//    ops_avx2.cpp; both compiled with -O3 -ffp-contract=off, see
//    src/CMakeLists.txt). It reads A in place, and B in place too unless B
//    is transposed (nt), which it packs into column panels per call.
//    Their view spellings read and write column blocks of wider tensors
//    (an attention head's columns) and can skip a causal triangle.
//  * `*_reference` kernels are the plain serial implementations, retained as
//    the numerical baseline. The tiled kernels are *deterministic* — the
//    per-element accumulation order is a fixed function of the shape, so
//    results are identical run-to-run — but NOT bit-identical to the
//    references (different accumulator widths and FP order); equivalence
//    tests use a tight relative-tolerance band
//    (DESIGN.md §8, tests/test_kernel_shapes.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace odlp::tensor {

// Every kernel runs on the calling thread; the fleet scheduler's per-user
// slots are the only parallelism (DESIGN.md §8).

// Row reductions into a shared accumulator (bias/gain gradients, the CE
// loss) below this many elements run as one straight loop; at or above it
// as reduce_row_chunks' fixed 32-row chunk partials. This picks the
// summation order, so it is part of the determinism contract: changing it
// changes bytes.
inline constexpr std::size_t kChunkedReduceMinElems = std::size_t{1} << 14;
inline constexpr std::size_t kChunkedReduceGrain = 32;

// Reduces rows [0, rows) as kChunkedReduceGrain-row chunk partials
// `map(row_begin, row_end)`, combined in ascending chunk order: the first
// partial is taken as-is and each later one folded in by `add(acc, partial)`.
template <typename Map, typename Add>
auto reduce_row_chunks(std::size_t rows, Map map, Add add) {
  auto acc = map(0, std::min(rows, kChunkedReduceGrain));
  for (std::size_t b = kChunkedReduceGrain; b < rows; b += kChunkedReduceGrain) {
    add(acc, map(b, std::min(rows, b + kChunkedReduceGrain)));
  }
  return acc;
}

// How the GEMM hot cores are built AND dispatched, recorded by bench_perf
// into results/BENCH_perf.json so perf trajectories name the kernel they
// measured. The variant strings reflect the *runtime* SIMD dispatch level
// (tensor/simd.h) at the moment of the call, not just compile-time flags —
// forcing a level via set_simd_level() changes what this reports
// (tests/test_simd_dispatch.cpp pins the mapping).
struct KernelBuildInfo {
  const char* variant;       // fp32 core: "tiled-4x8-inplace" or, at the
                             // AVX2 level, "tiled-4x16-inplace-avx2"
  const char* simd_level;    // active dispatch level:
                             // "scalar"|"sse2"|"avx2"|"vnni"
  bool native_arch;          // true when built with ODLP_NATIVE_ARCH (-march=native)
  const char* int8_variant;  // int8 backend (qops.cpp): "q8-4x16-scalar",
                             // "q8-4x16-madd-sse2", "q8-4x16-maddubs-avx2",
                             // or "q8-4x16-dpbusd-vnni"
  std::size_t int8_block;    // quant block along k (tensor::kQuantBlock)
};
KernelBuildInfo kernel_build_info();

// A constant B packed once into the tiled kernel's kNR-wide column panels,
// for a B that many products read (a frozen weight, DESIGN.md §8). `nn(w)`
// holds w's panels, which matmul_into(·, w) otherwise reads in place, and
// `nt(w)` those matmul_nt_into(·, w) packs per call (B = wᵀ). Passing one
// to the product swaps only where the tiled kernel reads B's panels from:
// the same floats in the same order, so the same bytes. Immutable once
// built.
class PackedB {
 public:
  static PackedB nn(const Tensor& w);
  static PackedB nt(const Tensor& w);

  std::size_t k() const { return k_; }  // logical rows of B
  std::size_t n() const { return n_; }  // logical cols of B
  bool transposed() const { return transposed_; }
  const float* data() const { return panels_.data(); }

 private:
  PackedB(const Tensor& w, bool transposed);

  std::vector<float> panels_;
  std::size_t k_ = 0;
  std::size_t n_ = 0;
  bool transposed_ = false;
};

// out[m,n] (+)= A[m,k] * B[k,n]. Register-tiled 4xN micro-kernel reading A
// in place and B's panels from `packed_b` (PackedB::nn(b)) when given, else
// from B in place (only a partial last panel is packed per call). The small
// path (m < 4 or n < 8) reads `b` itself either way.
// When accumulate is false, `out` is reshaped (uninitialized) and every
// element is written exactly once. `out` must not alias `a` or `b`.
void matmul_into(const Tensor& a, const Tensor& b, Tensor& out,
                 bool accumulate = false, const PackedB* packed_b = nullptr);

// out[m,n] (+)= A[m,k] * B[n,k]^T  (shared micro-kernel, B packed transposed
// per call; `packed_b` is PackedB::nt(b) when given).
void matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& out,
                    bool accumulate = false, const PackedB* packed_b = nullptr);

// out[m,n] (+)= A[k,m]^T * B[k,n]  (shared micro-kernel, A read in place by
// columns).
void matmul_tn_into(const Tensor& a, const Tensor& b, Tensor& out,
                    bool accumulate = false);

// A row-major matrix read or written in place, possibly a column block of
// a wider tensor: element [r][c] at data[r*ld + c], ld >= cols.
struct ConstMatView {
  const float* data;
  std::size_t rows, cols, ld;
};
struct MatView {
  float* data;
  std::size_t rows, cols, ld;
  operator ConstMatView() const { return {data, rows, cols, ld}; }
};
inline ConstMatView view(const Tensor& t) {
  return {t.data(), t.rows(), t.cols(), t.cols()};
}
inline MatView view(Tensor& t) { return {t.data(), t.rows(), t.cols(), t.cols()}; }
// Columns [c0, c0+w) of t.
inline ConstMatView col_block(const Tensor& t, std::size_t c0, std::size_t w) {
  return {t.data() + c0, t.rows(), w, t.cols()};
}
inline MatView col_block(Tensor& t, std::size_t c0, std::size_t w) {
  return {t.data() + c0, t.rows(), w, t.cols()};
}

// Causal structure a view product may skip (DESIGN.md §8). kLower names a
// square T×T operand that is lower-triangular:
//  * matmul_into: A, whose entries above the diagonal are finite zeros
//    (causal probs, or dscores); row quads stop k at their last row.
//  * matmul_tn_into: A likewise; since C = Aᵀ·B, row quads start k at
//    their first row.
//  * matmul_nt_into: C, of which only the causal part j <= i is asked for;
//    row quads compute only the panels up to their last row, and entries
//    above the diagonal are left unspecified.
// Every term skipped is an exact ±0 product, and a float sum that starts at
// +0 is never −0, so the bytes equal the full product's. An accumulating
// product keeps that guarantee unless C holds a −0 where a term is skipped.
// Path choice (tiled or small) stays a function of the full shape.
enum class Triangle { kFull, kLower };

// The three products over views, which the Tensor spellings above call:
// the same kernels, with out's shape fixed by the caller (it is not
// reshaped). `out` must not overlap `a` or `b`.
void matmul_into(ConstMatView a, ConstMatView b, MatView out, bool accumulate,
                 Triangle tri = Triangle::kFull,
                 const PackedB* packed_b = nullptr);
void matmul_nt_into(ConstMatView a, ConstMatView b, MatView out,
                    bool accumulate, Triangle tri = Triangle::kFull,
                    const PackedB* packed_b = nullptr);
void matmul_tn_into(ConstMatView a, ConstMatView b, MatView out,
                    bool accumulate, Triangle tri = Triangle::kFull);

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

// Backward through softmax_causal_rows_into, with the scale folded in:
// for j <= i, din[i, j] = (p[i, j]·(dout[i, j] − dot_i))·scale, where
// dot_i = Σ_{k<=i} dout[i, k]·p[i, k] in double; +0 above the diagonal.
// Reads only j <= i of `probs` and `dout`, so entries of `dout` above the
// diagonal may hold anything. These are the bytes a full-row backward
// followed by `din *= scale` writes for j <= i (DESIGN.md §8); the +0
// keeps the products that read din's upper triangle as a known zero
// finite.
void softmax_causal_rows_backward_into(const Tensor& probs, const Tensor& dout,
                                       float scale, Tensor& din);

// GELU (tanh approximation) forward / backward. The forward also writes
// tanh_u = tanh(√(2/π)·(x + 0.044715·x³)) per element, and the backward
// reads it back instead of calling tanh again: the same float, so the same
// gradient bytes (DESIGN.md §8).
Tensor gelu(const Tensor& in);
void gelu_into(const Tensor& in, Tensor& out, Tensor& tanh_u);
void gelu_backward_into(const Tensor& in, const Tensor& tanh_u,
                        const Tensor& dout, Tensor& din);

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
