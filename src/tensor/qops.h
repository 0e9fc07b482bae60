// INT8 GEMM kernels over per-block quantized weights (the second compute
// backend; fp32 kernels live in ops.h).
//
// out[m,n] (+)= X[m,k] · Q(W)[k,n]: the fp32 activations X are quantized
// dynamically — one symmetric int8 scale per row, codes pre-widened to
// int16 — and multiplied against a kAlongRows-quantized weight by an
// int8×int8→int32 micro-kernel. Each 32-deep k-block accumulates exactly in
// int32 (32·127·127 < 2^19, far from overflow), then a fp32 fixup folds the
// activation-row and weight-block scales into the output:
//
//   out[i][j] += sx[i] * sw[kb][j] * (float)acc
//
// with k-blocks visited in strictly ascending order. Because the integer
// partial sums are exact (any summation order gives the same int32) and the
// fixup expression + order is fixed, qmatmul is not merely deterministic
// like the fp32 tiled kernels: it is bit-identical to qmatmul_reference
// (DESIGN.md §8–§9).
//
// This TU is compiled -O3 -ffp-contract=off like ops.cpp (the fixup is fp32
// arithmetic and must not contract into FMA).
#pragma once

#include "tensor/qtensor.h"
#include "tensor/tensor.h"

namespace odlp::tensor {

// out[m,n] (+)= X[m,k] · Q(W)[k,n]. W must be quantized kAlongRows with
// W.rows() == X.cols(). Register-tiled 4×16 path for m ≥ 4, a W-streaming
// matvec path for m < 4 (the m=1 decode step). When accumulate is false
// `out` is reshaped and fully written.
// `out` must not alias `x`.
void qmatmul_into(const Tensor& x, const QuantizedTensor& w, Tensor& out,
                  bool accumulate = false);

// Allocating wrapper over qmatmul_into.
Tensor qmatmul(const Tensor& x, const QuantizedTensor& w);

// Serial unblocked kernel with the identical block order and fixup
// expression; bit-identical to qmatmul for every shape
// (tests/test_quantized_equivalence.cpp).
Tensor qmatmul_reference(const Tensor& x, const QuantizedTensor& w);

}  // namespace odlp::tensor
