// Affine layer normalization over the feature dimension of each row.
#pragma once

#include <string>

#include "nn/param.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace odlp::nn {

class LayerNorm {
 public:
  LayerNorm(std::string name, std::size_t dim, float eps = 1e-5f);

  // Only a training forward caches what backward reads; backward without
  // a matching training forward (none, or an inference forward since)
  // throws std::logic_error.
  tensor::Tensor& forward_ws(const tensor::Tensor& x, bool training,
                             tensor::Workspace& ws);
  tensor::Tensor& backward_ws(const tensor::Tensor& dout, tensor::Workspace& ws);
  tensor::Tensor forward(const tensor::Tensor& x, bool training);
  tensor::Tensor backward(const tensor::Tensor& dout);

  void collect_parameters(ParameterList& out) {
    out.push_back(&gain_);
    out.push_back(&bias_);
  }

  std::size_t dim() const { return gain_.value.cols(); }
  bool frozen() const { return !gain_.trainable && !bias_.trainable; }

 private:
  Parameter gain_;  // [1, dim], init 1
  Parameter bias_;  // [1, dim], init 0
  float eps_;
  tensor::LayerNormCache cache_;
};

}  // namespace odlp::nn
