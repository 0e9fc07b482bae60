// RMSNorm (Zhang & Sennrich 2019) — the normalization Llama actually uses:
//   y = x / rms(x) * gain,   rms(x) = sqrt(mean(x²) + eps)
// No mean subtraction and no bias, which is what makes it cheaper than
// LayerNorm on device. Offered as an opt-in (ModelConfig::use_rmsnorm) so
// MiniLlm can match Llama's block structure more closely.
#pragma once

#include <string>
#include <vector>

#include "nn/param.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace odlp::nn {

class RmsNorm {
 public:
  RmsNorm(std::string name, std::size_t dim, float eps = 1e-5f);

  // Only a training forward caches what backward reads; backward without
  // a matching training forward (none, or an inference forward since)
  // throws std::logic_error.
  tensor::Tensor& forward_ws(const tensor::Tensor& x, bool training,
                             tensor::Workspace& ws);
  tensor::Tensor& backward_ws(const tensor::Tensor& dout, tensor::Workspace& ws);
  tensor::Tensor forward(const tensor::Tensor& x, bool training);
  tensor::Tensor backward(const tensor::Tensor& dout);

  void collect_parameters(ParameterList& out) { out.push_back(&gain_); }
  std::size_t dim() const { return gain_.value.cols(); }
  bool frozen() const { return !gain_.trainable; }

 private:
  Parameter gain_;  // [1, dim], init 1
  float eps_;
  tensor::Tensor cached_x_;
  std::vector<float> cached_inv_rms_;
};

}  // namespace odlp::nn
