// Position-wise feed-forward network: Linear -> GELU -> Linear.
#pragma once

#include <string>
#include <vector>

#include "nn/linear.h"
#include "nn/param.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace odlp::nn {

class FeedForward {
 public:
  FeedForward(std::string name, std::size_t dim, std::size_t hidden, util::Rng& rng);

  // _ws entry points return a `ws` slot; a training forward keeps backward
  // state in member caches, an inference forward writes none. The
  // allocating spellings wrap them for tests/cold paths.
  tensor::Tensor& forward_ws(const tensor::Tensor& x, bool training,
                             tensor::Workspace& ws);
  tensor::Tensor& backward_ws(const tensor::Tensor& dout, tensor::Workspace& ws);
  tensor::Tensor forward(const tensor::Tensor& x, bool training);
  tensor::Tensor backward(const tensor::Tensor& dout);

  void collect_parameters(ParameterList& out);
  void collect_linears(std::vector<Linear*>& out);

 private:
  Linear fc_in_;
  Linear fc_out_;
  tensor::Tensor cached_pre_act_;
  tensor::Tensor cached_tanh_;  // GELU's tanh per pre-activation, for backward
};

}  // namespace odlp::nn
