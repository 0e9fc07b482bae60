// Parameter: a tensor with its gradient accumulator and trainability flag.
//
// Modules own their Parameters and expose them through collect_parameters(),
// which optimizers consume. LoRA fine-tuning is expressed by flipping
// `trainable` on base weights (frozen) vs. adapter weights (trained) — the
// optimizer simply skips frozen parameters, exactly mirroring how LoRA is
// applied to Llama in the paper. A frozen parameter holds no gradient.
#pragma once

#include <string>
#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace odlp::nn {

struct Parameter {
  std::string name;
  tensor::Tensor value;
  tensor::Tensor grad;
  bool trainable = true;

  Parameter() = default;
  Parameter(std::string n, std::size_t rows, std::size_t cols)
      : name(std::move(n)), value(rows, cols), grad(rows, cols) {}

  // The one writer of `trainable`. Freezing frees `grad` (a frozen weight
  // accumulates none); unfreezing allocates it, zeroed, if it is missing.
  void set_trainable(bool on) {
    trainable = on;
    if (!on) {
      grad = tensor::Tensor();
    } else if (!grad.same_shape(value)) {
      grad = tensor::Tensor(value.rows(), value.cols());
    }
  }

  void zero_grad() { grad.zero(); }
  std::size_t size() const { return value.size(); }
};

using ParameterList = std::vector<Parameter*>;

// Xavier/Glorot-uniform initialization, the default for projection weights.
void init_xavier_uniform(tensor::Tensor& w, util::Rng& rng);

// Gaussian initialization with explicit stddev (embeddings, LoRA A).
void init_normal(tensor::Tensor& w, util::Rng& rng, float stddev);

// Sum of value sizes over trainable parameters only.
std::size_t count_trainable(const ParameterList& params);

// Sum over all parameters.
std::size_t count_total(const ParameterList& params);

// Zero the gradient of every trainable parameter in the list.
void zero_grads(const ParameterList& params);

// Global gradient-norm clipping over trainable parameters. Returns the
// pre-clip global norm.
float clip_grad_norm(const ParameterList& params, float max_norm);

}  // namespace odlp::nn
