// Norm: a closed variant over the two normalization layers MiniLlm supports
// (LayerNorm — GPT-style default; RMSNorm — Llama-style, opt-in via
// ModelConfig::use_rmsnorm). A sealed variant keeps the hot path virtual-free
// while letting blocks switch per configuration.
#pragma once

#include <optional>
#include <string>

#include "nn/layernorm.h"
#include "nn/rmsnorm.h"

namespace odlp::nn {

class Norm {
 public:
  enum class Kind { kLayerNorm, kRmsNorm };

  Norm(Kind kind, std::string name, std::size_t dim) : kind_(kind) {
    if (kind_ == Kind::kLayerNorm) {
      layer_.emplace(std::move(name), dim);
    } else {
      rms_.emplace(std::move(name), dim);
    }
  }

  // `training` as in Linear::forward_ws: only a training forward caches
  // what backward reads.
  tensor::Tensor& forward_ws(const tensor::Tensor& x, bool training,
                             tensor::Workspace& ws) {
    return kind_ == Kind::kLayerNorm ? layer_->forward_ws(x, training, ws)
                                     : rms_->forward_ws(x, training, ws);
  }

  tensor::Tensor& backward_ws(const tensor::Tensor& dout, tensor::Workspace& ws) {
    return kind_ == Kind::kLayerNorm ? layer_->backward_ws(dout, ws)
                                     : rms_->backward_ws(dout, ws);
  }

  tensor::Tensor forward(const tensor::Tensor& x, bool training) {
    return kind_ == Kind::kLayerNorm ? layer_->forward(x, training)
                                     : rms_->forward(x, training);
  }

  tensor::Tensor backward(const tensor::Tensor& dout) {
    return kind_ == Kind::kLayerNorm ? layer_->backward(dout)
                                     : rms_->backward(dout);
  }

  void collect_parameters(ParameterList& out) {
    if (kind_ == Kind::kLayerNorm) {
      layer_->collect_parameters(out);
    } else {
      rms_->collect_parameters(out);
    }
  }

  Kind kind() const { return kind_; }
  // True when no parameter of the norm trains.
  bool frozen() const {
    return kind_ == Kind::kLayerNorm ? layer_->frozen() : rms_->frozen();
  }

 private:
  Kind kind_;
  std::optional<LayerNorm> layer_;
  std::optional<RmsNorm> rms_;
};

}  // namespace odlp::nn
