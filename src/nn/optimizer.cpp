#include "nn/optimizer.h"

#include <cmath>

namespace odlp::nn {

AdamW::AdamW(const Config& config) : config_(config) {}

void AdamW::step(const ParameterList& params) {
  ++t_;
  const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  for (Parameter* p : params) {
    if (!p->trainable) continue;
    auto it = state_.find(p);
    if (it == state_.end()) {
      State s;
      s.m = tensor::Tensor(p->value.rows(), p->value.cols(), 0.0f);
      s.v = tensor::Tensor(p->value.rows(), p->value.cols(), 0.0f);
      it = state_.emplace(p, std::move(s)).first;
    }
    State& s = it->second;
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const float g = p->grad.data()[i];
      s.m.data()[i] = config_.beta1 * s.m.data()[i] + (1.0f - config_.beta1) * g;
      s.v.data()[i] = config_.beta2 * s.v.data()[i] + (1.0f - config_.beta2) * g * g;
      const double mhat = s.m.data()[i] / bc1;
      const double vhat = s.v.data()[i] / bc2;
      float& w = p->value.data()[i];
      // Decoupled weight decay: applied directly to the weight, not the grad.
      w -= config_.lr * (static_cast<float>(mhat / (std::sqrt(vhat) + config_.eps)) +
                         config_.weight_decay * w);
    }
  }
}

std::vector<AdamW::State> AdamW::export_state(const ParameterList& params) const {
  std::vector<State> out;
  out.reserve(params.size());
  for (const Parameter* p : params) {
    auto it = state_.find(p);
    State s;
    if (it != state_.end()) {
      s.m = it->second.m;
      s.v = it->second.v;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void AdamW::import_state(const ParameterList& params,
                         std::vector<State> states, long long step_count) {
  t_ = step_count;
  state_.clear();
  for (std::size_t i = 0; i < params.size() && i < states.size(); ++i) {
    if (states[i].m.size() == 0) continue;  // never-stepped: lazy re-init
    state_[params[i]] = std::move(states[i]);
  }
}

}  // namespace odlp::nn
