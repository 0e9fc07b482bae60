#include "nn/param.h"

#include <cmath>

namespace odlp::nn {

void init_xavier_uniform(tensor::Tensor& w, util::Rng& rng) {
  const double fan_in = static_cast<double>(w.rows());
  const double fan_out = static_cast<double>(w.cols());
  const double limit = std::sqrt(6.0 / (fan_in + fan_out));
  for (std::size_t i = 0; i < w.size(); ++i) {
    w.data()[i] = static_cast<float>(rng.uniform(-limit, limit));
  }
}

void init_normal(tensor::Tensor& w, util::Rng& rng, float stddev) {
  for (std::size_t i = 0; i < w.size(); ++i) {
    w.data()[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
}

std::size_t count_trainable(const ParameterList& params) {
  std::size_t n = 0;
  for (const Parameter* p : params) {
    if (p->trainable) n += p->size();
  }
  return n;
}

std::size_t count_total(const ParameterList& params) {
  std::size_t n = 0;
  for (const Parameter* p : params) n += p->size();
  return n;
}

void zero_grads(const ParameterList& params) {
  for (Parameter* p : params) {
    if (p->trainable) p->zero_grad();
  }
}

float clip_grad_norm(const ParameterList& params, float max_norm) {
  double total = 0.0;
  for (const Parameter* p : params) {
    if (!p->trainable) continue;
    const float n = p->grad.l2_norm();
    total += static_cast<double>(n) * n;
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (Parameter* p : params) {
      if (p->trainable) p->grad *= scale;
    }
  }
  return norm;
}

}  // namespace odlp::nn
