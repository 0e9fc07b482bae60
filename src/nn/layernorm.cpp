#include "nn/layernorm.h"

#include <cassert>
#include <stdexcept>
#include <vector>

namespace odlp::nn {

LayerNorm::LayerNorm(std::string name, std::size_t dim, float eps)
    : gain_(name + ".gain", 1, dim), bias_(name + ".bias", 1, dim), eps_(eps) {
  gain_.value.fill(1.0f);
}

tensor::Tensor& LayerNorm::forward_ws(const tensor::Tensor& x, bool training,
                                      tensor::Workspace& ws) {
  assert(x.cols() == dim());
  tensor::Tensor& out = ws.acquire(x.rows(), x.cols());
  if (!training) cache_.normalized.resize_uninitialized(0, 0);
  tensor::layernorm_rows_into(x, eps_, training ? &cache_ : nullptr, out);
  // Affine applied in place over the normalized values (a training
  // forward keeps the pre-affine copy in cache_.normalized for backward).
  const float* g = gain_.value.row(0);
  const float* b = bias_.value.row(0);
  for (std::size_t i = 0; i < out.rows(); ++i) {
    float* o = out.row(i);
    for (std::size_t j = 0; j < out.cols(); ++j) o[j] = o[j] * g[j] + b[j];
  }
  return out;
}

tensor::Tensor LayerNorm::forward(const tensor::Tensor& x, bool training) {
  return forward_ws(x, training, tensor::Workspace::enter(nullptr));
}

tensor::Tensor& LayerNorm::backward_ws(const tensor::Tensor& dout,
                                       tensor::Workspace& ws) {
  assert(dout.cols() == dim());
  if (cache_.normalized.rows() == 0 || !dout.same_shape(cache_.normalized)) {
    throw std::logic_error(
        "LayerNorm: backward without a matching training forward");
  }
  // d/d gain, d/d bias
  tensor::Tensor& dnorm = ws.acquire(dout.rows(), dout.cols());
  const float* g = gain_.value.row(0);
  const std::size_t cols = dout.cols();
  if (dout.size() < tensor::kChunkedReduceMinElems) {
    for (std::size_t i = 0; i < dout.rows(); ++i) {
      const float* d = dout.row(i);
      const float* n = cache_.normalized.row(i);
      float* dn = dnorm.row(i);
      for (std::size_t j = 0; j < cols; ++j) {
        if (gain_.trainable) gain_.grad.at(0, j) += d[j] * n[j];
        if (bias_.trainable) bias_.grad.at(0, j) += d[j];
        dn[j] = d[j] * g[j];
      }
    }
    tensor::Tensor& din = ws.acquire(dout.rows(), dout.cols());
    tensor::layernorm_rows_backward_into(dnorm, cache_, din);
    return din;
  }
  // Chunked path: the shared gain/bias gradients sum fixed 32-row chunk
  // partials in chunk order.
  struct Partial {
    std::vector<float> dgain, dbias;
  };
  const Partial sums = tensor::reduce_row_chunks(
      dout.rows(),
      [&](std::size_t i0, std::size_t i1) {
        Partial p{std::vector<float>(cols, 0.0f), std::vector<float>(cols, 0.0f)};
        for (std::size_t i = i0; i < i1; ++i) {
          const float* d = dout.row(i);
          const float* n = cache_.normalized.row(i);
          float* dn = dnorm.row(i);
          for (std::size_t j = 0; j < cols; ++j) {
            p.dgain[j] += d[j] * n[j];
            p.dbias[j] += d[j];
            dn[j] = d[j] * g[j];
          }
        }
        return p;
      },
      [](Partial& acc, const Partial& part) {
        for (std::size_t j = 0; j < acc.dgain.size(); ++j) {
          acc.dgain[j] += part.dgain[j];
          acc.dbias[j] += part.dbias[j];
        }
      });
  for (std::size_t j = 0; j < cols; ++j) {
    if (gain_.trainable) gain_.grad.at(0, j) += sums.dgain[j];
    if (bias_.trainable) bias_.grad.at(0, j) += sums.dbias[j];
  }
  tensor::Tensor& din = ws.acquire(dout.rows(), dout.cols());
  tensor::layernorm_rows_backward_into(dnorm, cache_, din);
  return din;
}

tensor::Tensor LayerNorm::backward(const tensor::Tensor& dout) {
  return backward_ws(dout, tensor::Workspace::enter(nullptr));
}

}  // namespace odlp::nn
