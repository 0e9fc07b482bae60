#include "nn/rmsnorm.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace odlp::nn {

RmsNorm::RmsNorm(std::string name, std::size_t dim, float eps)
    : gain_(name + ".gain", 1, dim), eps_(eps) {
  gain_.value.fill(1.0f);
}

tensor::Tensor& RmsNorm::forward_ws(const tensor::Tensor& x, bool training,
                                    tensor::Workspace& ws) {
  assert(x.cols() == dim());
  if (training) {
    cached_x_ = x;
    cached_inv_rms_.resize(x.rows());
  } else {
    cached_x_.resize_uninitialized(0, 0);
  }
  tensor::Tensor& out = ws.acquire(x.rows(), x.cols());
  const std::size_t n = x.cols();
  const float* g = gain_.value.row(0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const float* xi = x.row(i);
    double ms = 0.0;
    for (std::size_t j = 0; j < n; ++j) ms += static_cast<double>(xi[j]) * xi[j];
    ms /= static_cast<double>(n);
    const float inv_rms = static_cast<float>(1.0 / std::sqrt(ms + eps_));
    if (training) cached_inv_rms_[i] = inv_rms;
    float* o = out.row(i);
    for (std::size_t j = 0; j < n; ++j) o[j] = xi[j] * inv_rms * g[j];
  }
  return out;
}

tensor::Tensor RmsNorm::forward(const tensor::Tensor& x, bool training) {
  return forward_ws(x, training, tensor::Workspace::enter(nullptr));
}

tensor::Tensor& RmsNorm::backward_ws(const tensor::Tensor& dout,
                                     tensor::Workspace& ws) {
  if (cached_x_.rows() == 0 || !dout.same_shape(cached_x_)) {
    throw std::logic_error(
        "RmsNorm: backward without a matching training forward");
  }
  const std::size_t n = dout.cols();
  const float* g = gain_.value.row(0);
  tensor::Tensor& din = ws.acquire(dout.rows(), dout.cols());
  // y_j = x_j * r * g_j with r = (mean(x²)+eps)^{-1/2}
  // dL/dx_k = r * g_k * d_k - r³/n * x_k * Σ_j d_j g_j x_j
  auto row_backward = [&](std::size_t i, float* dgain_acc) {
    const float* d = dout.row(i);
    const float* x = cached_x_.row(i);
    const float inv_rms = cached_inv_rms_[i];
    double dot = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      dot += static_cast<double>(d[j]) * g[j] * x[j];
      if (dgain_acc) dgain_acc[j] += d[j] * x[j] * inv_rms;
    }
    const float scale =
        static_cast<float>(dot) * inv_rms * inv_rms * inv_rms / static_cast<float>(n);
    float* o = din.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      o[j] = inv_rms * g[j] * d[j] - scale * x[j];
    }
  };
  if (dout.size() < tensor::kChunkedReduceMinElems) {
    float* dgain = gain_.trainable ? gain_.grad.row(0) : nullptr;
    for (std::size_t i = 0; i < dout.rows(); ++i) row_backward(i, dgain);
    return din;
  }
  // Chunked path: the shared gain gradient sums fixed 32-row chunk partials
  // in chunk order.
  const std::vector<float> dgain = tensor::reduce_row_chunks(
      dout.rows(),
      [&](std::size_t i0, std::size_t i1) {
        std::vector<float> acc(n, 0.0f);
        for (std::size_t i = i0; i < i1; ++i) row_backward(i, acc.data());
        return acc;
      },
      [](std::vector<float>& acc, const std::vector<float>& part) {
        for (std::size_t j = 0; j < acc.size(); ++j) acc[j] += part[j];
      });
  if (gain_.trainable) {
    for (std::size_t j = 0; j < n; ++j) gain_.grad.at(0, j) += dgain[j];
  }
  return din;
}

tensor::Tensor RmsNorm::backward(const tensor::Tensor& dout) {
  return backward_ws(dout, tensor::Workspace::enter(nullptr));
}

}  // namespace odlp::nn
