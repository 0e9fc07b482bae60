#include "nn/linear.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "tensor/ops.h"
#include "tensor/qops.h"

namespace odlp::nn {

Linear::Linear(std::string name, std::size_t in, std::size_t out, util::Rng& rng,
               bool bias)
    : name_(std::move(name)),
      weight_(name_ + ".weight", in, out),
      bias_(name_ + ".bias", bias ? 1 : 0, bias ? out : 0),
      has_bias_(bias),
      rng_(rng.next_u64()) {
  init_xavier_uniform(weight_.value, rng);
}

tensor::Tensor& Linear::forward_ws(const tensor::Tensor& x, bool training,
                                   tensor::Workspace& ws) {
  assert(x.cols() == weight_.value.rows());
  if (training) {
    cached_x_ = x;
  } else {
    // Keep the storage, drop the rows: a backward from here on fails
    // instead of reading an older training forward's input.
    cached_x_.resize_uninitialized(0, 0);
  }
  tensor::Tensor& y = ws.acquire(x.rows(), weight_.value.cols());
  if (quantized_ && !training) {
    // Inference-time base product against the int8 snapshot; training
    // forwards fall through to fp32 so backward differentiates the exact
    // path it ran.
    tensor::qmatmul_into(x, qweight_, y);
  } else {
    tensor::matmul_into(x, weight_.value, y, /*accumulate=*/false,
                        panels_ ? &panels_->w : nullptr);
  }
  if (has_bias_) tensor::add_row_broadcast_inplace(y, bias_.value);
  if (lora_) {
    // A training forward keeps dropout(x) and its product with A for
    // backward; an inference forward reads x itself and puts xA in `ws`.
    if (training) {
      cached_x_dropped_ = x;
      if (lora_->config.dropout > 0.0f) {
        const float keep = 1.0f - lora_->config.dropout;
        const float inv_keep = keep > 0.0f ? 1.0f / keep : 0.0f;
        for (std::size_t i = 0; i < cached_x_dropped_.size(); ++i) {
          cached_x_dropped_.data()[i] =
              rng_.bernoulli(keep) ? cached_x_dropped_.data()[i] * inv_keep
                                   : 0.0f;
        }
      }
    }
    const tensor::Tensor& x_dropped = training ? cached_x_dropped_ : x;
    tensor::Tensor& xa =
        training ? cached_xa_ : ws.acquire(x.rows(), lora_->config.rank);
    tensor::matmul_into(x_dropped, lora_->a.value, xa);
    tensor::Tensor& delta = ws.acquire(xa.rows(), lora_->b.value.cols());
    tensor::matmul_into(xa, lora_->b.value, delta);
    const float scaling = lora_->config.alpha / static_cast<float>(lora_->config.rank);
    y.add_scaled(delta, scaling);
  }
  return y;
}

void Linear::check_backward(const tensor::Tensor& dout) const {
  assert(dout.cols() == weight_.value.cols());
  if (cached_x_.rows() == 0 || dout.rows() != cached_x_.rows()) {
    throw std::logic_error("Linear '" + name_ +
                           "': backward without a matching training forward");
  }
}

tensor::Tensor Linear::forward(const tensor::Tensor& x, bool training) {
  return forward_ws(x, training, tensor::Workspace::enter(nullptr));
}

void Linear::apply_lora_rows_ws(const tensor::Tensor& x, tensor::Tensor& y,
                                const LoraOverlaySet* const* overlays,
                                std::size_t n, std::size_t site,
                                tensor::Workspace& ws) {
  assert(!lora_);  // the overlay replaces an attached adapter, never stacks
  assert(x.rows() == n && y.rows() == n);
  const std::size_t in = x.cols();
  const std::size_t out = y.cols();
  // One group's rows and products, acquired at the first group.
  tensor::Tensor* xg = nullptr;
  tensor::Tensor* yg = nullptr;
  tensor::Tensor* xa = nullptr;
  tensor::Tensor* delta = nullptr;
  for (std::size_t b = 0; b < n; ++b) {
    const LoraOverlaySet* o = overlays[b];
    // Each user's rows run once, as a group led by the user's first row.
    if (!o || std::find(overlays, overlays + b, o) != overlays + b) continue;
    const LoraOverlaySet::Site& s = o->sites[site];
    assert(s.a.rows() == in && s.b.rows() == s.a.cols() && s.b.cols() == out);
    if (!xg) {
      xg = &ws.acquire(n, in);
      yg = &ws.acquire(n, out);
      xa = &ws.acquire(n, s.a.cols());
      delta = &ws.acquire(n, out);
    }
    const std::size_t g =
        static_cast<std::size_t>(std::count(overlays + b, overlays + n, o));
    xg->resize_uninitialized(g, in);
    yg->resize_uninitialized(g, out);
    for (std::size_t r = b, i = 0; r < n; ++r) {
      if (overlays[r] != o) continue;
      std::copy(x.row(r), x.row(r) + in, xg->row(i));
      std::copy(y.row(r), y.row(r) + out, yg->row(i));
      ++i;
    }
    // delta = (xg · A) · B, the attached-adapter inference forward on these
    // rows. Both products are nn, whose rows each sum in ascending k on
    // the small and the tiled path alike, so row i is the bytes of an m=1
    // product on that row (DESIGN.md §13). add_scaled is the attached
    // path's own expression.
    tensor::matmul_into(*xg, s.a, *xa);
    tensor::matmul_into(*xa, s.b, *delta);
    yg->add_scaled(*delta, o->scaling);
    for (std::size_t r = b, i = 0; r < n; ++r) {
      if (overlays[r] != o) continue;
      std::copy(yg->row(i), yg->row(i) + out, y.row(r));
      ++i;
    }
  }
}

tensor::Tensor& Linear::backward_ws(const tensor::Tensor& dout,
                                    tensor::Workspace& ws) {
  check_backward(dout);
  tensor::Tensor& dx = ws.acquire(cached_x_.rows(), cached_x_.cols());
  // Base path: dX = dY·Wᵀ always.
  tensor::matmul_nt_into(dout, weight_.value, dx, /*accumulate=*/false,
                         panels_ ? &panels_->w_t : nullptr);
  param_backward_ws(dout, ws, &dx);
  return dx;
}

void Linear::backward_params_ws(const tensor::Tensor& dout,
                                tensor::Workspace& ws) {
  check_backward(dout);
  param_backward_ws(dout, ws, nullptr);
}

void Linear::param_backward_ws(const tensor::Tensor& dout,
                               tensor::Workspace& ws, tensor::Tensor* dx) {
  // dW/db only when trainable (frozen under LoRA — skipping them removes
  // the whole Aᵀ·dC product, not just its destination).
  if (weight_.trainable) {
    tensor::matmul_tn_into(cached_x_, dout, weight_.grad, /*accumulate=*/true);
  }
  if (has_bias_ && bias_.trainable) {
    tensor::add_row_broadcast_backward(dout, bias_.grad);
  }
  if (!lora_) return;

  const float scaling = lora_->config.alpha / static_cast<float>(lora_->config.rank);
  tensor::Tensor& ddelta = ws.acquire(dout.rows(), dout.cols());
  tensor::scale_into(dout, scaling, ddelta);
  // delta = (x_dropped · A) · B
  tensor::Tensor& dxa = ws.acquire(cached_xa_.rows(), cached_xa_.cols());
  tensor::matmul_nt_into(ddelta, lora_->b.value, dxa, /*accumulate=*/false);
  tensor::matmul_tn_into(cached_xa_, ddelta, lora_->b.grad, /*accumulate=*/true);
  tensor::matmul_tn_into(cached_x_dropped_, dxa, lora_->a.grad,
                         /*accumulate=*/true);
  if (!dx) return;
  tensor::Tensor& dx_dropped =
      ws.acquire(cached_x_dropped_.rows(), cached_x_dropped_.cols());
  tensor::matmul_nt_into(dxa, lora_->a.value, dx_dropped, /*accumulate=*/false);
  // Dropout backward: the mask (with inverted-dropout scaling) is implicit in
  // cached_x_dropped_ — reconstruct it as ratio where x != 0.
  for (std::size_t i = 0; i < dx->size(); ++i) {
    const float x = cached_x_.data()[i];
    const float xd = cached_x_dropped_.data()[i];
    if (x != 0.0f) {
      dx->data()[i] += dx_dropped.data()[i] * (xd / x);
    } else if (lora_->config.dropout == 0.0f) {
      dx->data()[i] += dx_dropped.data()[i];
    }
    // x == 0 under active dropout: mask state unknowable, but gradient
    // contribution through a zero input is zero for matmul anyway.
  }
}

tensor::Tensor Linear::backward(const tensor::Tensor& dout) {
  return backward_ws(dout, tensor::Workspace::enter(nullptr));
}

void Linear::quantize_frozen() {
  qweight_ = tensor::QuantizedTensor::quantize(weight_.value,
                                               tensor::QuantAxis::kAlongRows);
  quantized_ = true;
}

void Linear::dequantize_frozen() {
  qweight_ = tensor::QuantizedTensor();
  quantized_ = false;
}

tensor::QuantStats Linear::quantization_stats() const {
  assert(quantized_);
  return qweight_.round_trip_stats(weight_.value);
}

std::size_t Linear::resident_weight_bytes() const {
  const std::size_t bias_bytes = bias_.value.size() * sizeof(float);
  if (quantized_) return qweight_.resident_bytes() + bias_bytes;
  return weight_.value.size() * sizeof(float) + bias_bytes;
}

std::size_t Linear::quant_scale_bytes() const {
  return quantized_ ? qweight_.scale_bytes() : 0;
}

void Linear::attach_lora(const LoraConfig& config, util::Rng& rng) {
  assert(config.rank > 0);
  Lora lora;
  lora.config = config;
  lora.a = Parameter(name_ + ".lora_a", weight_.value.rows(), config.rank);
  lora.b = Parameter(name_ + ".lora_b", config.rank, weight_.value.cols());
  init_normal(lora.a.value, rng, 0.02f);
  lora.b.value.zero();  // Standard LoRA: B starts at zero so delta starts at 0.
  lora_ = std::move(lora);
  weight_.set_trainable(false);
  bias_.set_trainable(false);
  sync_panels();
}

void Linear::detach_lora() {
  lora_.reset();
  weight_.set_trainable(true);
  bias_.set_trainable(true);
  sync_panels();
}

void Linear::sync_panels() {
  if (weight_.trainable) {
    panels_.reset();
  } else if (!panels_) {
    repack_panels();
  }
}

void Linear::repack_panels() {
  panels_.reset();
  if (weight_.trainable) return;
  panels_ = std::make_shared<const Panels>(Panels{
      tensor::PackedB::nn(weight_.value), tensor::PackedB::nt(weight_.value)});
}

void Linear::share_panels(const Linear& source) {
  assert(weight_.trainable == source.weight_.trainable);
  panels_ = source.panels_;
}

void Linear::merge_lora() {
  if (!lora_) return;
  const float scaling = lora_->config.alpha / static_cast<float>(lora_->config.rank);
  tensor::Tensor delta = tensor::matmul(lora_->a.value, lora_->b.value);
  weight_.value.add_scaled(delta, scaling);
  detach_lora();
  // W changed: the int8 snapshot (if any) must follow it.
  if (quantized_) quantize_frozen();
}

void Linear::collect_parameters(ParameterList& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
  if (lora_) {
    out.push_back(&lora_->a);
    out.push_back(&lora_->b);
  }
}

}  // namespace odlp::nn
