#include "nn/embedding.h"

#include <cassert>

namespace odlp::nn {

Embedding::Embedding(std::string name, std::size_t vocab, std::size_t dim,
                     util::Rng& rng)
    : table_(std::move(name), vocab, dim) {
  init_normal(table_.value, rng, 0.02f);
}

void Embedding::forward_into(const std::vector<int>& ids, tensor::Tensor& out,
                             bool accumulate, bool training) {
  cached_ids_ = ids;
  if (!accumulate) {
    out.resize_uninitialized(ids.size(), dim());
  }
  assert(out.rows() == ids.size() && out.cols() == dim());
  const bool use_q = quantized_ && !training;
  for (std::size_t t = 0; t < ids.size(); ++t) {
    assert(ids[t] >= 0 && static_cast<std::size_t>(ids[t]) < vocab_size());
    float* dst = out.row(t);
    if (use_q) {
      qtable_.dequantize_row_into(static_cast<std::size_t>(ids[t]), dst,
                                  accumulate);
      continue;
    }
    const float* src = table_.value.row(static_cast<std::size_t>(ids[t]));
    if (accumulate) {
      for (std::size_t j = 0; j < dim(); ++j) dst[j] += src[j];
    } else {
      for (std::size_t j = 0; j < dim(); ++j) dst[j] = src[j];
    }
  }
}

tensor::Tensor Embedding::forward(const std::vector<int>& ids) {
  tensor::Tensor out;
  forward_into(ids, out);
  return out;
}

void Embedding::quantize_frozen() {
  qtable_ = tensor::QuantizedTensor::quantize(table_.value,
                                              tensor::QuantAxis::kAlongCols);
  quantized_ = true;
}

void Embedding::dequantize_frozen() {
  qtable_ = tensor::QuantizedTensor();
  quantized_ = false;
}

tensor::QuantStats Embedding::quantization_stats() const {
  assert(quantized_);
  return qtable_.round_trip_stats(table_.value);
}

std::size_t Embedding::resident_bytes() const {
  if (quantized_) return qtable_.resident_bytes();
  return table_.value.size() * sizeof(float);
}

std::size_t Embedding::quant_scale_bytes() const {
  return quantized_ ? qtable_.scale_bytes() : 0;
}

void Embedding::backward(const tensor::Tensor& dout) {
  assert(dout.rows() == cached_ids_.size() && dout.cols() == dim());
  if (!table_.trainable) return;
  for (std::size_t t = 0; t < cached_ids_.size(); ++t) {
    float* gdst = table_.grad.row(static_cast<std::size_t>(cached_ids_[t]));
    const float* src = dout.row(t);
    for (std::size_t j = 0; j < dim(); ++j) gdst[j] += src[j];
  }
}

}  // namespace odlp::nn
