// Token and positional embedding tables.
#pragma once

#include <string>
#include <vector>

#include "nn/param.h"
#include "tensor/qtensor.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace odlp::nn {

class Embedding {
 public:
  // Table [vocab, dim], initialized N(0, 0.02).
  Embedding(std::string name, std::size_t vocab, std::size_t dim, util::Rng& rng);

  // Gather rows for `ids` -> [ids.size(), dim]. Ids are clamped to the vocab
  // in debug builds via assert; out-of-range ids are a caller bug.
  tensor::Tensor forward(const std::vector<int>& ids);

  // Gather into caller storage (reshaped): out (+)= rows for `ids`. The
  // accumulate form lets the position table add onto token embeddings with
  // no intermediate tensor. When the table is quantized and training is
  // false, looked-up rows dequantize from the int8 copy; training gathers
  // always read the fp32 table (backward matches the forward it saw).
  void forward_into(const std::vector<int>& ids, tensor::Tensor& out,
                    bool accumulate = false, bool training = false);

  // Scatter-accumulate dOut rows into the table gradient.
  void backward(const tensor::Tensor& dout);

  // Frozen-table INT8 mode (kAlongCols: each looked-up row dequantizes from
  // contiguous codes + scales). Same contract as Linear::quantize_frozen —
  // re-invoke after the table mutates.
  void quantize_frozen();
  void dequantize_frozen();
  bool quantized() const { return quantized_; }
  tensor::QuantStats quantization_stats() const;

  // Memory-ledger accessors (bytes resident under the active mode).
  std::size_t resident_bytes() const;
  std::size_t quant_scale_bytes() const;

  void collect_parameters(ParameterList& out) { out.push_back(&table_); }

  std::size_t vocab_size() const { return table_.value.rows(); }
  std::size_t dim() const { return table_.value.cols(); }
  const Parameter& table() const { return table_; }
  bool trainable() const { return table_.trainable; }
  Parameter& mutable_table() { return table_; }

 private:
  Parameter table_;
  tensor::QuantizedTensor qtable_;  // int8 snapshot when quantized_
  bool quantized_ = false;
  std::vector<int> cached_ids_;
};

}  // namespace odlp::nn
