// Pre-LayerNorm transformer decoder block:
//   x = x + Attn(LN1(x));  x = x + FF(LN2(x))
#pragma once

#include <string>
#include <vector>

#include "nn/attention.h"
#include "nn/feedforward.h"
#include "nn/norm.h"
#include "nn/param.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace odlp::nn {

class TransformerBlock {
 public:
  TransformerBlock(std::string name, std::size_t dim, std::size_t heads,
                   std::size_t ff_hidden, util::Rng& rng,
                   Norm::Kind norm_kind = Norm::Kind::kLayerNorm);

  // _ws entry points return a `ws` slot (valid until ws.reset()); a
  // training forward keeps backward state in member caches of the
  // submodules, an inference forward writes none.
  tensor::Tensor& forward_ws(const tensor::Tensor& x, bool training,
                             tensor::Workspace& ws);
  tensor::Tensor& backward_ws(const tensor::Tensor& dout, tensor::Workspace& ws);
  // backward_ws for a block whose input gradient nothing reads: the same
  // parameter gradients without dX. When ln1 is frozen too (block 0 under
  // LoRA) it also skips ln1's backward and the attention's input gradient.
  void backward_params_ws(const tensor::Tensor& dout, tensor::Workspace& ws);
  tensor::Tensor forward(const tensor::Tensor& x, bool training);
  tensor::Tensor backward(const tensor::Tensor& dout);

  // Batched incremental decode: row b of x [n, dim] advances the session
  // whose layer cache is caches[b]. Inference only. Norms/FFN are row-wise
  // and attention is per-session, so row b is bit-identical to a width-1
  // call on session b alone (see
  // MultiHeadSelfAttention::forward_incremental_batch_ws).
  // `overlays`/`site_base` forward per-row LoRA snapshots to the attention
  // projections — this block's sites are site_base + {0..3} (q/k/v/o); the
  // FFN has no LoRA sites.
  tensor::Tensor& forward_incremental_batch_ws(
      const tensor::Tensor& x, KvCache* const* caches, std::size_t n,
      tensor::Workspace& ws, const LoraOverlaySet* const* overlays = nullptr,
      std::size_t site_base = 0);

  void attach_lora(const LoraConfig& config, util::Rng& rng);
  void merge_lora();
  void collect_parameters(ParameterList& out);
  // Appends every Linear in the block (attention projections, then FFN).
  void collect_linears(std::vector<Linear*>& out);

  MultiHeadSelfAttention& attention() { return attn_; }

 private:
  Norm ln1_;
  Norm ln2_;
  MultiHeadSelfAttention attn_;
  FeedForward ff_;

  // dh = dout + the FFN branch's backward (out = h + ff(ln2(h))).
  tensor::Tensor& ff_backward_ws(const tensor::Tensor& dout,
                                 tensor::Workspace& ws);
};

}  // namespace odlp::nn
