// Causal multi-head self-attention with per-projection LoRA support.
//
// The paper fine-tunes exactly the q_proj / k_proj / v_proj / o_proj layers
// with LoRA; attach_lora() here installs adapters on those four projections
// and freezes their base weights.
#pragma once

#include <string>
#include <vector>

#include "nn/kv_cache.h"
#include "nn/linear.h"
#include "nn/param.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace odlp::nn {

class MultiHeadSelfAttention {
 public:
  // dim must be divisible by heads.
  MultiHeadSelfAttention(std::string name, std::size_t dim, std::size_t heads,
                         util::Rng& rng);

  // x: [T, dim] -> [T, dim]; causal (token t attends to positions <= t).
  // The _ws entry points return a `ws` slot (valid until ws.reset()). A
  // training forward keeps all state needed by backward in member caches,
  // never in `ws`; an inference forward (training=false) writes none.
  // Scores are computed as Q·Kᵀ with the transposed-operand GEMM — no
  // transposed copy of K is ever materialized.
  tensor::Tensor& forward_ws(const tensor::Tensor& x, bool training,
                             tensor::Workspace& ws);
  tensor::Tensor& backward_ws(const tensor::Tensor& dout, tensor::Workspace& ws);
  // backward_ws without dX: accumulates the parameter gradients only, and
  // skips the q/k/v input gradients and their sum. For a module whose input
  // gradient nothing reads (block 0 under LoRA, DESIGN.md §8).
  void backward_params_ws(const tensor::Tensor& dout, tensor::Workspace& ws);
  tensor::Tensor forward(const tensor::Tensor& x, bool training);
  tensor::Tensor backward(const tensor::Tensor& dout);

  // Batched incremental decode over `n` independent sessions: row b of x
  // [n, dim] holds the new token's hidden state for the session whose cache
  // is caches[b]; each row's keys/values are appended at that session's own
  // cache position (ragged lengths are fine — sessions advance
  // independently). Returns the attention outputs [n, dim] in a `ws` slot.
  // Inference only (no backward); numerically equivalent to the matching
  // rows of forward(). The q/k/v/o projections run as shared GEMMs at m=n;
  // the attention mix is a per-session scalar loop, so row b is
  // bit-identical to a width-1 call on session b alone at any batch size
  // (DESIGN.md §12). Preconditions: n > 0, x.rows() == n,
  // !caches[b]->full() for every b.
  //
  // `overlays` (optional, length n) carries per-row LoRA snapshots for
  // cross-tenant decode: row b's deltas are applied on each projection's
  // output with this module's site indices `site_base + {0,1,2,3}` for
  // q/k/v/o (see nn/lora_overlay.h). Null entries (or a null array) skip
  // the overlay for that row.
  tensor::Tensor& forward_incremental_batch_ws(
      const tensor::Tensor& x, KvCache* const* caches, std::size_t n,
      tensor::Workspace& ws, const LoraOverlaySet* const* overlays = nullptr,
      std::size_t site_base = 0);

  void attach_lora(const LoraConfig& config, util::Rng& rng);
  void merge_lora();
  void collect_parameters(ParameterList& out);
  // Appends the four projection layers; MiniLlm walks these for the
  // quantize / memory-ledger traversals.
  void collect_linears(std::vector<Linear*>& out);

  std::size_t dim() const { return dim_; }
  std::size_t heads() const { return heads_; }
  // Head h's attention weights [T, T] from the last training forward_ws:
  // causal softmax rows, +0 above the diagonal.
  const tensor::Tensor& probs(std::size_t h) const { return cached_probs_[h]; }

 private:
  std::size_t dim_;
  std::size_t heads_;
  std::size_t head_dim_;
  Linear q_proj_;
  Linear k_proj_;
  Linear v_proj_;
  Linear o_proj_;

  // The o_proj backward and the per-head loop: dQ, dK, dV in `ws` slots.
  struct HeadGrads {
    tensor::Tensor& dq;
    tensor::Tensor& dk;
    tensor::Tensor& dv;
  };
  HeadGrads heads_backward_ws(const tensor::Tensor& dout, tensor::Workspace& ws);

  // Training-forward caches (probs: one entry per head).
  tensor::Tensor cached_q_, cached_k_, cached_v_;
  std::vector<tensor::Tensor> cached_probs_;
};

}  // namespace odlp::nn
