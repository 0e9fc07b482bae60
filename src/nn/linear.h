// Linear layer with an optional LoRA (Low-Rank Adaptation) adapter.
//
// Forward:  y = x·W + b                      (base path)
//           y += (dropout(x)·A)·B · (α/r)    (LoRA path, when attached)
//
// attach_lora() freezes W and b and adds trainable A (init N(0, 0.02)) and B
// (init 0), matching Hu et al. 2021 as configured in the paper: rank r = 8,
// α = 16, dropout = 0.05 on the adapter input. merge_lora() folds the adapter
// into W for zero-overhead inference after fine-tuning.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "nn/lora_overlay.h"
#include "nn/param.h"
#include "tensor/ops.h"
#include "tensor/qtensor.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace odlp::nn {

struct LoraConfig {
  std::size_t rank = 8;
  float alpha = 16.0f;
  float dropout = 0.05f;
};

class Linear {
 public:
  // Creates W [in, out] (Xavier) and b [1, out] (zero).
  Linear(std::string name, std::size_t in, std::size_t out, util::Rng& rng,
         bool bias = true);

  // Forward one sequence x [T, in] -> [T, out], written into a `ws` slot
  // (the returned reference is valid until ws.reset()). `training` means a
  // backward follows (DESIGN.md §8): a training forward draws LoRA dropout
  // and caches what backward reads in member storage — never in the
  // workspace — so the caller may reset `ws` between forward and backward.
  // An inference forward writes no cache. `x` may itself be a slot of `ws`.
  tensor::Tensor& forward_ws(const tensor::Tensor& x, bool training,
                             tensor::Workspace& ws);

  // Backward from dY [T, out]; accumulates parameter grads (skipped entirely
  // for frozen parameters — the big FLOP saving under LoRA), returns dX in a
  // `ws` slot. Must follow a training forward with T rows and no inference
  // forward since; otherwise throws std::logic_error.
  tensor::Tensor& backward_ws(const tensor::Tensor& dout, tensor::Workspace& ws);
  // backward_ws without dX: the same parameter grads, but neither the base
  // dY·Wᵀ nor the LoRA path's input gradient and dropout mask (for an input
  // whose gradient nothing reads).
  void backward_params_ws(const tensor::Tensor& dout, tensor::Workspace& ws);

  // Allocating wrappers over the _ws entry points (tests, cold paths); they
  // run in the thread-local scratch arena and return an owned copy.
  tensor::Tensor forward(const tensor::Tensor& x, bool training);
  tensor::Tensor backward(const tensor::Tensor& dout);

  // Frozen-weight INT8 mode: snapshots W into a per-block int8 copy
  // (tensor::QuantizedTensor, kAlongRows) that inference-time forwards
  // (training=false) multiply through tensor::qmatmul_into. Training
  // forwards and every backward keep using the fp32 W, and the LoRA delta
  // stays fp32-exact on top: y = Q(W)·x + b + B(A·x)·(α/r). Must be
  // re-invoked after any mutation of W (merge_lora does so itself; the
  // model-level refresh_quantized_weights covers load/copy).
  void quantize_frozen();
  // Drops the int8 copy; forward returns to the fp32 path.
  void dequantize_frozen();
  bool quantized() const { return quantized_; }
  // Round-trip error of the current int8 snapshot against fp32 W.
  tensor::QuantStats quantization_stats() const;

  // Memory-ledger accessors: bytes of base weight + bias resident under the
  // active mode (int8 codes + fp32 scales when quantized), and the
  // scale-table share of that.
  std::size_t resident_weight_bytes() const;
  std::size_t quant_scale_bytes() const;
  // fp32 bytes of W (+ bias) regardless of mode — the ledger's baseline.
  std::size_t fp32_weight_bytes() const {
    return (weight_.value.size() + bias_.value.size()) * sizeof(float);
  }

  // LoRA lifecycle. attach_lora freezes W and b (building W's panels, see
  // below); detach_lora and merge_lora make them trainable again and drop
  // the panels.
  void attach_lora(const LoraConfig& config, util::Rng& rng);
  void detach_lora();
  bool has_lora() const { return lora_.has_value(); }
  // Folds A·B·(α/r) into W and removes the adapter; W/b become trainable again.
  void merge_lora();

  // Frozen-weight GEMM panels (DESIGN.md §8): while W is frozen the Linear
  // holds W packed for the forward product and Wᵀ for the backward dX, built
  // once, so those GEMMs stop packing B per call. The bytes do not move.
  // The panels are immutable and may be shared by Linears whose W holds the
  // same values. sync_panels() builds them for a frozen W that has none and
  // drops them for a trainable one; repack_panels() rebuilds them after W's
  // values changed; share_panels() takes `source`'s, whose W values and
  // trainability this Linear must already have.
  struct Panels {
    tensor::PackedB w;    // PackedB::nn(W): forward
    tensor::PackedB w_t;  // PackedB::nt(W): backward dX = dY·Wᵀ
  };
  void sync_panels();
  void repack_panels();
  void share_panels(const Linear& source);
  const Panels* panels() const { return panels_.get(); }

  void collect_parameters(ParameterList& out);

  std::size_t in_features() const { return weight_.value.rows(); }
  std::size_t out_features() const { return weight_.value.cols(); }
  const Parameter& weight() const { return weight_; }
  const Parameter* lora_a() const { return lora_ ? &lora_->a : nullptr; }
  const Parameter* lora_b() const { return lora_ ? &lora_->b : nullptr; }
  // Mutable adapter access for the fleet hot-swap path (overwriting the
  // values in place; shapes must not change). Precondition: has_lora().
  Parameter& mutable_lora_a() { return lora_->a; }
  Parameter& mutable_lora_b() { return lora_->b; }

  // Adds per-row LoRA deltas from `overlays` (length n, entries may be
  // null = no adapter for that row) on top of y [n, out], where x [n, in]
  // is the same input the base product consumed. `site` indexes each
  // overlay's `sites` array (the model assigns site indices in
  // lora_linears() order). The rows that share an overlay run as one
  // group: one (g×in)·A, one (g×r)·B and one add_scaled per distinct
  // overlay. Row b is bit-identical to forward_ws on a model with row b's
  // adapter attached (DESIGN.md §13). Must not be combined with an
  // attached adapter (asserted): the overlay replaces it.
  void apply_lora_rows_ws(const tensor::Tensor& x, tensor::Tensor& y,
                          const LoraOverlaySet* const* overlays, std::size_t n,
                          std::size_t site, tensor::Workspace& ws);

  // The rng LoRA dropout draws from, seeded at construction — per-user
  // state under fleet hot-swap (capture before deactivating a user, restore
  // before their next training step).
  util::Rng& dropout_rng() { return rng_; }

 private:
  struct Lora {
    LoraConfig config;
    Parameter a;  // [in, r]
    Parameter b;  // [r, out]
  };

  // Throws unless dY matches the cached training forward.
  void check_backward(const tensor::Tensor& dout) const;
  // Accumulates the parameter grads from dY; adds the LoRA path's input
  // gradient into *dx unless dx is null.
  void param_backward_ws(const tensor::Tensor& dout, tensor::Workspace& ws,
                         tensor::Tensor* dx);

  std::string name_;
  Parameter weight_;  // [in, out]
  Parameter bias_;    // [1, out]; empty tensor when bias disabled
  bool has_bias_;
  std::optional<Lora> lora_;
  tensor::QuantizedTensor qweight_;  // int8 snapshot of W when quantized_
  std::shared_ptr<const Panels> panels_;  // set iff W is frozen
  bool quantized_ = false;
  util::Rng rng_;  // the LoRA dropout stream

  // Training-forward caches; an inference forward leaves cached_x_ empty.
  tensor::Tensor cached_x_;         // input
  tensor::Tensor cached_x_dropped_; // LoRA-path input after dropout
  tensor::Tensor cached_xa_;        // dropout(x)·A
};

}  // namespace odlp::nn
