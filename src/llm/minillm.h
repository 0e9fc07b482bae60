// MiniLlm: a from-scratch decoder-only transformer language model.
//
// This is the library's stand-in for the paper's on-device Llama-3B
// (DESIGN.md §2): a real trainable causal LM with the same architectural
// skeleton (token+position embeddings, pre-LN blocks with multi-head causal
// attention and GELU MLPs, final LayerNorm, LM head) at a scale a CPU can
// fine-tune in seconds. LoRA attaches to the q/k/v/o projections exactly as
// the paper configures for Llama.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/block.h"
#include "nn/embedding.h"
#include "nn/norm.h"
#include "nn/linear.h"
#include "nn/param.h"
#include "nn/precision.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace odlp::llm {

struct ModelConfig {
  std::size_t vocab_size = 512;
  std::size_t dim = 64;
  std::size_t heads = 4;
  std::size_t layers = 2;
  std::size_t ff_hidden = 128;
  std::size_t max_seq_len = 96;
  // Llama-style RMSNorm instead of LayerNorm in every block and the final
  // normalization (changes the parameter set; checkpoints are not
  // interchangeable across this flag).
  bool use_rmsnorm = false;

  // FLOPs of one forward pass over a length-T sequence (approximate, used by
  // the device cost model).
  double forward_flops(std::size_t seq_len) const;
};

// Rows [begin, end) of a sequence that the LM head runs on; `end` is
// clipped to the sequence length, so the default covers every row.
struct HeadSpan {
  std::size_t begin = 0;
  std::size_t end = static_cast<std::size_t>(-1);
};

// The head span a training step needs for next-token `targets` (one per
// row): the rows from the first to the last supervised target (!=
// ignore_index), widened to at least 4 rows (all rows when there are fewer
// than 4), or empty when no row is supervised. The widening keeps the head
// products on the tiled GEMM, whose rows are the same bits as those rows
// of a full-sequence product; below 4 rows the GEMM sums in another order
// (DESIGN.md §8).
HeadSpan supervised_head_span(const std::vector<int>& targets,
                              int ignore_index = -1);

class MiniLlm {
 public:
  MiniLlm(const ModelConfig& config, std::uint64_t seed);

  // Forward pass over a token sequence (<= max_seq_len after truncation).
  // Returns logits [T, vocab]. Caches activations for backward().
  //
  // The _shared spelling returns a reference into the model-owned workspace:
  // zero-copy and allocation-free at steady state, but only valid until the
  // next forward/backward/incremental call on this model (each step resets
  // the arena). forward() wraps it and returns an owned copy.
  //
  // `head` limits the LM head to rows [head.begin, head.end): the result is
  // then those rows' logits [end - begin, vocab], bit-identical to the
  // same rows of a full forward when the span has >= 4 rows or is all of T
  // (supervised_head_span picks such a span). Every block still runs on
  // all T rows, so dropout draws the same stream. An empty span skips the
  // head and returns [0, vocab].
  tensor::Tensor& forward_shared(const std::vector<int>& ids, bool training,
                                 HeadSpan head = {});
  tensor::Tensor forward(const std::vector<int>& ids, bool training);

  // Backprop from dLogits over the previous forward's head span (dlogits
  // has that span's rows); rows outside it get a +0 gradient, which is what
  // the full head gives a masked row. Accumulates gradients in all
  // trainable params. Resets the model workspace (forward's returned slot
  // dies here); module activation caches are member-owned, so they survive.
  void backward(const tensor::Tensor& dlogits);

  // KV-cached incremental decode of one token at `position` (0-based).
  // `caches` must hold one KvCache per block (see DecodeSession, which
  // manages them). Returns the token's logits [1, vocab] as a workspace
  // reference with the same lifetime rules as forward_shared. Inference only;
  // the width-1 case of forward_incremental_batch.
  tensor::Tensor& forward_incremental(int token, std::size_t position,
                                      std::vector<nn::KvCache>& caches);

  // Continuous-batched decode step over independent sessions: feeds
  // tokens[b] at positions[b] against caches[b] (session b's per-block
  // cache vector — ragged positions are fine, each session advances at its
  // own length). Returns logits [B, vocab] with forward_shared lifetime
  // rules. Row b is bit-identical to forward_incremental(tokens[b],
  // positions[b], *caches[b]) run alone: the shared GEMMs at m=B are
  // row-invariant, everything else is row-wise or per-session (DESIGN.md
  // §12). Inference only.
  //
  // `overlays` (optional, length B) carries per-row LoRA snapshots for
  // cross-tenant decode on a shared adapter-free base: row b's snapshot is
  // applied at every q/k/v/o site (site order = lora_linears()), making row
  // b bit-identical to decoding on a model with that user's adapters
  // attached. Null entries skip the overlay for that row; the model itself
  // must not have LoRA attached when overlays are passed.
  tensor::Tensor& forward_incremental_batch(
      const std::vector<int>& tokens, const std::vector<int>& positions,
      const std::vector<std::vector<nn::KvCache>*>& caches,
      const nn::LoraOverlaySet* const* overlays = nullptr);

  std::size_t num_blocks() const { return blocks_.size(); }

  // Hidden states of the last transformer block after the final LayerNorm,
  // [T, dim] — the paper's "last hidden layer" embedding source. Runs a fresh
  // inference forward pass that stops before the LM head, so it invalidates
  // any pending backward().
  tensor::Tensor hidden_states(const std::vector<int>& ids);

  // LoRA lifecycle: attach freezes every base parameter and installs
  // adapters on q/k/v/o in every block (the paper's trainable set).
  void attach_lora(const nn::LoraConfig& config);
  void merge_lora();
  bool has_lora() const { return has_lora_; }

  // The LoRA-site Linears (every block's q/k/v/o projections, block-major),
  // in the site order LoraOverlaySet uses. Valid whether or not adapters
  // are currently attached — the fleet uses it both to snapshot/install
  // per-user adapters on attached worker models and to count sites on the
  // adapter-free shared decode model.
  std::vector<nn::Linear*> lora_linears();

  // Inference precision switch (nn/precision.h). kInt8 snapshots every base
  // weight — all Linears including the LM head, plus both embedding tables —
  // into per-block int8 copies that inference-time forwards (training=false)
  // run against; training forwards, backward, LoRA adapters, and norms stay
  // fp32. Idempotent.
  void set_inference_precision(nn::InferencePrecision precision);
  nn::InferencePrecision inference_precision() const { return precision_; }

  // Re-snapshots the int8 copies from the current fp32 weights; no-op at
  // fp32. load(), copy_parameters_from(), and merge (via Linear) already
  // call it — invoke manually only after mutating parameters directly
  // (e.g. a full-precision fine-tune without LoRA).
  void refresh_quantized_weights();

  // Inference-resident bytes under the active precision. Gradients and
  // optimizer state are excluded: an on-device inference deployment does
  // not carry them (the devicesim ledger adds KV-cache and buffer terms).
  struct WeightFootprint {
    std::size_t matmul_weight_bytes = 0;  // Linears incl. lm_head (+ biases)
    std::size_t embedding_bytes = 0;      // token + position tables
    std::size_t scale_bytes = 0;          // fp32 scale share of the above
    std::size_t norm_bytes = 0;           // norm gains/biases (always fp32)
    std::size_t lora_bytes = 0;           // adapters (always fp32)
    std::size_t total_bytes() const {
      return matmul_weight_bytes + embedding_bytes + norm_bytes + lora_bytes;
    }
  };
  WeightFootprint weight_footprint();

  nn::ParameterList parameters();
  std::size_t num_parameters();
  std::size_t num_trainable_parameters();

  // Copies every parameter value (and trainability flag) from `other`,
  // which must have the same architecture and LoRA state (identical
  // parameter names and shapes) — throws std::invalid_argument otherwise.
  // Used to build per-worker inference clones for parallel evaluation:
  // forward() mutates activation caches, so concurrent lanes must not
  // share one model instance.
  void copy_parameters_from(MiniLlm& other);

  const ModelConfig& config() const { return config_; }
  util::Rng& rng() { return rng_; }

  // Binary checkpoint of all parameter values (not optimizer state).
  // save() writes atomically with a CRC-32 footer; load() verifies it and
  // throws util::CorruptionError on a damaged or mismatched file, leaving
  // the in-memory parameters untouched.
  void save(const std::string& path);
  void load(const std::string& path);

 private:
  ModelConfig config_;
  util::Rng rng_;
  // Scratch arena for every temporary of a forward/backward/decode step.
  // Owned by the model so per-lane clones are isolated by construction; at
  // steady state a whole training step makes zero heap allocations.
  tensor::Workspace ws_;
  nn::Embedding tok_emb_;
  nn::Embedding pos_emb_;
  std::vector<std::unique_ptr<nn::TransformerBlock>> blocks_;
  nn::Norm final_ln_;
  nn::Linear lm_head_;
  bool has_lora_ = false;
  nn::InferencePrecision precision_ = nn::InferencePrecision::kFp32;

  // Every Linear in forward order (block projections + FFNs, then lm_head).
  std::vector<nn::Linear*> all_linears();

  std::vector<int> cached_ids_;
  tensor::Tensor cached_final_hidden_;  // final-norm output, all T rows
  HeadSpan head_span_;                  // forward's head rows, clipped to T

  // Per-layer cache-pointer scratch for forward_incremental_batch; member
  // so steady-state decode steps stay allocation-free.
  std::vector<nn::KvCache*> layer_cache_scratch_;
};

}  // namespace odlp::llm
