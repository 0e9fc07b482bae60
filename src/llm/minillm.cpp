#include "llm/minillm.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>

#include "util/atomic_file.h"
#include "util/strings.h"

namespace odlp::llm {

double ModelConfig::forward_flops(std::size_t seq_len) const {
  const double T = static_cast<double>(seq_len);
  const double D = static_cast<double>(dim);
  const double F = static_cast<double>(ff_hidden);
  const double V = static_cast<double>(vocab_size);
  // Per block: 4 projections (2*T*D*D each), attention scores+mix (2 * 2*T*T*D),
  // MLP (2 * 2*T*D*F).
  const double per_block = 4.0 * 2.0 * T * D * D + 4.0 * T * T * D + 4.0 * T * D * F;
  return static_cast<double>(layers) * per_block + 2.0 * T * D * V;
}

MiniLlm::MiniLlm(const ModelConfig& config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      tok_emb_("tok_emb", config.vocab_size, config.dim, rng_),
      pos_emb_("pos_emb", config.max_seq_len, config.dim, rng_),
      final_ln_(config.use_rmsnorm ? nn::Norm::Kind::kRmsNorm
                                   : nn::Norm::Kind::kLayerNorm,
                "final_ln", config.dim),
      lm_head_("lm_head", config.dim, config.vocab_size, rng_, /*bias=*/false) {
  const nn::Norm::Kind norm_kind = config.use_rmsnorm
                                       ? nn::Norm::Kind::kRmsNorm
                                       : nn::Norm::Kind::kLayerNorm;
  blocks_.reserve(config.layers);
  for (std::size_t l = 0; l < config.layers; ++l) {
    blocks_.push_back(std::make_unique<nn::TransformerBlock>(
        util::format("block%zu", l), config.dim, config.heads, config.ff_hidden,
        rng_, norm_kind));
  }
}

HeadSpan supervised_head_span(const std::vector<int>& targets,
                              int ignore_index) {
  const std::size_t T = targets.size();
  HeadSpan span{T, 0};
  for (std::size_t t = 0; t < T; ++t) {
    if (targets[t] == ignore_index) continue;
    span.begin = std::min(span.begin, t);
    span.end = t + 1;
  }
  if (span.end == 0) return HeadSpan{0, 0};
  // tensor::gemm runs the tiled kernel from 4 rows (kMR) up.
  constexpr std::size_t kMinRows = 4;
  if (T <= kMinRows) return HeadSpan{0, T};
  span.end = std::max(span.end, std::min(T, span.begin + kMinRows));
  span.begin = std::min(span.begin, span.end - kMinRows);
  return span;
}

const tensor::Tensor& MiniLlm::final_hidden_ws(const std::vector<int>& ids,
                                               bool training) {
  assert(!ids.empty());
  ws_.reset();
  std::vector<int> clipped = ids;
  if (clipped.size() > config_.max_seq_len) clipped.resize(config_.max_seq_len);
  const std::size_t T = clipped.size();
  std::vector<int> positions(T);
  for (std::size_t t = 0; t < T; ++t) positions[t] = static_cast<int>(t);

  tensor::Tensor& emb = ws_.acquire(T, config_.dim);
  tok_emb_.forward_into(clipped, emb, /*accumulate=*/false, training);
  pos_emb_.forward_into(positions, emb, /*accumulate=*/true, training);
  const tensor::Tensor* x = &emb;
  for (auto& block : blocks_) x = &block->forward_ws(*x, training, ws_);
  return final_ln_.forward_ws(*x, training, ws_);
}

tensor::Tensor& MiniLlm::forward_shared(const std::vector<int>& ids,
                                        bool training, HeadSpan head) {
  const tensor::Tensor& hidden = final_hidden_ws(ids, training);
  const std::size_t T = hidden.rows();
  seq_len_ = T;
  head_span_ = HeadSpan{std::min(head.begin, T), std::min(head.end, T)};
  assert(head_span_.begin <= head_span_.end);

  const std::size_t rows = head_span_.end - head_span_.begin;
  if (rows == T) return lm_head_.forward_ws(hidden, training, ws_);
  if (rows == 0) return ws_.acquire(0, config_.vocab_size);
  tensor::Tensor& head_in = ws_.acquire(rows, config_.dim);
  std::copy(hidden.row(head_span_.begin), hidden.row(head_span_.end),
            head_in.data());
  return lm_head_.forward_ws(head_in, training, ws_);
}

tensor::Tensor MiniLlm::forward(const std::vector<int>& ids, bool training) {
  return forward_shared(ids, training);
}

void MiniLlm::backward(const tensor::Tensor& dlogits) {
  const std::size_t T = seq_len_;
  const std::size_t rows = head_span_.end - head_span_.begin;
  assert(dlogits.rows() == rows);
  ws_.reset();
  tensor::Tensor* dhidden;
  if (rows == T) {
    dhidden = &lm_head_.backward_ws(dlogits, ws_);
  } else {
    dhidden = &ws_.acquire(T, config_.dim);
    dhidden->zero();
    if (rows > 0) {
      const tensor::Tensor& dhead = lm_head_.backward_ws(dlogits, ws_);
      std::copy(dhead.data(), dhead.data() + dhead.size(),
                dhidden->row(head_span_.begin));
    }
  }
  const tensor::Tensor* dx = &final_ln_.backward_ws(*dhidden, ws_);
  // Only trainable embeddings read the gradient into block 0's input; under
  // LoRA neither does, so block 0 computes its parameter gradients only.
  const bool input_grad = tok_emb_.trainable() || pos_emb_.trainable();
  for (std::size_t l = blocks_.size(); l-- > 0;) {
    if (l == 0 && !input_grad) {
      blocks_[0]->backward_params_ws(*dx, ws_);
      return;
    }
    dx = &blocks_[l]->backward_ws(*dx, ws_);
  }
  tok_emb_.backward(*dx);
  pos_emb_.backward(*dx);
}

tensor::Tensor& MiniLlm::forward_incremental(int token, std::size_t position,
                                             std::vector<nn::KvCache>& caches) {
  return forward_incremental_batch({token}, {static_cast<int>(position)},
                                   {&caches});
}

tensor::Tensor& MiniLlm::forward_incremental_batch(
    const std::vector<int>& tokens, const std::vector<int>& positions,
    const std::vector<std::vector<nn::KvCache>*>& caches,
    const nn::LoraOverlaySet* const* overlays) {
  const std::size_t n = tokens.size();
  assert(n > 0);
  assert(positions.size() == n && caches.size() == n);
  assert(!(overlays && has_lora_));  // overlay replaces attached adapters
#ifndef NDEBUG
  for (std::size_t b = 0; b < n; ++b) {
    assert(caches[b] != nullptr && caches[b]->size() == blocks_.size());
    assert(static_cast<std::size_t>(positions[b]) < config_.max_seq_len);
  }
#endif
  ws_.reset();
  tensor::Tensor& emb = ws_.acquire(n, config_.dim);
  tok_emb_.forward_into(tokens, emb);
  pos_emb_.forward_into(positions, emb, /*accumulate=*/true);
  if (layer_cache_scratch_.size() < n) layer_cache_scratch_.resize(n);
  const tensor::Tensor* x = &emb;
  for (std::size_t l = 0; l < blocks_.size(); ++l) {
    for (std::size_t b = 0; b < n; ++b) {
      layer_cache_scratch_[b] = &(*caches[b])[l];
    }
    x = &blocks_[l]->forward_incremental_batch_ws(
        *x, layer_cache_scratch_.data(), n, ws_, overlays, l * 4);
  }
  return lm_head_.forward_ws(final_ln_.forward_ws(*x, /*training=*/false, ws_),
                             /*training=*/false, ws_);
}

tensor::Tensor MiniLlm::hidden_states(const std::vector<int>& ids) {
  return final_hidden_ws(ids, /*training=*/false);
}

void MiniLlm::freeze() {
  for (nn::Parameter* p : parameters()) p->set_trainable(false);
  for (nn::Linear* l : all_linears()) l->sync_panels();
}

void MiniLlm::attach_lora(const nn::LoraConfig& config) {
  if (has_lora_) return;
  // Freeze everything, then install adapters (whose params are trainable).
  freeze();
  for (auto& block : blocks_) block->attach_lora(config, rng_);
  has_lora_ = true;
}

std::vector<nn::Linear*> MiniLlm::lora_linears() {
  std::vector<nn::Linear*> linears;
  for (auto& block : blocks_) block->attention().collect_linears(linears);
  return linears;
}

std::vector<nn::Linear*> MiniLlm::all_linears() {
  std::vector<nn::Linear*> linears;
  for (auto& block : blocks_) block->collect_linears(linears);
  linears.push_back(&lm_head_);
  return linears;
}

void MiniLlm::set_inference_precision(nn::InferencePrecision precision) {
  if (precision == precision_) return;
  if (precision == nn::InferencePrecision::kInt8) {
    for (nn::Linear* l : all_linears()) l->quantize_frozen();
    tok_emb_.quantize_frozen();
    pos_emb_.quantize_frozen();
  } else {
    for (nn::Linear* l : all_linears()) l->dequantize_frozen();
    tok_emb_.dequantize_frozen();
    pos_emb_.dequantize_frozen();
  }
  precision_ = precision;
}

void MiniLlm::refresh_quantized_weights() {
  if (precision_ != nn::InferencePrecision::kInt8) return;
  for (nn::Linear* l : all_linears()) l->quantize_frozen();
  tok_emb_.quantize_frozen();
  pos_emb_.quantize_frozen();
}

MiniLlm::WeightFootprint MiniLlm::weight_footprint() {
  WeightFootprint fp;
  std::size_t linear_fp32 = 0;
  for (nn::Linear* l : all_linears()) {
    fp.matmul_weight_bytes += l->resident_weight_bytes();
    fp.scale_bytes += l->quant_scale_bytes();
    linear_fp32 += l->fp32_weight_bytes();
    if (const nn::Parameter* a = l->lora_a()) {
      fp.lora_bytes += a->value.size() * sizeof(float);
    }
    if (const nn::Parameter* b = l->lora_b()) {
      fp.lora_bytes += b->value.size() * sizeof(float);
    }
  }
  fp.embedding_bytes = tok_emb_.resident_bytes() + pos_emb_.resident_bytes();
  fp.scale_bytes += tok_emb_.quant_scale_bytes() + pos_emb_.quant_scale_bytes();
  const std::size_t emb_fp32 =
      (tok_emb_.table().value.size() + pos_emb_.table().value.size()) *
      sizeof(float);
  // Norm gains/biases are whatever parameter mass is neither a Linear, a
  // LoRA adapter, nor an embedding table.
  std::size_t all_fp32 = 0;
  for (const nn::Parameter* p : parameters()) {
    all_fp32 += p->value.size() * sizeof(float);
  }
  fp.norm_bytes = all_fp32 - linear_fp32 - fp.lora_bytes - emb_fp32;
  return fp;
}

void MiniLlm::merge_lora() {
  if (!has_lora_) return;
  for (auto& block : blocks_) block->merge_lora();
  // merge_lora re-enables trainability on the attention projections; restore
  // the rest of the network to trainable as well for symmetry.
  for (nn::Parameter* p : parameters()) p->set_trainable(true);
  for (nn::Linear* l : all_linears()) l->sync_panels();
  has_lora_ = false;
}

nn::ParameterList MiniLlm::parameters() {
  nn::ParameterList params;
  tok_emb_.collect_parameters(params);
  pos_emb_.collect_parameters(params);
  for (auto& block : blocks_) block->collect_parameters(params);
  final_ln_.collect_parameters(params);
  lm_head_.collect_parameters(params);
  return params;
}

void MiniLlm::copy_parameters_from(MiniLlm& other) {
  nn::ParameterList dst = parameters();
  nn::ParameterList src = other.parameters();
  if (dst.size() != src.size()) {
    throw std::invalid_argument(
        "copy_parameters_from: parameter count mismatch (architecture or "
        "LoRA state differs)");
  }
  for (std::size_t i = 0; i < dst.size(); ++i) {
    if (dst[i]->name != src[i]->name ||
        !dst[i]->value.same_shape(src[i]->value)) {
      throw std::invalid_argument("copy_parameters_from: parameter '" +
                                  src[i]->name + "' mismatch");
    }
    dst[i]->value = src[i]->value;
    dst[i]->set_trainable(src[i]->trainable);
  }
  // Same values, same trainability: the source's panels are ours too.
  const std::vector<nn::Linear*> dst_linears = all_linears();
  const std::vector<nn::Linear*> src_linears = other.all_linears();
  for (std::size_t i = 0; i < dst_linears.size(); ++i) {
    dst_linears[i]->share_panels(*src_linears[i]);
  }
  refresh_quantized_weights();
}

std::size_t MiniLlm::num_parameters() { return nn::count_total(parameters()); }

std::size_t MiniLlm::num_trainable_parameters() {
  return nn::count_trainable(parameters());
}

namespace {
constexpr std::uint32_t kMagic = 0x324d444f;  // "ODM2"
}

void MiniLlm::save(const std::string& path) {
  util::AtomicFileWriter out(path);
  const nn::ParameterList params = parameters();
  out.write_pod(kMagic);
  out.write_pod<std::uint64_t>(params.size());
  for (const nn::Parameter* p : params) {
    out.write_pod<std::uint64_t>(p->value.rows());
    out.write_pod<std::uint64_t>(p->value.cols());
    out.write(p->value.data(), p->value.size() * sizeof(float));
  }
  out.write_footer();
  out.commit();
}

void MiniLlm::load(const std::string& path) {
  const std::vector<unsigned char> bytes = util::read_file(path);
  const std::size_t body_end = util::check_footer(bytes, "MiniLlm::load");
  util::ByteReader in(bytes.data(), body_end, "MiniLlm::load");
  if (in.pod<std::uint32_t>() != kMagic) {
    throw util::CorruptionError("MiniLlm::load: bad magic");
  }
  nn::ParameterList params = parameters();
  const auto count = in.pod<std::uint64_t>();
  if (count != params.size()) {
    throw util::CorruptionError(
        "MiniLlm::load: parameter count mismatch (was LoRA attached at save "
        "time?)");
  }
  // Parse into staging tensors first so a corrupt tail cannot leave the
  // live model half-overwritten.
  std::vector<tensor::Tensor> staged;
  staged.reserve(params.size());
  for (const nn::Parameter* p : params) {
    const auto rows = in.pod<std::uint64_t>();
    const auto cols = in.pod<std::uint64_t>();
    if (rows != p->value.rows() || cols != p->value.cols()) {
      throw util::CorruptionError("MiniLlm::load: shape mismatch");
    }
    tensor::Tensor t(rows, cols);
    in.read(t.data(), t.size() * sizeof(float));
    staged.push_back(std::move(t));
  }
  if (in.remaining() != 0) {
    throw util::CorruptionError("MiniLlm::load: trailing bytes");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = std::move(staged[i]);
  }
  for (nn::Linear* l : all_linears()) l->repack_panels();
  refresh_quantized_weights();
}

}  // namespace odlp::llm
