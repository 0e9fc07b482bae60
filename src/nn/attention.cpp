#include "nn/attention.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "tensor/ops.h"

namespace odlp::nn {

namespace {

// Copy columns [c0, c0+w) of `src` into the [T, w] tensor `out`.
void slice_cols_into(const tensor::Tensor& src, std::size_t c0, std::size_t w,
                     tensor::Tensor& out) {
  out.resize_uninitialized(src.rows(), w);
  for (std::size_t i = 0; i < src.rows(); ++i) {
    const float* s = src.row(i) + c0;
    float* d = out.row(i);
    for (std::size_t j = 0; j < w; ++j) d[j] = s[j];
  }
}

// Write a [T, w] block into columns [c0, c0+w) of `dst` (per-head column
// blocks are disjoint, so heads overwrite rather than accumulate).
void store_cols(tensor::Tensor& dst, const tensor::Tensor& block, std::size_t c0) {
  for (std::size_t i = 0; i < dst.rows(); ++i) {
    float* d = dst.row(i) + c0;
    const float* s = block.row(i);
    for (std::size_t j = 0; j < block.cols(); ++j) d[j] = s[j];
  }
}

}  // namespace

MultiHeadSelfAttention::MultiHeadSelfAttention(std::string name, std::size_t dim,
                                               std::size_t heads, util::Rng& rng)
    : dim_(dim),
      heads_(heads),
      head_dim_(dim / heads),
      q_proj_(name + ".q_proj", dim, dim, rng),
      k_proj_(name + ".k_proj", dim, dim, rng),
      v_proj_(name + ".v_proj", dim, dim, rng),
      o_proj_(name + ".o_proj", dim, dim, rng) {
  assert(dim % heads == 0);
}

tensor::Tensor& MultiHeadSelfAttention::forward_ws(const tensor::Tensor& x,
                                                   bool training,
                                                   tensor::Workspace& ws) {
  assert(x.cols() == dim_);
  const std::size_t T = x.rows();
  cached_q_ = q_proj_.forward_ws(x, training, ws);
  cached_k_ = k_proj_.forward_ws(x, training, ws);
  cached_v_ = v_proj_.forward_ws(x, training, ws);
  // Member-owned per-head caches: resized once, storage reused every step.
  if (cached_probs_.size() != heads_) cached_probs_.resize(heads_);

  tensor::Tensor& concat = ws.acquire(T, dim_);
  tensor::Tensor& qh = ws.acquire(T, head_dim_);
  tensor::Tensor& kh = ws.acquire(T, head_dim_);
  tensor::Tensor& vh = ws.acquire(T, head_dim_);
  tensor::Tensor& scores = ws.acquire(T, T);
  tensor::Tensor& oh = ws.acquire(T, head_dim_);
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  for (std::size_t h = 0; h < heads_; ++h) {
    const std::size_t c0 = h * head_dim_;
    slice_cols_into(cached_q_, c0, head_dim_, qh);
    slice_cols_into(cached_k_, c0, head_dim_, kh);
    slice_cols_into(cached_v_, c0, head_dim_, vh);
    // scores[i, j] = qh_i · kh_j; probs = causal softmax of scores / sqrt(dh),
    // which touches only j <= i and writes +0 above the diagonal.
    tensor::matmul_nt_into(qh, kh, scores);
    tensor::softmax_causal_rows_into(scores, inv_sqrt_dh, cached_probs_[h]);
    tensor::matmul_into(cached_probs_[h], vh, oh);
    store_cols(concat, oh, c0);
  }
  return o_proj_.forward_ws(concat, training, ws);
}

tensor::Tensor MultiHeadSelfAttention::forward(const tensor::Tensor& x,
                                               bool training) {
  return forward_ws(x, training, tensor::Workspace::enter(nullptr));
}

tensor::Tensor& MultiHeadSelfAttention::forward_incremental_batch_ws(
    const tensor::Tensor& x, KvCache* const* caches, std::size_t n,
    tensor::Workspace& ws, const LoraOverlaySet* const* overlays,
    std::size_t site_base) {
  assert(n > 0);
  assert(x.rows() == n && x.cols() == dim_);

  tensor::Tensor& q = q_proj_.forward_ws(x, /*training=*/false, ws);
  tensor::Tensor& k = k_proj_.forward_ws(x, /*training=*/false, ws);
  tensor::Tensor& v = v_proj_.forward_ws(x, /*training=*/false, ws);
  if (overlays) {
    q_proj_.apply_lora_rows_ws(x, q, overlays, n, site_base + 0, ws);
    k_proj_.apply_lora_rows_ws(x, k, overlays, n, site_base + 1, ws);
    v_proj_.apply_lora_rows_ws(x, v, overlays, n, site_base + 2, ws);
  }

  // Append each row's keys/values at its own session's cache position.
  std::size_t max_capacity = 0;
  for (std::size_t b = 0; b < n; ++b) {
    KvCache& cache = *caches[b];
    assert(!cache.full());
    assert(cache.k.cols() == dim_);
    const std::size_t t = cache.len;
    const float* __restrict__ ks = k.row(b);
    const float* __restrict__ vs = v.row(b);
    float* __restrict__ kd = cache.k.row(t);
    float* __restrict__ vd = cache.v.row(t);
    for (std::size_t j = 0; j < dim_; ++j) {
      kd[j] = ks[j];
      vd[j] = vs[j];
    }
    ++cache.len;
    max_capacity = std::max(max_capacity, cache.k.rows());
  }

  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  tensor::Tensor& concat = ws.acquire(n, dim_);
  concat.zero();
  // Sized to the largest cache capacity (not len) so the slot never regrows
  // as sequences extend — decode steps stay allocation-free; only the first
  // cache.len entries are used per session.
  tensor::Tensor& scores_t = ws.acquire(1, max_capacity);
  float* scores = scores_t.row(0);
  for (std::size_t b = 0; b < n; ++b) {
    const KvCache& cache = *caches[b];
    const float* qrow = q.row(b);
    float* crow = concat.row(b);
    for (std::size_t h = 0; h < heads_; ++h) {
      const std::size_t c0 = h * head_dim_;
      // scores[j] = q_h · k_h[j] / sqrt(dh) over this session's cached
      // positions (causal by construction: the cache only holds <= t).
      float mx = -std::numeric_limits<float>::infinity();
      for (std::size_t j = 0; j < cache.len; ++j) {
        const float* krow = cache.k.row(j) + c0;
        double dot = 0.0;
        for (std::size_t d = 0; d < head_dim_; ++d) {
          dot += static_cast<double>(qrow[c0 + d]) * krow[d];
        }
        scores[j] = static_cast<float>(dot) * inv_sqrt_dh;
        mx = std::max(mx, scores[j]);
      }
      double sum = 0.0;
      for (std::size_t j = 0; j < cache.len; ++j) {
        scores[j] = std::exp(scores[j] - mx);
        sum += scores[j];
      }
      const float inv_sum = static_cast<float>(1.0 / sum);
      for (std::size_t j = 0; j < cache.len; ++j) {
        const float p = scores[j] * inv_sum;
        const float* vrow = cache.v.row(j) + c0;
        for (std::size_t d = 0; d < head_dim_; ++d) {
          crow[c0 + d] += p * vrow[d];
        }
      }
    }
  }
  tensor::Tensor& out = o_proj_.forward_ws(concat, /*training=*/false, ws);
  if (overlays) {
    o_proj_.apply_lora_rows_ws(concat, out, overlays, n, site_base + 3, ws);
  }
  return out;
}

tensor::Tensor& MultiHeadSelfAttention::backward_ws(const tensor::Tensor& dout,
                                                    tensor::Workspace& ws) {
  const std::size_t T = dout.rows();
  tensor::Tensor& dconcat = o_proj_.backward_ws(dout, ws);

  tensor::Tensor& dq = ws.acquire(T, dim_);
  tensor::Tensor& dk = ws.acquire(T, dim_);
  tensor::Tensor& dv = ws.acquire(T, dim_);
  tensor::Tensor& qh = ws.acquire(T, head_dim_);
  tensor::Tensor& kh = ws.acquire(T, head_dim_);
  tensor::Tensor& vh = ws.acquire(T, head_dim_);
  tensor::Tensor& doh = ws.acquire(T, head_dim_);
  tensor::Tensor& dprobs = ws.acquire(T, T);
  tensor::Tensor& dscores = ws.acquire(T, T);
  tensor::Tensor& dqh = ws.acquire(T, head_dim_);
  tensor::Tensor& dkh = ws.acquire(T, head_dim_);
  tensor::Tensor& dvh = ws.acquire(T, head_dim_);
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  for (std::size_t h = 0; h < heads_; ++h) {
    const std::size_t c0 = h * head_dim_;
    slice_cols_into(cached_q_, c0, head_dim_, qh);
    slice_cols_into(cached_k_, c0, head_dim_, kh);
    slice_cols_into(cached_v_, c0, head_dim_, vh);
    slice_cols_into(dconcat, c0, head_dim_, doh);
    const tensor::Tensor& probs = cached_probs_[h];

    // oh = probs · vh  =>  dprobs = doh · vhᵀ, dvh = probsᵀ · doh.
    tensor::matmul_nt_into(doh, vh, dprobs);
    tensor::matmul_tn_into(probs, doh, dvh);

    // probs = softmax(scores); masked entries have probs == 0 => dscores == 0.
    tensor::softmax_rows_backward_into(probs, dprobs, dscores);
    dscores *= inv_sqrt_dh;

    // scores·sqrt(dh) = qh · khᵀ  =>  dqh = dscores · kh, dkh = dscoresᵀ · qh
    // (both via the transposed-operand GEMM — no transposed copies).
    tensor::matmul_into(dscores, kh, dqh);
    tensor::matmul_tn_into(dscores, qh, dkh);

    store_cols(dq, dqh, c0);
    store_cols(dk, dkh, c0);
    store_cols(dv, dvh, c0);
  }

  tensor::Tensor& dx = q_proj_.backward_ws(dq, ws);
  dx += k_proj_.backward_ws(dk, ws);
  dx += v_proj_.backward_ws(dv, ws);
  return dx;
}

tensor::Tensor MultiHeadSelfAttention::backward(const tensor::Tensor& dout) {
  return backward_ws(dout, tensor::Workspace::enter(nullptr));
}

void MultiHeadSelfAttention::attach_lora(const LoraConfig& config, util::Rng& rng) {
  q_proj_.attach_lora(config, rng);
  k_proj_.attach_lora(config, rng);
  v_proj_.attach_lora(config, rng);
  o_proj_.attach_lora(config, rng);
}

void MultiHeadSelfAttention::merge_lora() {
  q_proj_.merge_lora();
  k_proj_.merge_lora();
  v_proj_.merge_lora();
  o_proj_.merge_lora();
}

void MultiHeadSelfAttention::collect_parameters(ParameterList& out) {
  q_proj_.collect_parameters(out);
  k_proj_.collect_parameters(out);
  v_proj_.collect_parameters(out);
  o_proj_.collect_parameters(out);
}

void MultiHeadSelfAttention::collect_linears(std::vector<Linear*>& out) {
  out.push_back(&q_proj_);
  out.push_back(&k_proj_);
  out.push_back(&v_proj_);
  out.push_back(&o_proj_);
}

void MultiHeadSelfAttention::set_dropout_rng(util::Rng* rng) {
  q_proj_.set_dropout_rng(rng);
  k_proj_.set_dropout_rng(rng);
  v_proj_.set_dropout_rng(rng);
  o_proj_.set_dropout_rng(rng);
}

}  // namespace odlp::nn
