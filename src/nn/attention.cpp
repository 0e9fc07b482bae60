#include "nn/attention.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "tensor/ops.h"

namespace odlp::nn {

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
  const tensor::Tensor& q = q_proj_.forward_ws(x, training, ws);
  const tensor::Tensor& k = k_proj_.forward_ws(x, training, ws);
  const tensor::Tensor& v = v_proj_.forward_ws(x, training, ws);
  if (training) {
    // Member-owned caches for backward: resized once, storage reused
    // every step. An inference forward keeps Q/K/V and probs in `ws`.
    cached_q_ = q;
    cached_k_ = k;
    cached_v_ = v;
    if (cached_probs_.size() != heads_) cached_probs_.resize(heads_);
  }

  tensor::Tensor& concat = ws.acquire(T, dim_);
  tensor::Tensor& scores = ws.acquire(T, T);
  tensor::Tensor* inference_probs = training ? nullptr : &ws.acquire(T, T);
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  for (std::size_t h = 0; h < heads_; ++h) {
    // Head h reads its columns of Q/K/V where they lie and writes its
    // output columns of concat in place (DESIGN.md §8).
    const std::size_t c0 = h * head_dim_;
    tensor::Tensor& probs = training ? cached_probs_[h] : *inference_probs;
    // scores[i, j] = q_i · k_j for j <= i only; probs = causal softmax of
    // scores / sqrt(dh), which reads j <= i and writes +0 above the
    // diagonal, so probs · V can stop k at each row.
    tensor::matmul_nt_into(tensor::col_block(q, c0, head_dim_),
                           tensor::col_block(k, c0, head_dim_),
                           tensor::view(scores), false, tensor::Triangle::kLower);
    tensor::softmax_causal_rows_into(scores, inv_sqrt_dh, probs);
    tensor::matmul_into(tensor::view(probs),
                        tensor::col_block(v, c0, head_dim_),
                        tensor::col_block(concat, c0, head_dim_), false,
                        tensor::Triangle::kLower);
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
      // Four positions at a time: each dot is its own double chain in
      // ascending d, so the four run side by side and no byte moves.
      const float* qh = qrow + c0;
      std::size_t j4 = 0;
      for (; j4 + 4 <= cache.len; j4 += 4) {
        const float* k0 = cache.k.row(j4) + c0;
        const float* k1 = cache.k.row(j4 + 1) + c0;
        const float* k2 = cache.k.row(j4 + 2) + c0;
        const float* k3 = cache.k.row(j4 + 3) + c0;
        double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
        for (std::size_t d = 0; d < head_dim_; ++d) {
          const double qd = qh[d];
          d0 += qd * k0[d];
          d1 += qd * k1[d];
          d2 += qd * k2[d];
          d3 += qd * k3[d];
        }
        scores[j4] = static_cast<float>(d0) * inv_sqrt_dh;
        scores[j4 + 1] = static_cast<float>(d1) * inv_sqrt_dh;
        scores[j4 + 2] = static_cast<float>(d2) * inv_sqrt_dh;
        scores[j4 + 3] = static_cast<float>(d3) * inv_sqrt_dh;
      }
      for (std::size_t j = j4; j < cache.len; ++j) {
        const float* krow = cache.k.row(j) + c0;
        double dot = 0.0;
        for (std::size_t d = 0; d < head_dim_; ++d) {
          dot += static_cast<double>(qh[d]) * krow[d];
        }
        scores[j] = static_cast<float>(dot) * inv_sqrt_dh;
      }
      float mx = -std::numeric_limits<float>::infinity();
      for (std::size_t j = 0; j < cache.len; ++j) mx = std::max(mx, scores[j]);
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

MultiHeadSelfAttention::HeadGrads MultiHeadSelfAttention::heads_backward_ws(
    const tensor::Tensor& dout, tensor::Workspace& ws) {
  const std::size_t T = dout.rows();
  const tensor::Tensor& dconcat = o_proj_.backward_ws(dout, ws);

  HeadGrads g{ws.acquire(T, dim_), ws.acquire(T, dim_), ws.acquire(T, dim_)};
  tensor::Tensor& dprobs = ws.acquire(T, T);
  tensor::Tensor& dscores = ws.acquire(T, T);
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  const tensor::Triangle causal = tensor::Triangle::kLower;
  for (std::size_t h = 0; h < heads_; ++h) {
    const std::size_t c0 = h * head_dim_;
    const tensor::ConstMatView qh = tensor::col_block(cached_q_, c0, head_dim_);
    const tensor::ConstMatView kh = tensor::col_block(cached_k_, c0, head_dim_);
    const tensor::ConstMatView vh = tensor::col_block(cached_v_, c0, head_dim_);
    const tensor::ConstMatView doh = tensor::col_block(dconcat, c0, head_dim_);
    const tensor::Tensor& probs = cached_probs_[h];

    // oh = probs · vh  =>  dprobs = doh · vhᵀ (j <= i is all the softmax
    // backward reads), dvh = probsᵀ · doh.
    tensor::matmul_nt_into(doh, vh, tensor::view(dprobs), false, causal);
    tensor::matmul_tn_into(tensor::view(probs), doh,
                           tensor::col_block(g.dv, c0, head_dim_), false,
                           causal);

    // probs = causal softmax(scores / sqrt(dh)); dscores carries the scale
    // and is +0 above the diagonal.
    tensor::softmax_causal_rows_backward_into(probs, dprobs, inv_sqrt_dh,
                                              dscores);

    // scores·sqrt(dh) = qh · khᵀ  =>  dqh = dscores · kh, dkh = dscoresᵀ · qh.
    tensor::matmul_into(tensor::view(dscores), kh,
                        tensor::col_block(g.dq, c0, head_dim_), false, causal);
    tensor::matmul_tn_into(tensor::view(dscores), qh,
                           tensor::col_block(g.dk, c0, head_dim_), false,
                           causal);
  }
  return g;
}

tensor::Tensor& MultiHeadSelfAttention::backward_ws(const tensor::Tensor& dout,
                                                    tensor::Workspace& ws) {
  const HeadGrads g = heads_backward_ws(dout, ws);
  tensor::Tensor& dx = q_proj_.backward_ws(g.dq, ws);
  dx += k_proj_.backward_ws(g.dk, ws);
  dx += v_proj_.backward_ws(g.dv, ws);
  return dx;
}

void MultiHeadSelfAttention::backward_params_ws(const tensor::Tensor& dout,
                                                tensor::Workspace& ws) {
  const HeadGrads g = heads_backward_ws(dout, ws);
  q_proj_.backward_params_ws(g.dq, ws);
  k_proj_.backward_params_ws(g.dk, ws);
  v_proj_.backward_params_ws(g.dv, ws);
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

}  // namespace odlp::nn
