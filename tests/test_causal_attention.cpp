// Bit-for-bit contracts of the attention step on the causal triangle
// (DESIGN.md §8). Attention heads are column blocks of Q/K/V read in place,
// the six per-head products skip the masked triangle, and block 0 under
// LoRA skips the input gradient. None of this may move an output byte:
//  * the strided and causal products equal full products on copies, at
//    every host SIMD level;
//  * the attention forward, probs, dX and every LoRA gradient equal a
//    test-local copy of the copy-based full-product head loop it replaced;
//  * the backward reads no byte above the diagonal that it did not write,
//    so NaN there changes nothing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/attention.h"
#include "nn/linear.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace odlp {
namespace {

using tensor::Tensor;

Tensor random_tensor(std::size_t r, std::size_t c, util::Rng& rng) {
  Tensor t(r, c);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

// T×T with +0 above the diagonal: what the causal softmax and its backward
// write.
Tensor random_lower(std::size_t T, util::Rng& rng) {
  Tensor t = random_tensor(T, T, rng);
  for (std::size_t i = 0; i < T; ++i) {
    for (std::size_t j = i + 1; j < T; ++j) t.at(i, j) = 0.0f;
  }
  return t;
}

Tensor cols_copy(const Tensor& t, std::size_t c0, std::size_t w) {
  Tensor out(t.rows(), w);
  for (std::size_t i = 0; i < t.rows(); ++i) {
    std::memcpy(out.row(i), t.row(i) + c0, w * sizeof(float));
  }
  return out;
}

bool same_bytes(const Tensor& x, const Tensor& y) {
  return x.same_shape(y) &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

std::vector<tensor::SimdLevel> host_levels() {
  std::vector<tensor::SimdLevel> levels = {tensor::SimdLevel::kScalar};
  for (tensor::SimdLevel l : {tensor::SimdLevel::kSse2, tensor::SimdLevel::kAvx2,
                              tensor::SimdLevel::kVnni}) {
    if (static_cast<int>(l) <= static_cast<int>(tensor::detected_simd_level())) {
      levels.push_back(l);
    }
  }
  return levels;
}

struct ScopedLevel {
  tensor::SimdLevel saved = tensor::active_simd_level();
  ~ScopedLevel() { tensor::set_simd_level(saved); }
};

// `wide` holds `want` in columns [c0, c0+w) and `seed` everywhere else.
::testing::AssertionResult block_written(const Tensor& wide, const Tensor& seed,
                                         const Tensor& want, std::size_t c0) {
  const std::size_t w = want.cols();
  for (std::size_t i = 0; i < wide.rows(); ++i) {
    if (std::memcmp(wide.row(i) + c0, want.row(i), w * sizeof(float)) != 0) {
      return ::testing::AssertionFailure() << "block row " << i;
    }
    if (std::memcmp(wide.row(i), seed.row(i), c0 * sizeof(float)) != 0 ||
        std::memcmp(wide.row(i) + c0 + w, seed.row(i) + c0 + w,
                    (wide.cols() - c0 - w) * sizeof(float)) != 0) {
      return ::testing::AssertionFailure() << "outside the block, row " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

// Row i of `got` equals `want` on j <= i.
::testing::AssertionResult lower_equal(const Tensor& got, const Tensor& want) {
  for (std::size_t i = 0; i < want.rows(); ++i) {
    if (std::memcmp(got.row(i), want.row(i), (i + 1) * sizeof(float)) != 0) {
      return ::testing::AssertionFailure() << "row " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

// Head 1 of three: its columns are neither the first nor the last, so both
// sides of every row's block are checked untouched.
TEST(CausalProducts, StridedAndCausalMatchFullProductsBitForBit) {
  ScopedLevel guard;
  util::Rng rng(2718);
  constexpr std::size_t kHeads = 3;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (tensor::SimdLevel level : host_levels()) {
    tensor::set_simd_level(level);
    for (std::size_t dh : {8, 12, 16}) {
      const std::size_t c0 = dh;
      for (std::size_t T = 1; T <= 70; ++T) {
        SCOPED_TRACE(::testing::Message()
                     << tensor::simd_level_name(level) << " dh=" << dh
                     << " T=" << T);
        const Tensor q = random_tensor(T, kHeads * dh, rng);
        const Tensor k = random_tensor(T, kHeads * dh, rng);
        const Tensor lower = random_lower(T, rng);
        const Tensor square = random_tensor(T, T, rng);
        const Tensor seed_wide = random_tensor(T, kHeads * dh, rng);
        const Tensor seed_square = random_tensor(T, T, rng);
        const Tensor qh = cols_copy(q, c0, dh);
        const Tensor kh = cols_copy(k, c0, dh);
        const Tensor seed_block = cols_copy(seed_wide, c0, dh);
        for (bool acc : {false, true}) {
          // nt: scores = Qh·Khᵀ, full and on the triangle.
          for (tensor::Triangle tri :
               {tensor::Triangle::kFull, tensor::Triangle::kLower}) {
            Tensor want = acc ? seed_square : Tensor();
            tensor::matmul_nt_into(qh, kh, want, acc);
            Tensor got = acc ? seed_square : Tensor(T, T, nan);
            tensor::matmul_nt_into(tensor::col_block(q, c0, dh),
                                   tensor::col_block(k, c0, dh),
                                   tensor::view(got), acc, tri);
            if (tri == tensor::Triangle::kFull) {
              EXPECT_TRUE(same_bytes(got, want)) << "nt acc=" << acc;
            } else {
              EXPECT_TRUE(lower_equal(got, want)) << "nt causal acc=" << acc;
            }
          }
          // nn: probs·Vh into the head's columns; the causal product needs
          // the +0 upper triangle.
          for (tensor::Triangle tri :
               {tensor::Triangle::kFull, tensor::Triangle::kLower}) {
            const Tensor& a = tri == tensor::Triangle::kLower ? lower : square;
            Tensor want = acc ? seed_block : Tensor();
            tensor::matmul_into(a, kh, want, acc);
            Tensor got = seed_wide;
            tensor::matmul_into(tensor::view(a), tensor::col_block(k, c0, dh),
                                tensor::col_block(got, c0, dh), acc, tri);
            EXPECT_TRUE(block_written(got, seed_wide, want, c0))
                << "nn acc=" << acc << " causal=" << (a.data() == lower.data());
          }
          // tn: probsᵀ·dOh into the head's columns.
          for (tensor::Triangle tri :
               {tensor::Triangle::kFull, tensor::Triangle::kLower}) {
            const Tensor& a = tri == tensor::Triangle::kLower ? lower : square;
            Tensor want = acc ? seed_block : Tensor();
            tensor::matmul_tn_into(a, qh, want, acc);
            Tensor got = seed_wide;
            tensor::matmul_tn_into(tensor::view(a), tensor::col_block(q, c0, dh),
                                   tensor::col_block(got, c0, dh), acc, tri);
            EXPECT_TRUE(block_written(got, seed_wide, want, c0))
                << "tn acc=" << acc << " causal=" << (a.data() == lower.data());
          }
        }
      }
    }
  }
}

// Backward of a full-row softmax (dIn = p ⊙ (dOut − rowdot(dOut, p))), as
// attention ran it before the causal backward.
void full_softmax_backward(const Tensor& p, const Tensor& dout, Tensor& din) {
  din.resize_uninitialized(p.rows(), p.cols());
  for (std::size_t i = 0; i < p.rows(); ++i) {
    double dot = 0.0;
    for (std::size_t j = 0; j < p.cols(); ++j) {
      dot += static_cast<double>(dout.at(i, j)) * p.at(i, j);
    }
    for (std::size_t j = 0; j < p.cols(); ++j) {
      din.at(i, j) = p.at(i, j) * (dout.at(i, j) - static_cast<float>(dot));
    }
  }
}

void write_cols(Tensor& dst, const Tensor& block, std::size_t c0) {
  for (std::size_t i = 0; i < dst.rows(); ++i) {
    std::memcpy(dst.row(i) + c0, block.row(i), block.cols() * sizeof(float));
  }
}

// The attention module as it ran before heads became strided views: each
// head's Q/K/V columns copied out, full T×T products, a full-row softmax
// backward, and the head outputs copied back. Built from the same rng
// stream as nn::MultiHeadSelfAttention, so its Linears (weights, adapters,
// dropout streams) equal the module's.
struct CopyBasedAttention {
  CopyBasedAttention(std::size_t dim, std::size_t heads, util::Rng& rng,
                     const nn::LoraConfig& lc)
      : heads(heads),
        dh(dim / heads),
        q("attn.q_proj", dim, dim, rng),
        k("attn.k_proj", dim, dim, rng),
        v("attn.v_proj", dim, dim, rng),
        o("attn.o_proj", dim, dim, rng) {
    for (nn::Linear* l : {&q, &k, &v, &o}) l->attach_lora(lc, rng);
  }

  Tensor forward(const Tensor& x) {
    const std::size_t T = x.rows();
    cq = q.forward(x, true);
    ck = k.forward(x, true);
    cv = v.forward(x, true);
    probs.assign(heads, Tensor());
    Tensor concat(T, heads * dh);
    Tensor scores, oh;
    const float inv = 1.0f / std::sqrt(static_cast<float>(dh));
    for (std::size_t h = 0; h < heads; ++h) {
      const std::size_t c0 = h * dh;
      tensor::matmul_nt_into(cols_copy(cq, c0, dh), cols_copy(ck, c0, dh), scores);
      tensor::softmax_causal_rows_into(scores, inv, probs[h]);
      tensor::matmul_into(probs[h], cols_copy(cv, c0, dh), oh);
      write_cols(concat, oh, c0);
    }
    return o.forward(concat, true);
  }

  Tensor backward(const Tensor& dout) {
    const std::size_t T = dout.rows();
    const Tensor dconcat = o.backward(dout);
    Tensor dq(T, heads * dh), dk(T, heads * dh), dv(T, heads * dh);
    Tensor dprobs, dscores, dqh, dkh, dvh;
    const float inv = 1.0f / std::sqrt(static_cast<float>(dh));
    for (std::size_t h = 0; h < heads; ++h) {
      const std::size_t c0 = h * dh;
      const Tensor qh = cols_copy(cq, c0, dh), kh = cols_copy(ck, c0, dh);
      const Tensor vh = cols_copy(cv, c0, dh), doh = cols_copy(dconcat, c0, dh);
      tensor::matmul_nt_into(doh, vh, dprobs);
      tensor::matmul_tn_into(probs[h], doh, dvh);
      full_softmax_backward(probs[h], dprobs, dscores);
      dscores *= inv;
      tensor::matmul_into(dscores, kh, dqh);
      tensor::matmul_tn_into(dscores, qh, dkh);
      write_cols(dq, dqh, c0);
      write_cols(dk, dkh, c0);
      write_cols(dv, dvh, c0);
    }
    Tensor dx = q.backward(dq);
    dx += k.backward(dk);
    dx += v.backward(dv);
    return dx;
  }

  std::size_t heads, dh;
  nn::Linear q, k, v, o;
  Tensor cq, ck, cv;
  std::vector<Tensor> probs;
};

// Every LoRA gradient of `params` equals `ref`'s, byte for byte.
::testing::AssertionResult lora_grads_equal(const nn::ParameterList& params,
                                            const nn::ParameterList& ref) {
  if (params.size() != ref.size()) return ::testing::AssertionFailure() << "count";
  std::size_t compared = 0;
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!params[i]->trainable) continue;
    ++compared;
    if (!same_bytes(params[i]->grad, ref[i]->grad)) {
      return ::testing::AssertionFailure() << params[i]->name;
    }
  }
  if (compared != 8) return ::testing::AssertionFailure() << compared << " trainable";
  return ::testing::AssertionSuccess();
}

constexpr std::size_t kLens[] = {1, 2, 3, 4, 5, 7, 8, 9, 17, 32, 33, 64};
constexpr std::size_t kDim = 48;  // the paper geometry: 4 heads of 12
constexpr std::size_t kHeads = 4;

TEST(CausalAttention, MatchesCopyBasedFullProductHeadLoop) {
  nn::LoraConfig lc;  // r = 8, alpha = 16, dropout 0.05 (on: training)
  for (std::size_t T : kLens) {
    SCOPED_TRACE(::testing::Message() << "T=" << T);
    util::Rng data(900 + T);
    const Tensor x = random_tensor(T, kDim, data);
    const Tensor dout = random_tensor(T, kDim, data);
    util::Rng rng_ref(T), rng_attn(T), rng_params(T);
    CopyBasedAttention ref(kDim, kHeads, rng_ref, lc);
    nn::MultiHeadSelfAttention attn("attn", kDim, kHeads, rng_attn);
    attn.attach_lora(lc, rng_attn);
    // The parameter-only backward (block 0 under LoRA) must leave the same
    // LoRA gradients.
    nn::MultiHeadSelfAttention params_only("attn", kDim, kHeads, rng_params);
    params_only.attach_lora(lc, rng_params);

    const Tensor want_y = ref.forward(x);
    const Tensor got_y = attn.forward(x, true);
    EXPECT_TRUE(same_bytes(got_y, want_y));
    for (std::size_t h = 0; h < kHeads; ++h) {
      EXPECT_TRUE(same_bytes(attn.probs(h), ref.probs[h])) << "head " << h;
    }
    const Tensor want_dx = ref.backward(dout);
    EXPECT_TRUE(same_bytes(attn.backward(dout), want_dx));

    nn::ParameterList got_params, want_params, params_only_list;
    attn.collect_parameters(got_params);
    for (nn::Linear* l : {&ref.q, &ref.k, &ref.v, &ref.o}) {
      l->collect_parameters(want_params);
    }
    EXPECT_TRUE(lora_grads_equal(got_params, want_params));

    params_only.forward(x, true);
    params_only.backward_params_ws(dout, tensor::Workspace::enter(nullptr));
    params_only.collect_parameters(params_only_list);
    EXPECT_TRUE(lora_grads_equal(params_only_list, want_params));
  }
}

// The causal products of the backward read the T×T workspace slots above
// the diagonal (a row quad spans rows whose triangles end at different
// columns), so the causal softmax backward writes +0 there. Poison every
// workspace slot with NaN before the backward: the results must not move.
TEST(CausalAttention, BackwardIgnoresGarbageAboveTheDiagonal) {
  nn::LoraConfig lc;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t T : kLens) {
    SCOPED_TRACE(::testing::Message() << "T=" << T);
    util::Rng data(700 + T);
    const Tensor x = random_tensor(T, kDim, data);
    const Tensor dout = random_tensor(T, kDim, data);
    util::Rng rng_clean(T), rng_poisoned(T);
    nn::MultiHeadSelfAttention clean("attn", kDim, kHeads, rng_clean);
    nn::MultiHeadSelfAttention poisoned("attn", kDim, kHeads, rng_poisoned);
    clean.attach_lora(lc, rng_clean);
    poisoned.attach_lora(lc, rng_poisoned);

    tensor::Workspace ws_clean, ws_poisoned;
    clean.forward_ws(x, true, ws_clean);
    poisoned.forward_ws(x, true, ws_poisoned);
    ws_clean.reset();
    const Tensor want_dx = clean.backward_ws(dout, ws_clean);

    ws_poisoned.reset();
    const std::size_t floats = T * std::max(T, kDim);
    for (std::size_t s = 0; s < 64; ++s) ws_poisoned.acquire(1, floats).fill(nan);
    ws_poisoned.reset();
    const Tensor got_dx = poisoned.backward_ws(dout, ws_poisoned);
    EXPECT_TRUE(same_bytes(got_dx, want_dx));

    nn::ParameterList got, want;
    poisoned.collect_parameters(got);
    clean.collect_parameters(want);
    EXPECT_TRUE(lora_grads_equal(got, want));
  }
}

}  // namespace
}  // namespace odlp
