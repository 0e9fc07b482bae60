// Finite-difference validation of every hand-written backward pass, from
// individual kernels up to the full MiniLlm language-model loss.
#include <gtest/gtest.h>

#include "llm/minillm.h"
#include "nn/attention.h"
#include "nn/block.h"
#include "nn/embedding.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace odlp {
namespace {

using tensor::Tensor;

Tensor random_tensor(std::size_t r, std::size_t c, util::Rng& rng, double s = 1.0) {
  Tensor t(r, c);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, s));
  }
  return t;
}

// Scalar "loss": weighted sum of an output tensor with fixed coefficients,
// making dLoss/dOutput == the coefficients.
Tensor coeffs_for(std::size_t r, std::size_t c, util::Rng& rng) {
  return random_tensor(r, c, rng, 0.7);
}

double weighted_sum(const Tensor& out, const Tensor& coeffs) {
  double acc = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    acc += static_cast<double>(out.data()[i]) * coeffs.data()[i];
  }
  return acc;
}

constexpr float kTol = 2e-2f;  // float32 + fd epsilon noise

TEST(GradCheck, MatmulLeftAndRight) {
  util::Rng rng(1);
  Tensor a = random_tensor(3, 4, rng), b = random_tensor(4, 5, rng);
  Tensor coeffs = coeffs_for(3, 5, rng);
  Tensor da(3, 4, 0.0f), db(4, 5, 0.0f);
  tensor::matmul_backward(a, b, coeffs, da, db);

  auto loss_fn = [&] { return weighted_sum(tensor::matmul(a, b), coeffs); };
  auto ra = tensor::check_gradient(a, da, loss_fn, 4e-3f);
  EXPECT_LT(ra.max_rel_error, kTol);
  auto rb = tensor::check_gradient(b, db, loss_fn, 4e-3f);
  EXPECT_LT(rb.max_rel_error, kTol);
}

// The causal softmax and its backward with the scale folded in: entries
// above the diagonal never reach the output, so their gradient is 0.
TEST(GradCheck, SoftmaxCausalRows) {
  util::Rng rng(2);
  constexpr float kScale = 0.6f;
  Tensor x = random_tensor(6, 6, rng);
  Tensor coeffs = coeffs_for(6, 6, rng);
  Tensor p, dx;
  tensor::softmax_causal_rows_into(x, kScale, p);
  tensor::softmax_causal_rows_backward_into(p, coeffs, kScale, dx);
  auto loss_fn = [&] {
    Tensor out;
    tensor::softmax_causal_rows_into(x, kScale, out);
    return weighted_sum(out, coeffs);
  };
  auto r = tensor::check_gradient(x, dx, loss_fn, 4e-3f, 36);
  EXPECT_EQ(r.checked, 36u);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, Gelu) {
  util::Rng rng(3);
  Tensor x = random_tensor(2, 8, rng);
  Tensor coeffs = coeffs_for(2, 8, rng);
  Tensor y, tanh_u, dx;
  tensor::gelu_into(x, y, tanh_u);
  tensor::gelu_backward_into(x, tanh_u, coeffs, dx);
  auto loss_fn = [&] { return weighted_sum(tensor::gelu(x), coeffs); };
  auto r = tensor::check_gradient(x, dx, loss_fn, 4e-3f, 16);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, LayerNormRows) {
  util::Rng rng(4);
  Tensor x = random_tensor(2, 8, rng);
  Tensor coeffs = coeffs_for(2, 8, rng);
  tensor::LayerNormCache cache;
  tensor::layernorm_rows(x, 1e-5f, &cache);
  Tensor dx = tensor::layernorm_rows_backward(coeffs, cache);
  auto loss_fn = [&] {
    return weighted_sum(tensor::layernorm_rows(x, 1e-5f, nullptr), coeffs);
  };
  auto r = tensor::check_gradient(x, dx, loss_fn, 4e-3f, 16);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, LinearWeightBiasAndInput) {
  util::Rng rng(5);
  nn::Linear lin("lin", 4, 3, rng);
  Tensor x = random_tensor(2, 4, rng);
  Tensor coeffs = coeffs_for(2, 3, rng);

  nn::ParameterList params;
  lin.collect_parameters(params);
  nn::zero_grads(params);
  lin.forward(x, /*training=*/true);
  lin.backward(coeffs);

  auto loss_fn = [&] { return weighted_sum(lin.forward(x, false), coeffs); };
  for (nn::Parameter* p : params) {
    auto r = tensor::check_gradient(p->value, p->grad, loss_fn, 4e-3f, 12);
    EXPECT_LT(r.max_rel_error, kTol) << p->name;
  }
}

TEST(GradCheck, LinearInputGradient) {
  util::Rng rng(6);
  nn::Linear lin("lin", 4, 3, rng);
  Tensor x = random_tensor(2, 4, rng);
  Tensor coeffs = coeffs_for(2, 3, rng);
  lin.forward(x, /*training=*/true);
  Tensor dx = lin.backward(coeffs);
  auto loss_fn = [&] { return weighted_sum(lin.forward(x, false), coeffs); };
  auto r = tensor::check_gradient(x, dx, loss_fn, 4e-3f, 12);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, LoraAdapters) {
  util::Rng rng(7);
  nn::Linear lin("lin", 5, 4, rng);
  nn::LoraConfig lc;
  lc.rank = 2;
  lc.dropout = 0.0f;  // disable dropout for exact finite differences
  lin.attach_lora(lc, rng);
  // Make B nonzero so its gradient path is exercised nontrivially.
  nn::ParameterList params;
  lin.collect_parameters(params);
  for (nn::Parameter* p : params) {
    if (p->name.find("lora_b") != std::string::npos) {
      for (std::size_t i = 0; i < p->value.size(); ++i) {
        p->value.data()[i] = static_cast<float>(rng.normal(0.0, 0.1));
      }
    }
  }
  Tensor x = random_tensor(3, 5, rng);
  Tensor coeffs = coeffs_for(3, 4, rng);
  nn::zero_grads(params);
  lin.forward(x, true);
  lin.backward(coeffs);
  auto loss_fn = [&] { return weighted_sum(lin.forward(x, true), coeffs); };
  for (nn::Parameter* p : params) {
    if (!p->trainable) continue;  // frozen base W/b accumulate no gradient
    auto r = tensor::check_gradient(p->value, p->grad, loss_fn, 4e-3f, 12);
    EXPECT_LT(r.max_rel_error, kTol) << p->name;
  }
}

TEST(GradCheck, AttentionAllParameters) {
  util::Rng rng(8);
  nn::MultiHeadSelfAttention attn("attn", 8, 2, rng);
  Tensor x = random_tensor(4, 8, rng);
  Tensor coeffs = coeffs_for(4, 8, rng);
  nn::ParameterList params;
  attn.collect_parameters(params);
  nn::zero_grads(params);
  attn.forward(x, /*training=*/true);
  attn.backward(coeffs);
  auto loss_fn = [&] { return weighted_sum(attn.forward(x, false), coeffs); };
  for (nn::Parameter* p : params) {
    auto r = tensor::check_gradient(p->value, p->grad, loss_fn, 4e-3f, 8);
    EXPECT_LT(r.max_rel_error, kTol) << p->name;
  }
}

TEST(GradCheck, AttentionInputGradient) {
  util::Rng rng(9);
  nn::MultiHeadSelfAttention attn("attn", 8, 2, rng);
  Tensor x = random_tensor(3, 8, rng);
  Tensor coeffs = coeffs_for(3, 8, rng);
  attn.forward(x, /*training=*/true);
  Tensor dx = attn.backward(coeffs);
  auto loss_fn = [&] { return weighted_sum(attn.forward(x, false), coeffs); };
  auto r = tensor::check_gradient(x, dx, loss_fn, 4e-3f, 16);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, TransformerBlock) {
  util::Rng rng(10);
  nn::TransformerBlock block("blk", 8, 2, 16, rng);
  Tensor x = random_tensor(3, 8, rng);
  Tensor coeffs = coeffs_for(3, 8, rng);
  nn::ParameterList params;
  block.collect_parameters(params);
  nn::zero_grads(params);
  block.forward(x, /*training=*/true);
  Tensor dx = block.backward(coeffs);
  auto loss_fn = [&] { return weighted_sum(block.forward(x, false), coeffs); };
  // Probe a subset of parameters (block has many); input gradient too.
  int checked = 0;
  for (nn::Parameter* p : params) {
    auto r = tensor::check_gradient(p->value, p->grad, loss_fn, 4e-3f, 4);
    EXPECT_LT(r.max_rel_error, kTol) << p->name;
    if (++checked >= 6) break;
  }
  auto rx = tensor::check_gradient(x, dx, loss_fn, 4e-3f, 8);
  EXPECT_LT(rx.max_rel_error, kTol);
}

TEST(GradCheck, CrossEntropyLogitsGradient) {
  util::Rng rng(11);
  Tensor logits = random_tensor(3, 5, rng);
  std::vector<int> targets = {2, -1, 4};  // middle position masked
  auto ce = nn::cross_entropy(logits, targets);
  auto loss_fn = [&] { return nn::cross_entropy(logits, targets).loss; };
  auto r = tensor::check_gradient(logits, ce.dlogits, loss_fn, 4e-3f, 15);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, FullModelLanguageModelLoss) {
  llm::ModelConfig mc;
  mc.vocab_size = 12;
  mc.dim = 8;
  mc.heads = 2;
  mc.layers = 1;
  mc.ff_hidden = 16;
  mc.max_seq_len = 8;
  llm::MiniLlm model(mc, 99);
  const std::vector<int> ids = {2, 5, 7, 6, 3};
  const std::vector<int> targets = {5, 7, 6, 3, -1};

  nn::ParameterList params = model.parameters();
  nn::zero_grads(params);
  Tensor logits = model.forward(ids, /*training=*/true);
  auto ce = nn::cross_entropy(logits, targets);
  model.backward(ce.dlogits);

  auto loss_fn = [&] {
    return nn::cross_entropy(model.forward(ids, false), targets).loss;
  };
  // Spot-check a few parameter tensors end to end.
  int checked = 0;
  for (nn::Parameter* p : params) {
    auto r = tensor::check_gradient(p->value, p->grad, loss_fn, 1e-2f, 3);
    EXPECT_LT(r.max_rel_error, 6e-2f) << p->name;
    if (++checked >= 8) break;
  }
}

}  // namespace
}  // namespace odlp
