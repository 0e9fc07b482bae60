#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "nn/attention.h"
#include "nn/block.h"
#include "nn/embedding.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "util/rng.h"

namespace odlp::nn {
namespace {

using tensor::Tensor;

TEST(Linear, OutputShape) {
  util::Rng rng(1);
  Linear lin("l", 6, 4, rng);
  Tensor x(3, 6, 0.5f);
  Tensor y = lin.forward(x, false);
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), 4u);
}

TEST(Linear, ZeroInputYieldsBias) {
  util::Rng rng(2);
  Linear lin("l", 3, 2, rng);
  ParameterList params;
  lin.collect_parameters(params);
  // Set the bias to known values.
  params[1]->value.at(0, 0) = 1.5f;
  params[1]->value.at(0, 1) = -2.0f;
  Tensor y = lin.forward(Tensor::zeros(2, 3), false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(1, 1), -2.0f);
}

TEST(Linear, NoBiasVariant) {
  util::Rng rng(3);
  Linear lin("l", 3, 2, rng, /*bias=*/false);
  Tensor y = lin.forward(Tensor::zeros(1, 3), false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  ParameterList params;
  lin.collect_parameters(params);
  EXPECT_EQ(params.size(), 1u);  // weight only
}

TEST(Linear, LoraAttachFreezesBase) {
  util::Rng rng(4);
  Linear lin("l", 4, 4, rng);
  lin.attach_lora(LoraConfig{}, rng);
  ParameterList params;
  lin.collect_parameters(params);
  ASSERT_EQ(params.size(), 4u);  // W, b, A, B
  EXPECT_FALSE(params[0]->trainable);
  EXPECT_FALSE(params[1]->trainable);
  EXPECT_TRUE(params[2]->trainable);
  EXPECT_TRUE(params[3]->trainable);
}

TEST(Linear, FreshLoraDoesNotChangeOutput) {
  // B starts at zero, so the adapter delta is exactly zero at attach time.
  util::Rng rng(5);
  Linear lin("l", 4, 3, rng);
  Tensor x(2, 4, 0.7f);
  Tensor before = lin.forward(x, false);
  lin.attach_lora(LoraConfig{}, rng);
  Tensor after = lin.forward(x, false);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(after.data()[i], before.data()[i]);
  }
}

TEST(Linear, MergeLoraPreservesFunction) {
  util::Rng rng(6);
  Linear lin("l", 4, 3, rng);
  LoraConfig lc;
  lc.dropout = 0.0f;
  lin.attach_lora(lc, rng);
  // Perturb A and B so the adapter is non-trivial.
  ParameterList params;
  lin.collect_parameters(params);
  for (Parameter* p : params) {
    if (p->name.find("lora") != std::string::npos) {
      for (std::size_t i = 0; i < p->value.size(); ++i) {
        p->value.data()[i] = static_cast<float>(rng.normal(0.0, 0.2));
      }
    }
  }
  Tensor x(2, 4, 0.3f);
  Tensor with_adapter = lin.forward(x, false);
  lin.merge_lora();
  EXPECT_FALSE(lin.has_lora());
  Tensor merged = lin.forward(x, false);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_NEAR(merged.data()[i], with_adapter.data()[i], 1e-5f);
  }
}

TEST(Linear, DetachRestoresTrainability) {
  util::Rng rng(7);
  Linear lin("l", 3, 3, rng);
  lin.attach_lora(LoraConfig{}, rng);
  lin.detach_lora();
  ParameterList params;
  lin.collect_parameters(params);
  EXPECT_EQ(params.size(), 2u);
  EXPECT_TRUE(params[0]->trainable);
}

TEST(Linear, FrozenWeightAccumulatesNoGradient) {
  util::Rng rng(8);
  Linear lin("l", 3, 2, rng);
  LoraConfig lc;
  lc.dropout = 0.0f;
  lin.attach_lora(lc, rng);
  Tensor x(2, 3, 1.0f);
  lin.forward(x, /*training=*/true);
  lin.backward(Tensor::ones(2, 2));
  EXPECT_FLOAT_EQ(lin.weight().grad.l2_norm(), 0.0f);
}

// --- frozen-weight panels (DESIGN.md §8) ---

bool same_bytes(const Tensor& x, const Tensor& y) {
  return x.same_shape(y) &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

void fill_normal(Tensor& t, util::Rng& rng, double stddev) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
}

// One training forward + backward of `lin` on `x` (dropout drawn from a
// fixed stream) from fixed upstream gradients: y, dX and the adapter
// gradients, in that order.
std::vector<Tensor> lora_step(Linear& lin, const Tensor& x) {
  lin.dropout_rng() = util::Rng(0xD0);
  ParameterList params;
  lin.collect_parameters(params);
  for (Parameter* p : params) p->zero_grad();
  std::vector<Tensor> out;
  out.push_back(lin.forward(x, /*training=*/true));
  Tensor dout(x.rows(), lin.out_features());
  util::Rng grad_rng(0xD1);
  fill_normal(dout, grad_rng, 1.0);
  out.push_back(lin.backward(dout));
  out.push_back(lin.lora_a()->grad);
  out.push_back(lin.lora_b()->grad);
  return out;
}

void expect_same_steps(const std::vector<Tensor>& want,
                       const std::vector<Tensor>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(same_bytes(want[i], got[i])) << "output " << i;
  }
}

// A frozen W's forward and dX read its panels; with the panels dropped the
// same Linear packs W per call. Both must give the same bytes — the tiled
// path (T >= 4) and the small path (T < 4), with the LoRA delta and
// dropout on top.
TEST(LinearPanels, FrozenForwardBackwardMatchPerCallPacking) {
  for (const std::size_t T : {1u, 3u, 4u, 12u, 37u}) {
    SCOPED_TRACE(testing::Message() << "T=" << T);
    util::Rng rng(0xA0);
    Linear lin("l", 48, 96, rng);
    lin.attach_lora(LoraConfig{}, rng);
    fill_normal(lin.mutable_lora_b().value, rng, 0.05);
    ASSERT_NE(lin.panels(), nullptr);
    Tensor x(T, 48);
    fill_normal(x, rng, 1.0);
    const std::vector<Tensor> with_panels = lora_step(lin, x);

    ParameterList params;
    lin.collect_parameters(params);
    params[0]->set_trainable(true);  // W only; its panels go with it
    lin.sync_panels();
    ASSERT_EQ(lin.panels(), nullptr);
    expect_same_steps(with_panels, lora_step(lin, x));
  }
}

// detach_lora makes W trainable, so its panels must go: an optimizer step
// on W is read by the next forward, and a later attach_lora packs the new
// values. Checked against a Linear built with those values.
TEST(LinearPanels, DetachDropsPanelsAndReattachPacksTheNewWeight) {
  util::Rng rng(0xA1);
  Linear lin("l", 48, 96, rng);
  lin.attach_lora(LoraConfig{}, rng);
  ASSERT_NE(lin.panels(), nullptr);
  lin.detach_lora();
  EXPECT_EQ(lin.panels(), nullptr);
  ParameterList params;
  lin.collect_parameters(params);
  fill_normal(params[0]->value, rng, 0.1);  // the step on W

  util::Rng other(0xA2);
  Linear fresh("l", 48, 96, other);
  ParameterList fresh_params;
  fresh.collect_parameters(fresh_params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    fresh_params[i]->value = params[i]->value;
  }
  Tensor x(12, 48);
  fill_normal(x, rng, 1.0);
  EXPECT_TRUE(same_bytes(fresh.forward(x, false), lin.forward(x, false)));

  util::Rng attach_a(0xA3), attach_b(0xA3);
  lin.attach_lora(LoraConfig{}, attach_a);
  fresh.attach_lora(LoraConfig{}, attach_b);
  util::Rng adapter_a(0xA4), adapter_b(0xA4);
  fill_normal(lin.mutable_lora_b().value, adapter_a, 0.05);
  fill_normal(fresh.mutable_lora_b().value, adapter_b, 0.05);
  ASSERT_NE(lin.panels(), nullptr);
  expect_same_steps(lora_step(fresh, x), lora_step(lin, x));
}

TEST(Embedding, GathersRows) {
  util::Rng rng(9);
  Embedding emb("e", 10, 4, rng);
  Tensor out = emb.forward({3, 3, 7});
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 4u);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out.at(0, j), out.at(1, j));  // same id -> same row
    EXPECT_FLOAT_EQ(out.at(0, j), emb.table().value.at(3, j));
  }
}

TEST(Embedding, BackwardScatterAccumulates) {
  util::Rng rng(10);
  Embedding emb("e", 5, 2, rng);
  emb.forward({1, 1, 2});
  Tensor dout = Tensor::from(3, 2, {1, 1, 2, 2, 5, 5});
  emb.backward(dout);
  EXPECT_FLOAT_EQ(emb.table().grad.at(1, 0), 3.0f);  // 1 + 2
  EXPECT_FLOAT_EQ(emb.table().grad.at(2, 0), 5.0f);
  EXPECT_FLOAT_EQ(emb.table().grad.at(0, 0), 0.0f);
}

TEST(Embedding, FrozenTableSkipsGradient) {
  util::Rng rng(11);
  Embedding emb("e", 5, 2, rng);
  emb.mutable_table().trainable = false;
  emb.forward({0});
  emb.backward(Tensor::ones(1, 2));
  EXPECT_FLOAT_EQ(emb.table().grad.l2_norm(), 0.0f);
}

TEST(LayerNormModule, GainAndBiasApplied) {
  LayerNorm ln("ln", 4);
  ParameterList params;
  ln.collect_parameters(params);
  params[0]->value.fill(2.0f);  // gain
  params[1]->value.fill(1.0f);  // bias
  Tensor x = Tensor::from(1, 4, {1, 2, 3, 4});
  Tensor y = ln.forward(x, /*training=*/false);
  // mean of y should equal bias (normalized rows have zero mean).
  double mean = 0;
  for (std::size_t j = 0; j < 4; ++j) mean += y.at(0, j);
  EXPECT_NEAR(mean / 4, 1.0, 1e-5);
}

// At kChunkedReduceMinElems elements and above, the gain and bias gradients
// sum fixed 32-row chunk partials in chunk order. A 32-row chunk alone is
// below the switch, so running the module chunk by chunk gives each partial
// (into zeroed gradients) and, accumulated into one gradient, the
// straight-loop sum that the chunked order must differ from on this data.
TEST(LayerNormModule, ChunkedGradientMatchesFixed32RowPartials) {
  constexpr std::size_t kRows = 300, kCols = 64;
  constexpr std::size_t kGrain = tensor::kChunkedReduceGrain;
  static_assert(kRows * kCols >= tensor::kChunkedReduceMinElems);
  static_assert(kGrain * kCols < tensor::kChunkedReduceMinElems);
  util::Rng rng(51);
  Tensor x(kRows, kCols), dout(kRows, kCols);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal());
    dout.data()[i] = static_cast<float>(rng.normal());
  }
  auto rows_of = [](const Tensor& t, std::size_t b, std::size_t e) {
    Tensor out = Tensor::uninitialized(e - b, t.cols());
    std::memcpy(out.data(), t.row(b), out.size() * sizeof(float));
    return out;
  };
  LayerNorm ln("ln", kCols);
  ParameterList params;  // gain, bias
  ln.collect_parameters(params);
  auto run = [&](std::size_t b, std::size_t e) {
    ln.forward(rows_of(x, b, e), /*training=*/true);
    ln.backward(rows_of(dout, b, e));
  };

  zero_grads(params);
  run(0, kRows);
  const Tensor site[2] = {params[0]->grad, params[1]->grad};

  Tensor chunked[2];
  for (std::size_t b = 0; b < kRows; b += kGrain) {
    zero_grads(params);
    run(b, std::min(kRows, b + kGrain));
    for (std::size_t p = 0; p < 2; ++p) {
      if (b == 0) {
        chunked[p] = params[p]->grad;
        continue;
      }
      for (std::size_t j = 0; j < kCols; ++j) {
        chunked[p].data()[j] += params[p]->grad.data()[j];
      }
    }
  }
  zero_grads(params);
  for (std::size_t b = 0; b < kRows; b += kGrain) {
    run(b, std::min(kRows, b + kGrain));
  }
  const std::size_t bytes = kCols * sizeof(float);
  for (std::size_t p = 0; p < 2; ++p) {
    SCOPED_TRACE(params[p]->name);
    EXPECT_EQ(std::memcmp(site[p].data(), chunked[p].data(), bytes), 0);
    EXPECT_NE(std::memcmp(params[p]->grad.data(), chunked[p].data(), bytes), 0);
  }
}

TEST(Attention, OutputShapeMatchesInput) {
  util::Rng rng(12);
  MultiHeadSelfAttention attn("a", 8, 2, rng);
  Tensor x(5, 8, 0.1f);
  Tensor y = attn.forward(x, false);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 8u);
}

TEST(Attention, CausalityFirstTokenUnaffectedByLater) {
  // The first row of the output must not change when later tokens change.
  util::Rng rng(13);
  MultiHeadSelfAttention attn("a", 8, 2, rng);
  util::Rng data_rng(14);
  Tensor x1(4, 8), x2(4, 8);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    x1.data()[i] = static_cast<float>(data_rng.normal());
    x2.data()[i] = x1.data()[i];
  }
  // Perturb only tokens 1..3 in x2.
  for (std::size_t t = 1; t < 4; ++t) {
    for (std::size_t j = 0; j < 8; ++j) x2.at(t, j) += 1.0f;
  }
  Tensor y1 = attn.forward(x1, false);
  Tensor y2 = attn.forward(x2, false);
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(y1.at(0, j), y2.at(0, j), 1e-5f);
  }
}

TEST(Attention, LoraAttachesToAllFourProjections) {
  util::Rng rng(15);
  MultiHeadSelfAttention attn("a", 8, 2, rng);
  ParameterList before;
  attn.collect_parameters(before);
  attn.attach_lora(LoraConfig{}, rng);
  ParameterList after;
  attn.collect_parameters(after);
  EXPECT_EQ(after.size(), before.size() + 8u);  // 4 projections x (A, B)
}

TEST(Block, ResidualPathPreservesShape) {
  util::Rng rng(16);
  TransformerBlock block("b", 8, 2, 16, rng);
  Tensor x(6, 8, 0.2f);
  Tensor y = block.forward(x, false);
  EXPECT_EQ(y.rows(), 6u);
  EXPECT_EQ(y.cols(), 8u);
}

TEST(ParamHelpers, CountsAndZeroGrads) {
  util::Rng rng(17);
  Linear lin("l", 4, 4, rng);
  ParameterList params;
  lin.collect_parameters(params);
  EXPECT_EQ(count_total(params), 4u * 4u + 4u);
  EXPECT_EQ(count_trainable(params), 20u);
  params[0]->grad.fill(3.0f);
  zero_grads(params);
  EXPECT_FLOAT_EQ(params[0]->grad.l2_norm(), 0.0f);
}

TEST(ParamHelpers, LoraShrinksTrainableCount) {
  util::Rng rng(18);
  Linear lin("l", 32, 32, rng);
  ParameterList dense;
  lin.collect_parameters(dense);
  const std::size_t full = count_trainable(dense);
  LoraConfig lc;
  lc.rank = 2;
  lin.attach_lora(lc, rng);
  ParameterList lora;
  lin.collect_parameters(lora);
  const std::size_t adapted = count_trainable(lora);
  EXPECT_EQ(adapted, 2u * 32u * 2u);
  EXPECT_LT(adapted, full);
}

TEST(ParamHelpers, ClipGradNorm) {
  util::Rng rng(19);
  Linear lin("l", 2, 2, rng);
  ParameterList params;
  lin.collect_parameters(params);
  params[0]->grad.fill(10.0f);
  params[1]->grad.fill(10.0f);
  const float before = clip_grad_norm(params, 1.0f);
  EXPECT_GT(before, 1.0f);
  double total = 0;
  for (Parameter* p : params) {
    total += static_cast<double>(p->grad.l2_norm()) * p->grad.l2_norm();
  }
  EXPECT_NEAR(std::sqrt(total), 1.0, 1e-4);
}

TEST(ParamHelpers, ClipBelowThresholdIsNoop) {
  util::Rng rng(20);
  Linear lin("l", 2, 2, rng);
  ParameterList params;
  lin.collect_parameters(params);
  params[0]->grad.fill(0.01f);
  clip_grad_norm(params, 1.0f);
  EXPECT_FLOAT_EQ(params[0]->grad.at(0, 0), 0.01f);
}

TEST(Init, XavierBoundsRespectFanInOut) {
  util::Rng rng(21);
  tensor::Tensor w(64, 64);
  init_xavier_uniform(w, rng);
  const float limit = std::sqrt(6.0f / 128.0f);
  EXPECT_LE(w.abs_max(), limit + 1e-6f);
  EXPECT_GT(w.abs_max(), limit * 0.5f);  // actually fills the range
}

}  // namespace
}  // namespace odlp::nn
