// RMSNorm forward/backward and the Llama-style model variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "llm/decode_session.h"
#include "llm/minillm.h"
#include "llm/trainer.h"
#include "nn/rmsnorm.h"
#include "tensor/ops.h"
#include "tensor/gradcheck.h"
#include "util/rng.h"

namespace odlp::nn {
namespace {

using tensor::Tensor;

TEST(RmsNorm, UnitGainNormalizesRms) {
  RmsNorm norm("n", 4);
  Tensor x = Tensor::from(1, 4, {2, -2, 2, -2});
  Tensor y = norm.forward(x, /*training=*/false);
  // rms(x) = 2 -> y = x / 2.
  EXPECT_NEAR(y.at(0, 0), 1.0f, 1e-4f);
  EXPECT_NEAR(y.at(0, 1), -1.0f, 1e-4f);
}

TEST(RmsNorm, NoMeanSubtractionUnlikeLayerNorm) {
  // A constant positive row stays positive under RMSNorm (LayerNorm would
  // map it to zero).
  RmsNorm norm("n", 4);
  Tensor x(1, 4, 3.0f);
  Tensor y = norm.forward(x, /*training=*/false);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_GT(y.at(0, j), 0.9f);
}

TEST(RmsNorm, GainScalesOutput) {
  RmsNorm norm("n", 2);
  ParameterList params;
  norm.collect_parameters(params);
  ASSERT_EQ(params.size(), 1u);  // gain only, no bias
  params[0]->value.fill(3.0f);
  Tensor x = Tensor::from(1, 2, {1, 1});
  Tensor y = norm.forward(x, /*training=*/false);
  EXPECT_NEAR(y.at(0, 0), 3.0f, 1e-4f);
}

TEST(RmsNorm, GradCheckInputAndGain) {
  util::Rng rng(7);
  RmsNorm norm("n", 6);
  Tensor x(3, 6);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal());
  }
  Tensor coeffs(3, 6);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    coeffs.data()[i] = static_cast<float>(rng.normal(0.0, 0.7));
  }
  auto weighted = [&](const Tensor& out) {
    double acc = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      acc += static_cast<double>(out.data()[i]) * coeffs.data()[i];
    }
    return acc;
  };

  ParameterList params;
  norm.collect_parameters(params);
  zero_grads(params);
  norm.forward(x, /*training=*/true);
  Tensor dx = norm.backward(coeffs);

  auto loss_fn = [&] { return weighted(norm.forward(x, /*training=*/false)); };
  auto rx = tensor::check_gradient(x, dx, loss_fn, 4e-3f, 18);
  EXPECT_LT(rx.max_rel_error, 2e-2f);
  auto rg = tensor::check_gradient(params[0]->value, params[0]->grad, loss_fn,
                                   4e-3f, 6);
  EXPECT_LT(rg.max_rel_error, 2e-2f);
}

TEST(RmsNorm, FrozenGainAccumulatesNoGradient) {
  RmsNorm norm("n", 3);
  ParameterList params;
  norm.collect_parameters(params);
  params[0]->trainable = false;
  norm.forward(Tensor::from(1, 3, {1, 2, 3}), /*training=*/true);
  norm.backward(Tensor::ones(1, 3));
  EXPECT_FLOAT_EQ(params[0]->grad.l2_norm(), 0.0f);
}

// At kChunkedReduceMinElems elements and above, the gain gradient sums
// fixed 32-row chunk partials in chunk order. A 32-row chunk alone is below
// the switch, so running the module chunk by chunk gives each partial (into
// a zeroed gradient) and, accumulated into one gradient, the straight-loop
// sum that the chunked order must differ from on this data.
TEST(RmsNorm, ChunkedGainGradientMatchesFixed32RowPartials) {
  constexpr std::size_t kRows = 300, kCols = 64;
  constexpr std::size_t kGrain = tensor::kChunkedReduceGrain;
  static_assert(kRows * kCols >= tensor::kChunkedReduceMinElems);
  static_assert(kGrain * kCols < tensor::kChunkedReduceMinElems);
  util::Rng rng(53);
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
  RmsNorm norm("n", kCols);
  ParameterList params;
  norm.collect_parameters(params);
  Tensor& grad = params[0]->grad;
  auto run = [&](std::size_t b, std::size_t e) {
    norm.forward(rows_of(x, b, e), /*training=*/true);
    norm.backward(rows_of(dout, b, e));
  };

  zero_grads(params);
  run(0, kRows);
  const Tensor site = grad;

  Tensor chunked;
  for (std::size_t b = 0; b < kRows; b += kGrain) {
    zero_grads(params);
    run(b, std::min(kRows, b + kGrain));
    if (b == 0) {
      chunked = grad;
    } else {
      for (std::size_t j = 0; j < kCols; ++j) chunked.data()[j] += grad.data()[j];
    }
  }
  zero_grads(params);
  for (std::size_t b = 0; b < kRows; b += kGrain) {
    run(b, std::min(kRows, b + kGrain));
  }
  const std::size_t bytes = kCols * sizeof(float);
  EXPECT_EQ(std::memcmp(site.data(), chunked.data(), bytes), 0);
  EXPECT_NE(std::memcmp(grad.data(), chunked.data(), bytes), 0);
}

TEST(RmsNormModel, LlamaStyleModelTrainsAndDecodes) {
  llm::ModelConfig mc;
  mc.vocab_size = 16;
  mc.dim = 8;
  mc.heads = 2;
  mc.layers = 2;
  mc.ff_hidden = 16;
  mc.max_seq_len = 12;
  mc.use_rmsnorm = true;
  llm::MiniLlm model(mc, 21);

  // RMSNorm has one gain per norm (no bias): parameter count drops by one
  // dim-vector per norm vs. the LayerNorm build.
  llm::ModelConfig mc_ln = mc;
  mc_ln.use_rmsnorm = false;
  llm::MiniLlm baseline(mc_ln, 21);
  const std::size_t norms = 2 * mc.layers + 1;  // 2 per block + final
  EXPECT_EQ(model.num_parameters(), baseline.num_parameters() - norms * mc.dim);

  // It trains.
  llm::TrainConfig tc;
  tc.epochs = 20;
  tc.batch_size = 1;
  tc.learning_rate = 1e-2f;
  llm::Trainer trainer(model, tc, util::Rng(22));
  text::Tokenizer::EncodedDialogue ex;
  ex.input = {2, 5, 7, 3};
  ex.targets = {5, 7, 3, -1};
  auto stats = trainer.fine_tune({ex});
  EXPECT_LT(stats.final_epoch_loss, stats.first_epoch_loss);

  // And the KV-cached decode path matches full recompute under RMSNorm too.
  llm::DecodeSession session(model);
  tensor::Tensor inc;
  for (int t : {2, 5, 7}) inc = session.step(t);
  const tensor::Tensor full = model.forward({2, 5, 7}, false);
  for (std::size_t j = 0; j < inc.cols(); ++j) {
    EXPECT_NEAR(inc.at(0, j), full.at(2, j), 2e-3f);
  }
}

}  // namespace
}  // namespace odlp::nn
