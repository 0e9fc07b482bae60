#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "nn/loss.h"
#include "util/rng.h"

namespace odlp::nn {
namespace {

using tensor::Tensor;

TEST(CrossEntropy, UniformLogitsGiveLogV) {
  Tensor logits(2, 4, 0.0f);
  auto r = cross_entropy(logits, {1, 3});
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-6);
  EXPECT_EQ(r.count, 2u);
}

TEST(CrossEntropy, ConfidentCorrectPredictionLowLoss) {
  Tensor logits(1, 3, 0.0f);
  logits.at(0, 2) = 20.0f;
  auto r = cross_entropy(logits, {2});
  EXPECT_LT(r.loss, 1e-6);
}

TEST(CrossEntropy, ConfidentWrongPredictionHighLoss) {
  Tensor logits(1, 3, 0.0f);
  logits.at(0, 0) = 20.0f;
  auto r = cross_entropy(logits, {2});
  EXPECT_GT(r.loss, 10.0);
}

TEST(CrossEntropy, IgnoreIndexMasksPositions) {
  Tensor logits(3, 4, 0.0f);
  auto r = cross_entropy(logits, {-1, 2, -1});
  EXPECT_EQ(r.count, 1u);
  // Masked rows must have zero gradient.
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(r.dlogits.at(0, j), 0.0f);
    EXPECT_FLOAT_EQ(r.dlogits.at(2, j), 0.0f);
  }
}

TEST(CrossEntropy, AllMaskedReturnsZero) {
  Tensor logits(2, 3, 0.0f);
  auto r = cross_entropy(logits, {-1, -1});
  EXPECT_EQ(r.count, 0u);
  EXPECT_DOUBLE_EQ(r.loss, 0.0);
  EXPECT_FLOAT_EQ(r.dlogits.l2_norm(), 0.0f);
}

TEST(CrossEntropy, GradientRowsSumToZero) {
  Tensor logits = Tensor::from(2, 3, {1, 2, 3, -1, 0, 1});
  auto r = cross_entropy(logits, {0, 2});
  for (std::size_t i = 0; i < 2; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < 3; ++j) s += r.dlogits.at(i, j);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(CrossEntropy, GradientSignPattern) {
  // Gradient is negative at the target (push up), positive elsewhere.
  Tensor logits(1, 3, 0.0f);
  auto r = cross_entropy(logits, {1});
  EXPECT_LT(r.dlogits.at(0, 1), 0.0f);
  EXPECT_GT(r.dlogits.at(0, 0), 0.0f);
  EXPECT_GT(r.dlogits.at(0, 2), 0.0f);
}

TEST(CrossEntropy, MeanOverSupervisedPositionsOnly) {
  Tensor logits(4, 2, 0.0f);
  auto half = cross_entropy(logits, {0, -1, 0, -1});
  auto full = cross_entropy(logits, {0, 0, 0, 0});
  EXPECT_NEAR(half.loss, full.loss, 1e-9);  // same per-position NLL
  EXPECT_EQ(half.count, 2u);
  EXPECT_EQ(full.count, 4u);
}

TEST(Perplexity, ExponentialOfLoss) {
  EXPECT_NEAR(perplexity(0.0), 1.0, 1e-9);
  EXPECT_NEAR(perplexity(std::log(50.0)), 50.0, 1e-6);
}

// Logits for only rows [row0, row0 + n) give the loss and dlogits rows of
// the full call. Each span below is under kChunkedReduceMinElems elements
// while the full 64×600 sequence is over it, and crosses a 32-row chunk
// boundary, so the loss must keep the full call's chunked summation order.
// Per-row losses are floats, so a double sum is exact in any order unless
// some terms sit ~2^-29 below the total: half the rows are near-certain
// hits (loss ~2e-7) and half near-certain misses (loss ~26), which makes
// the order show in the last bit.
TEST(CrossEntropy, RowSpanMatchesFullSequenceBitForBit) {
  constexpr std::size_t T = 64, V = 600;
  util::Rng rng(41);
  const std::pair<std::size_t, std::size_t> spans[] = {
      {20, 45}, {27, 53}, {9, 35}, {30, 34}};
  for (const auto& [b, e] : spans) {
    Tensor full = Tensor::uninitialized(T, V);
    std::vector<int> targets(T, -1);
    for (std::size_t t = 0; t < T; ++t) {
      const std::size_t y = rng.uniform_index(V);
      for (std::size_t j = 0; j < V; ++j) {
        full.at(t, j) = static_cast<float>(rng.normal(0.0, 0.3));
      }
      full.at(t, y) += rng.bernoulli(0.5) ? 22.0f : -20.0f;
      if (t >= b && t < e) targets[t] = static_cast<int>(y);
    }
    const CrossEntropyResult want = cross_entropy(full, targets);
    Tensor part = Tensor::uninitialized(e - b, V);
    std::memcpy(part.data(), full.row(b), part.size() * sizeof(float));
    CrossEntropyResult got;
    cross_entropy_into(part, targets, got, /*ignore_index=*/-1, /*row0=*/b);
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(std::memcmp(&got.loss, &want.loss, sizeof(double)), 0)
        << "span [" << b << ", " << e << "): " << got.loss << " vs " << want.loss;
    ASSERT_EQ(got.dlogits.rows(), e - b);
    EXPECT_EQ(std::memcmp(got.dlogits.data(), want.dlogits.row(b),
                          got.dlogits.size() * sizeof(float)), 0);
  }
}
}  // namespace
}  // namespace odlp::nn
