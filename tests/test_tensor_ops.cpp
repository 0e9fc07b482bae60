#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/ops.h"
#include "util/rng.h"

namespace odlp::tensor {
namespace {

TEST(Matmul, KnownValues) {
  Tensor a = Tensor::from(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(Matmul, IdentityIsNoop) {
  Tensor a = Tensor::from(2, 2, {1, 2, 3, 4});
  Tensor eye = Tensor::from(2, 2, {1, 0, 0, 1});
  Tensor c = matmul(a, eye);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c.data()[i], a.data()[i]);
}

TEST(Matmul, BackwardMatchesManualComputation) {
  // f = sum(A*B); df/dA = ones * B^T, df/dB = A^T * ones.
  Tensor a = Tensor::from(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::from(2, 2, {5, 6, 7, 8});
  Tensor dc = Tensor::ones(2, 2);
  Tensor da = Tensor::zeros(2, 2), db = Tensor::zeros(2, 2);
  matmul_backward(a, b, dc, da, db);
  // dA = dc * B^T: row sums of B.
  EXPECT_FLOAT_EQ(da.at(0, 0), 11);  // 5+6
  EXPECT_FLOAT_EQ(da.at(0, 1), 15);  // 7+8
  // dB = A^T * dc: column sums of A.
  EXPECT_FLOAT_EQ(db.at(0, 0), 4);  // 1+3
  EXPECT_FLOAT_EQ(db.at(1, 0), 6);  // 2+4
}

TEST(Matmul, BackwardAccumulates) {
  Tensor a = Tensor::ones(1, 1), b = Tensor::ones(1, 1), dc = Tensor::ones(1, 1);
  Tensor da = Tensor::from(1, 1, {10}), db = Tensor::from(1, 1, {20});
  matmul_backward(a, b, dc, da, db);
  EXPECT_FLOAT_EQ(da.at(0, 0), 11);
  EXPECT_FLOAT_EQ(db.at(0, 0), 21);
}

TEST(Transpose, Basic) {
  Tensor a = Tensor::from(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor t = transpose(a);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_FLOAT_EQ(t.at(2, 1), 6);
  EXPECT_FLOAT_EQ(t.at(0, 1), 4);
}

TEST(Transpose, DoubleTransposeIsIdentity) {
  util::Rng rng(3);
  Tensor a(4, 7);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = static_cast<float>(rng.normal());
  Tensor tt = transpose(transpose(a));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(tt.data()[i], a.data()[i]);
}

TEST(RowBroadcast, AddsBiasPerRow) {
  Tensor x = Tensor::from(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::from(1, 2, {10, 20});
  Tensor y = add_row_broadcast(x, b);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11);
  EXPECT_FLOAT_EQ(y.at(1, 1), 24);
}

TEST(RowBroadcast, BackwardSumsColumns) {
  Tensor dout = Tensor::from(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor dbias = Tensor::zeros(1, 2);
  add_row_broadcast_backward(dout, dbias);
  EXPECT_FLOAT_EQ(dbias.at(0, 0), 9);
  EXPECT_FLOAT_EQ(dbias.at(0, 1), 12);
}

TEST(Softmax, RowsSumToOne) {
  Tensor logits = Tensor::from(2, 3, {1, 2, 3, -1, 0, 1});
  Tensor p = softmax_rows(logits);
  for (std::size_t i = 0; i < 2; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GT(p.at(i, j), 0.0f);
      s += p.at(i, j);
    }
    EXPECT_NEAR(s, 1.0, 1e-6);
  }
}

TEST(Softmax, ShiftInvariance) {
  Tensor a = Tensor::from(1, 3, {1, 2, 3});
  Tensor b = Tensor::from(1, 3, {101, 102, 103});
  Tensor pa = softmax_rows(a), pb = softmax_rows(b);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(pa.at(0, j), pb.at(0, j), 1e-6);
}

TEST(Softmax, HandlesNegativeInfinityMask) {
  Tensor logits = Tensor::from(1, 3, {1.0f, -std::numeric_limits<float>::infinity(), 1.0f});
  Tensor p = softmax_rows(logits);
  EXPECT_FLOAT_EQ(p.at(0, 1), 0.0f);
  EXPECT_NEAR(p.at(0, 0), 0.5f, 1e-6);
}

TEST(Softmax, BackwardZeroWhenGradientUniform) {
  // softmax backward of a constant upstream gradient is zero (softmax is
  // invariant to constant shifts).
  Tensor logits = Tensor::from(1, 4, {0.1f, 0.9f, -0.3f, 0.5f});
  Tensor p = softmax_rows(logits);
  Tensor dout = Tensor::ones(1, 4);
  Tensor din = softmax_rows_backward(p, dout);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(din.at(0, j), 0.0f, 1e-6);
}

TEST(Gelu, KnownPointsAndMonotoneRegion) {
  Tensor x = Tensor::from(1, 3, {0.0f, 10.0f, -10.0f});
  Tensor y = gelu(x);
  EXPECT_NEAR(y.at(0, 0), 0.0f, 1e-6);
  EXPECT_NEAR(y.at(0, 1), 10.0f, 1e-3);   // ~identity for large x
  EXPECT_NEAR(y.at(0, 2), 0.0f, 1e-3);    // ~0 for very negative x
}

// The causal softmax reads and exponentiates only j <= i. It must write the
// bytes of the path it replaced in attention: scale the whole score matrix,
// fill −inf above the diagonal, and softmax whole rows.
TEST(Softmax, CausalMatchesMaskedRowsBitForBit) {
  util::Rng rng(31);
  const float scale = 1.0f / std::sqrt(12.0f);
  for (std::size_t T = 1; T <= 64; ++T) {
    Tensor scores = Tensor::uninitialized(T, T);
    for (std::size_t i = 0; i < scores.size(); ++i) {
      scores.data()[i] = static_cast<float>(rng.normal(0.0, 4.0));
    }
    Tensor masked = scores;
    masked *= scale;
    for (std::size_t i = 0; i < T; ++i) {
      for (std::size_t j = i + 1; j < T; ++j) {
        masked.at(i, j) = -std::numeric_limits<float>::infinity();
      }
    }
    Tensor want, got;
    softmax_rows_into(masked, want);
    softmax_causal_rows_into(scores, scale, got);
    ASSERT_EQ(got.rows(), T);
    ASSERT_EQ(got.cols(), T);
    ASSERT_EQ(std::memcmp(want.data(), got.data(), T * T * sizeof(float)), 0)
        << "T=" << T;
  }
}

// GELU's backward reads the tanh its forward kept. It must write the bytes
// of the recompute formula it replaced (this file is built with
// -ffp-contract=off like the kernels, so the reference cannot fuse).
TEST(Gelu, CachedTanhBackwardMatchesRecomputeBitForBit) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  util::Rng rng(32);
  for (std::size_t T = 1; T <= 64; ++T) {
    Tensor x = Tensor::uninitialized(T, 96);
    Tensor dout = Tensor::uninitialized(T, 96);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = static_cast<float>(rng.normal(0.0, 2.5));
      dout.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    Tensor want = Tensor::uninitialized(T, 96);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const float v = x.data()[i];
      const float u = kC * (v + 0.044715f * v * v * v);
      const float t = std::tanh(u);
      const float sech2 = 1.0f - t * t;
      const float du = kC * (1.0f + 3.0f * 0.044715f * v * v);
      const float grad = 0.5f * (1.0f + t) + 0.5f * v * sech2 * du;
      want.data()[i] = dout.data()[i] * grad;
    }
    Tensor y, tanh_u, got;
    gelu_into(x, y, tanh_u);
    gelu_backward_into(x, tanh_u, dout, got);
    ASSERT_EQ(std::memcmp(want.data(), got.data(), x.size() * sizeof(float)), 0)
        << "T=" << T;
    Tensor y_alloc = gelu(x);
    ASSERT_EQ(std::memcmp(y.data(), y_alloc.data(), x.size() * sizeof(float)), 0);
  }
}

TEST(Relu, ForwardAndBackward) {
  Tensor x = Tensor::from(1, 3, {-1, 0, 2});
  Tensor y = relu(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0);
  EXPECT_FLOAT_EQ(y.at(0, 2), 2);
  Tensor dout = Tensor::ones(1, 3);
  Tensor din = relu_backward(x, dout);
  EXPECT_FLOAT_EQ(din.at(0, 0), 0);
  EXPECT_FLOAT_EQ(din.at(0, 2), 1);
}

TEST(LayerNorm, RowsHaveZeroMeanUnitVariance) {
  util::Rng rng(5);
  Tensor x(3, 16);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.normal(2.0, 3.0));
  }
  LayerNormCache cache;
  Tensor y = layernorm_rows(x, 1e-5f, &cache);
  for (std::size_t i = 0; i < 3; ++i) {
    double mean = 0, var = 0;
    for (std::size_t j = 0; j < 16; ++j) mean += y.at(i, j);
    mean /= 16;
    for (std::size_t j = 0; j < 16; ++j) {
      var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
    }
    var /= 16;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNorm, ConstantRowMapsToZero) {
  Tensor x(1, 8, 5.0f);
  Tensor y = layernorm_rows(x, 1e-5f, nullptr);
  for (std::size_t j = 0; j < 8; ++j) EXPECT_NEAR(y.at(0, j), 0.0f, 1e-4);
}

TEST(ElementwiseOps, AddSubMulScale) {
  Tensor a = Tensor::from(1, 2, {1, 2});
  Tensor b = Tensor::from(1, 2, {3, 4});
  EXPECT_FLOAT_EQ(add(a, b).at(0, 1), 6);
  EXPECT_FLOAT_EQ(sub(b, a).at(0, 0), 2);
  EXPECT_FLOAT_EQ(mul_elem(a, b).at(0, 1), 8);
  EXPECT_FLOAT_EQ(scale(a, 3.0f).at(0, 0), 3);
}

TEST(MeanRows, AveragesOverRows) {
  Tensor x = Tensor::from(2, 2, {1, 2, 3, 4});
  Tensor m = mean_rows(x);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_FLOAT_EQ(m.at(0, 0), 2);
  EXPECT_FLOAT_EQ(m.at(0, 1), 3);
}

TEST(MeanRows, SingleRowIsIdentity) {
  Tensor x = Tensor::from(1, 3, {7, 8, 9});
  Tensor m = mean_rows(x);
  EXPECT_FLOAT_EQ(m.at(0, 2), 9);
}

TEST(CosineSimilarity, IdenticalIsOne) {
  Tensor a = Tensor::from(1, 3, {1, 2, 3});
  EXPECT_NEAR(cosine_similarity(a, a), 1.0f, 1e-6);
}

TEST(CosineSimilarity, OppositeIsMinusOne) {
  Tensor a = Tensor::from(1, 2, {1, 1});
  Tensor b = Tensor::from(1, 2, {-1, -1});
  EXPECT_NEAR(cosine_similarity(a, b), -1.0f, 1e-6);
}

TEST(CosineSimilarity, OrthogonalIsZero) {
  Tensor a = Tensor::from(1, 2, {1, 0});
  Tensor b = Tensor::from(1, 2, {0, 1});
  EXPECT_NEAR(cosine_similarity(a, b), 0.0f, 1e-6);
}

TEST(CosineSimilarity, ZeroVectorYieldsZero) {
  Tensor a = Tensor::from(1, 2, {0, 0});
  Tensor b = Tensor::from(1, 2, {1, 2});
  EXPECT_FLOAT_EQ(cosine_similarity(a, b), 0.0f);
}

TEST(CosineSimilarity, ScaleInvariant) {
  Tensor a = Tensor::from(1, 3, {1, 2, 3});
  Tensor b = Tensor::from(1, 3, {2, 4, 6});
  EXPECT_NEAR(cosine_similarity(a, b), 1.0f, 1e-6);
}

}  // namespace
}  // namespace odlp::tensor
