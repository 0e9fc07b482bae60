// Per-block symmetric int8 quantization: round-trip error bounds, degenerate
// block contents (all-zero, denormal, ±max), both blocking axes, and edge
// shapes (1×1, primes, block-boundary ±1). The quantizer's contract is that
// every element's reconstruction error is at most half its block's scale —
// the round-to-nearest bound — and that pathological blocks degrade to
// exact zeros instead of NaN/Inf codes.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tensor/qtensor.h"
#include "util/rng.h"

namespace odlp {
namespace {

tensor::Tensor random_tensor(std::size_t rows, std::size_t cols,
                             util::Rng& rng, double lo = -1.0,
                             double hi = 1.0) {
  tensor::Tensor t(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

// Shapes spanning the block geometry: degenerate, primes, one exact block,
// block ±1 in each direction, and a multi-block interior.
constexpr std::size_t kShapes[][2] = {
    {1, 1},  {1, 32},  {32, 1},  {31, 33}, {32, 32}, {33, 31},
    {7, 13}, {64, 96}, {65, 95}, {5, 129},
};

constexpr tensor::QuantAxis kAxes[] = {tensor::QuantAxis::kAlongRows,
                                       tensor::QuantAxis::kAlongCols};

// The per-element scale for (r, c): blocks run down columns for kAlongRows
// and along rows for kAlongCols.
float element_scale(const tensor::QuantizedTensor& q, std::size_t r,
                    std::size_t c) {
  if (q.axis() == tensor::QuantAxis::kAlongRows) {
    return q.scales()[(r / tensor::kQuantBlock) * q.cols() + c];
  }
  return q.scales()[r * q.blocks() + c / tensor::kQuantBlock];
}

TEST(QTensor, RoundTripErrorWithinHalfScalePerBlock) {
  util::Rng rng(0x50);
  for (const auto& s : kShapes) {
    for (const auto axis : kAxes) {
      SCOPED_TRACE(testing::Message()
                   << s[0] << "x" << s[1] << " axis "
                   << (axis == tensor::QuantAxis::kAlongRows ? "rows" : "cols"));
      const tensor::Tensor src = random_tensor(s[0], s[1], rng, -3.0, 3.0);
      const auto q = tensor::QuantizedTensor::quantize(src, axis);
      const tensor::Tensor dq = q.dequantize();
      ASSERT_EQ(dq.rows(), s[0]);
      ASSERT_EQ(dq.cols(), s[1]);
      for (std::size_t r = 0; r < s[0]; ++r) {
        for (std::size_t c = 0; c < s[1]; ++c) {
          const float err = std::fabs(src.at(r, c) - dq.at(r, c));
          // Round-to-nearest with scale = amax/127: error ≤ scale/2 (plus
          // one ulp of slack for the fp32 scale division itself).
          ASSERT_LE(err, element_scale(q, r, c) * 0.5f * 1.0001f)
              << "element (" << r << ", " << c << ")";
        }
      }
      const tensor::QuantStats stats = q.round_trip_stats(src);
      EXPECT_EQ(stats.elements, s[0] * s[1]);
      EXPECT_LE(stats.max_abs_err, stats.max_scale * 0.5f * 1.0001f);
      EXPECT_LE(stats.mean_abs_err, stats.max_abs_err);
      EXPECT_LE(stats.rms_err, stats.max_abs_err);
    }
  }
}

TEST(QTensor, AllZeroBlocksRoundTripExactly) {
  const tensor::Tensor src(65, 33, 0.0f);
  for (const auto axis : kAxes) {
    const auto q = tensor::QuantizedTensor::quantize(src, axis);
    const tensor::Tensor dq = q.dequantize();
    for (std::size_t i = 0; i < dq.size(); ++i) {
      EXPECT_EQ(dq.data()[i], 0.0f);
    }
    const tensor::QuantStats stats = q.round_trip_stats(src);
    EXPECT_EQ(stats.max_abs_err, 0.0f);
    EXPECT_EQ(stats.max_scale, 0.0f);
  }
}

TEST(QTensor, DenormalBlocksDegradeToZerosNotNonFinite) {
  // amax so small that 127/amax overflows fp32: the quantizer must not
  // produce NaN/Inf scales or garbage codes — the contract is all-zero
  // codes (the values are below any representable int8 resolution anyway).
  tensor::Tensor src(64, 32);
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (std::size_t i = 0; i < src.size(); ++i) {
    src.data()[i] = (i % 2 ? denorm : -denorm);
  }
  for (const auto axis : kAxes) {
    const auto q = tensor::QuantizedTensor::quantize(src, axis);
    const tensor::Tensor dq = q.dequantize();
    for (std::size_t i = 0; i < dq.size(); ++i) {
      ASSERT_TRUE(std::isfinite(dq.data()[i]));
      EXPECT_EQ(dq.data()[i], 0.0f);
    }
  }
}

TEST(QTensor, MaxMagnitudeBlocksSaturateWithoutOverflow) {
  // ±FLT_MAX blocks: scale = FLT_MAX/127 must reconstruct the extremes
  // exactly (code ±127 × scale) and stay finite everywhere.
  tensor::Tensor src(32, 64);
  const float big = std::numeric_limits<float>::max();
  for (std::size_t i = 0; i < src.size(); ++i) {
    src.data()[i] = (i % 3 == 0) ? big : (i % 3 == 1 ? -big : 0.0f);
  }
  for (const auto axis : kAxes) {
    const auto q = tensor::QuantizedTensor::quantize(src, axis);
    const tensor::Tensor dq = q.dequantize();
    for (std::size_t i = 0; i < dq.size(); ++i) {
      ASSERT_TRUE(std::isfinite(dq.data()[i])) << "element " << i;
      if (src.data()[i] == 0.0f) {
        EXPECT_EQ(dq.data()[i], 0.0f);
      } else {
        // |code| = 127 exactly, so dequantize returns ±(127 * amax/127).
        EXPECT_NEAR(dq.data()[i], src.data()[i], big * 0.01f);
      }
    }
  }
}

TEST(QTensor, CodesStayWithinSymmetricRange) {
  // -128 is never produced: negation of any code must be representable.
  util::Rng rng(0x51);
  const tensor::Tensor src = random_tensor(67, 65, rng, -100.0, 100.0);
  for (const auto axis : kAxes) {
    const auto q = tensor::QuantizedTensor::quantize(src, axis);
    for (std::size_t i = 0; i < src.size(); ++i) {
      ASSERT_GE(q.values()[i], -127);
      ASSERT_LE(q.values()[i], 127);
    }
  }
}

TEST(QTensor, DequantizeRowMatchesFullDequantize) {
  util::Rng rng(0x52);
  const tensor::Tensor src = random_tensor(19, 70, rng);
  const auto q =
      tensor::QuantizedTensor::quantize(src, tensor::QuantAxis::kAlongCols);
  const tensor::Tensor full = q.dequantize();
  std::vector<float> row(src.cols());
  for (std::size_t r = 0; r < src.rows(); ++r) {
    q.dequantize_row_into(r, row.data(), /*accumulate=*/false);
    for (std::size_t c = 0; c < src.cols(); ++c) {
      ASSERT_EQ(row[c], full.at(r, c)) << "(" << r << ", " << c << ")";
    }
    // accumulate adds on top instead of overwriting.
    q.dequantize_row_into(r, row.data(), /*accumulate=*/true);
    for (std::size_t c = 0; c < src.cols(); ++c) {
      ASSERT_EQ(row[c], full.at(r, c) + full.at(r, c));
    }
  }
}

TEST(QTensor, ResidentBytesAccountCodesPlusScales) {
  const tensor::Tensor src(64, 96, 0.5f);
  const auto qr =
      tensor::QuantizedTensor::quantize(src, tensor::QuantAxis::kAlongRows);
  // 64 rows = 2 k-blocks of scales, one per column.
  EXPECT_EQ(qr.value_bytes(), 64u * 96u);
  EXPECT_EQ(qr.blocks(), 2u);
  EXPECT_EQ(qr.scale_bytes(), 2u * 96u * sizeof(float));
  EXPECT_EQ(qr.resident_bytes(), qr.value_bytes() + qr.scale_bytes());
  // int8 + fp32-scale footprint stays well under the fp32 original.
  EXPECT_LT(qr.resident_bytes(), src.size() * sizeof(float) * 30 / 100);

  const auto qc =
      tensor::QuantizedTensor::quantize(src, tensor::QuantAxis::kAlongCols);
  EXPECT_EQ(qc.blocks(), 3u);  // 96 cols = 3 blocks per row
  EXPECT_EQ(qc.scale_bytes(), 64u * 3u * sizeof(float));
}

}  // namespace
}  // namespace odlp
