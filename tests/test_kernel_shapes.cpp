// Edge-shape coverage for the register-tiled GEMM micro-kernels.
//
// The tiled path reads A in place in 4-row quads and B in 8-column panels
// (packed, zero-padded, for a transposed B and for a partial last panel),
// and falls back to small-path kernels when a dimension is below one tile. These tests sweep shapes that land exactly
// on, just below, and just above every boundary — plus degenerate 1×1,
// prime, all-zero, and denormal inputs — for the forward product and both
// backward products (dA += dC·Bᵀ via the nt kernel, dB += Aᵀ·dC via tn).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/ops.h"
#include "tensor/simd.h"
#include "util/rng.h"

namespace odlp {
namespace {

tensor::Tensor random_tensor(std::size_t rows, std::size_t cols, util::Rng& rng) {
  tensor::Tensor t(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

void expect_close(const tensor::Tensor& ref, const tensor::Tensor& got,
                  float rtol = 1e-4f, float atol = 1e-5f) {
  ASSERT_TRUE(ref.same_shape(got));
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const float r = ref.data()[i];
    const float g = got.data()[i];
    ASSERT_LE(std::abs(g - r), atol + rtol * std::abs(r)) << "element " << i;
  }
}

// Shapes as [m, n, k] of the logical product C[m,n] = A[m,k] * B[k,n].
// Micro-kernel geometry: 4-row quads, 8-column panels, 256-deep k-blocks
// (see kernel_build_info()) — each dimension is swept across tile ±1, one
// full tile, primes, and the degenerate 1.
constexpr std::size_t kShapes[][3] = {
    {1, 1, 1},                         // fully degenerate
    {1, 8, 64},   {64, 1, 8},          // single row / single column
    {3, 7, 31},   {5, 9, 31},          // just below / above one tile
    {4, 8, 256},                       // exactly one quad × panel × k-block
    {4, 8, 255},  {4, 8, 257},         // k-block boundary ±1
    {7, 13, 31},  {13, 31, 7},  {31, 7, 13},  // primes, all rotations
    {9, 16, 300}, {12, 17, 129},       // mixed interior/edge tiles
};

TEST(KernelShapes, ForwardMatchesReference) {
  util::Rng rng(0xF0);
  for (const auto& s : kShapes) {
    SCOPED_TRACE(testing::Message()
                 << "shape " << s[0] << "x" << s[1] << "x" << s[2]);
    const tensor::Tensor a = random_tensor(s[0], s[2], rng);
    const tensor::Tensor b = random_tensor(s[2], s[1], rng);
    expect_close(tensor::matmul_reference(a, b), tensor::matmul(a, b));
  }
}

TEST(KernelShapes, NtProductMatchesTransposedReference) {
  // C = A · Bᵀ — the dA backward product and the attention-score product.
  util::Rng rng(0xF1);
  for (const auto& s : kShapes) {
    SCOPED_TRACE(testing::Message()
                 << "shape " << s[0] << "x" << s[1] << "x" << s[2]);
    const tensor::Tensor a = random_tensor(s[0], s[2], rng);
    const tensor::Tensor b = random_tensor(s[1], s[2], rng);  // [n, k]
    tensor::Tensor got;
    tensor::matmul_nt_into(a, b, got);
    expect_close(tensor::matmul_reference(a, tensor::transpose(b)), got);
  }
}

TEST(KernelShapes, TnProductMatchesTransposedReference) {
  // C = Aᵀ · B — the dB backward product and the attention dK product.
  util::Rng rng(0xF2);
  for (const auto& s : kShapes) {
    SCOPED_TRACE(testing::Message()
                 << "shape " << s[0] << "x" << s[1] << "x" << s[2]);
    const tensor::Tensor a = random_tensor(s[2], s[0], rng);  // [k, m]
    const tensor::Tensor b = random_tensor(s[2], s[1], rng);
    tensor::Tensor got;
    tensor::matmul_tn_into(a, b, got);
    expect_close(tensor::matmul_reference(tensor::transpose(a), b), got);
  }
}

TEST(KernelShapes, AccumulateAddsOntoSeededOutput) {
  util::Rng rng(0xF3);
  for (const auto& s : kShapes) {
    SCOPED_TRACE(testing::Message()
                 << "shape " << s[0] << "x" << s[1] << "x" << s[2]);
    const tensor::Tensor a = random_tensor(s[0], s[2], rng);
    const tensor::Tensor b = random_tensor(s[2], s[1], rng);
    const tensor::Tensor seed = random_tensor(s[0], s[1], rng);
    tensor::Tensor got = seed;
    tensor::matmul_into(a, b, got, /*accumulate=*/true);
    tensor::Tensor want = tensor::matmul_reference(a, b);
    want += seed;
    expect_close(want, got, /*rtol=*/1e-4f, /*atol=*/1e-4f);
  }
}

TEST(KernelShapes, AllZeroInputsGiveExactZeros) {
  // The tiled path must not leak packing-pad garbage into C; with zero
  // inputs every output element is exactly +0.0f.
  for (const auto& s : kShapes) {
    const tensor::Tensor a(s[0], s[2], 0.0f);
    const tensor::Tensor b(s[2], s[1], 0.0f);
    const tensor::Tensor c = tensor::matmul(a, b);
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(c.data()[i], 0.0f);
    }
  }
}

TEST(KernelShapes, DenormalInputsStayFiniteAndMatchReference) {
  // Subnormal operands must neither trap nor diverge from the reference
  // kernel (both accumulate in float, so products underflow identically).
  util::Rng rng(0xF4);
  const float denorm = std::numeric_limits<float>::denorm_min() * 64.0f;
  const std::size_t shapes[][3] = {{5, 9, 31}, {4, 8, 257}, {13, 31, 7}};
  for (const auto& s : shapes) {
    tensor::Tensor a(s[0], s[2]);
    tensor::Tensor b(s[2], s[1]);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a.data()[i] = denorm * static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      b.data()[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    const tensor::Tensor ref = tensor::matmul_reference(a, b);
    const tensor::Tensor got = tensor::matmul(a, b);
    ASSERT_TRUE(ref.same_shape(got));
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(std::isfinite(got.data()[i]));
    }
    expect_close(ref, got, /*rtol=*/1e-4f, /*atol=*/0.0f);
  }
}

// A PackedB handed to matmul_into / matmul_nt_into changes only where the
// tiled kernel reads B's panels from, so every output byte must equal the
// per-call path's (B in place, or packed per call when transposed), on a
// fresh and on a seeded (accumulating) output. M
// runs 1..70, so the small path (m < 4) is covered too; N and K take the
// paper geometry's sizes (48, 96, 600) plus panel edges.
void expect_prepacked_matches_per_call(bool nt) {
  util::Rng rng(nt ? 0xF6 : 0xF5);
  constexpr std::size_t kNs[] = {8, 12, 48, 96, 430, 600};
  constexpr std::size_t kKs[] = {8, 48, 96, 430};
  constexpr std::size_t kMaxM = 70;
  const tensor::Tensor a_full = random_tensor(kMaxM, 430, rng);
  const auto same_bytes = [](const tensor::Tensor& x, const tensor::Tensor& y) {
    return x.same_shape(y) &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
  };
  for (const std::size_t n : kNs) {
    for (const std::size_t k : kKs) {
      const tensor::Tensor b =
          nt ? random_tensor(n, k, rng) : random_tensor(k, n, rng);
      const tensor::PackedB packed =
          nt ? tensor::PackedB::nt(b) : tensor::PackedB::nn(b);
      const auto product = [&](const tensor::Tensor& a, tensor::Tensor& out,
                               bool accumulate, const tensor::PackedB* pb) {
        if (nt) {
          tensor::matmul_nt_into(a, b, out, accumulate, pb);
        } else {
          tensor::matmul_into(a, b, out, accumulate, pb);
        }
      };
      for (std::size_t m = 1; m <= kMaxM; ++m) {
        SCOPED_TRACE(testing::Message()
                     << "m=" << m << " n=" << n << " k=" << k);
        tensor::Tensor a(m, k);
        for (std::size_t i = 0; i < m; ++i) {
          std::memcpy(a.row(i), a_full.row(i), k * sizeof(float));
        }
        tensor::Tensor want, got;
        product(a, want, /*accumulate=*/false, nullptr);
        product(a, got, /*accumulate=*/false, &packed);
        ASSERT_TRUE(same_bytes(want, got));
        tensor::Tensor want_acc = random_tensor(m, n, rng);
        tensor::Tensor got_acc = want_acc;
        product(a, want_acc, /*accumulate=*/true, nullptr);
        product(a, got_acc, /*accumulate=*/true, &packed);
        ASSERT_TRUE(same_bytes(want_acc, got_acc));
      }
    }
  }
}

TEST(KernelShapes, PrePackedBMatchesPerCallPackingBitForBit) {
  expect_prepacked_matches_per_call(/*nt=*/false);
}

TEST(KernelShapes, PrePackedTransposedBMatchesPerCallPackingBitForBit) {
  expect_prepacked_matches_per_call(/*nt=*/true);
}

TEST(KernelShapes, BuildInfoReportsTileGeometry) {
  // The variant string tracks the runtime dispatch level (tensor/simd.h)
  // and names the register tile that runs: the AVX2 row loop holds two
  // adjacent 8-wide panels (4x16), the portable micro-kernel one (4x8).
  const tensor::KernelBuildInfo info = tensor::kernel_build_info();
  if (tensor::active_simd_level() >= tensor::SimdLevel::kAvx2) {
    EXPECT_STREQ(info.variant, "tiled-4x16-inplace-avx2");
  } else {
    EXPECT_STREQ(info.variant, "tiled-4x8-inplace");
  }
  EXPECT_STREQ(info.simd_level,
               tensor::simd_level_name(tensor::active_simd_level()));
}

}  // namespace
}  // namespace odlp
