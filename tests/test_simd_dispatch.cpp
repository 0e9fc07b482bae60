// Runtime SIMD dispatch matrix (DESIGN.md §12): every level available on
// this host must produce bit-identical GEMM results — fp32 across levels
// and int8 against qmatmul_reference — and kernel_build_info() must report
// the forced level. Requests above the host capability clamp down, never
// up.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "tensor/ops.h"
#include "tensor/qops.h"
#include "tensor/qtensor.h"
#include "tensor/simd.h"
#include "util/rng.h"

namespace odlp::tensor {
namespace {

// Every level at or below the host's capability; at minimum kScalar.
std::vector<SimdLevel> host_levels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  for (SimdLevel l : {SimdLevel::kSse2, SimdLevel::kAvx2, SimdLevel::kVnni}) {
    if (static_cast<int>(l) <= static_cast<int>(detected_simd_level())) {
      levels.push_back(l);
    }
  }
  return levels;
}

// Restores the entry level after each test so the forced level never leaks
// into the rest of the suite.
struct ScopedLevel {
  SimdLevel saved = active_simd_level();
  ~ScopedLevel() { set_simd_level(saved); }
};

Tensor random_tensor(std::size_t r, std::size_t c, util::Rng& rng) {
  Tensor t(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      t.at(i, j) = static_cast<float>(rng.uniform() * 2.0 - 1.0);
    }
  }
  return t;
}

// int8 shapes chosen to cross every kernel path boundary: m=1 GEMV, partial
// and full row quads, column-tile remainders, and k not a multiple of the
// quant block or the k-quad step.
struct Shape {
  std::size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 32, 16}, {1, 33, 17}, {2, 48, 24}, {4, 64, 32},
    {5, 70, 33}, {8, 96, 48}, {3, 31, 64},
};

// All three fp32 products, plain and accumulating onto a seeded output,
// over a grid that crosses the AVX2 row loop's edges: k across the 256-deep
// k-block; n as one pair of full 8-wide panels (16), an odd full panel (8,
// 24), a partial one (12), and mixes (33 = two pairs + partial, 430 = 26
// pairs + odd + partial); m through full and partial (5, 22) row quads.
TEST(SimdDispatch, Fp32BitIdenticalAcrossLevels) {
  ScopedLevel guard;
  util::Rng rng(404);
  const std::size_t ms[] = {4, 5, 22, 64};
  const std::size_t ks[] = {1, 12, 255, 256, 257, 513};
  const std::size_t ns[] = {8, 12, 16, 24, 33, 430};
  enum Product { kNn, kNt, kTn };
  for (std::size_t m : ms) {
    for (std::size_t k : ks) {
      for (std::size_t n : ns) {
        const Tensor a = random_tensor(m, k, rng);
        const Tensor at = random_tensor(k, m, rng);
        const Tensor b = random_tensor(k, n, rng);
        const Tensor bt = random_tensor(n, k, rng);
        const Tensor seed = random_tensor(m, n, rng);
        auto product = [&](Product p, bool accumulate) {
          Tensor out = accumulate ? seed : Tensor();
          switch (p) {
            case kNn: matmul_into(a, b, out, accumulate); break;
            case kNt: matmul_nt_into(a, bt, out, accumulate); break;
            case kTn: matmul_tn_into(at, b, out, accumulate); break;
          }
          return out;
        };
        for (Product p : {kNn, kNt, kTn}) {
          for (bool accumulate : {false, true}) {
            ASSERT_EQ(set_simd_level(SimdLevel::kScalar), SimdLevel::kScalar);
            const Tensor base = product(p, accumulate);
            for (SimdLevel level : host_levels()) {
              set_simd_level(level);
              const Tensor got = product(p, accumulate);
              ASSERT_EQ(got.rows(), base.rows());
              ASSERT_EQ(got.cols(), base.cols());
              EXPECT_EQ(std::memcmp(got.data(), base.data(),
                                    got.size() * sizeof(float)),
                        0)
                  << simd_level_name(level) << " product " << p
                  << (accumulate ? " accumulate " : " ") << m << "x" << k
                  << "x" << n;
            }
          }
        }
      }
    }
  }
}

TEST(SimdDispatch, Int8BitIdenticalToReferenceAtEveryLevel) {
  ScopedLevel guard;
  util::Rng rng(405);
  for (const Shape& s : kShapes) {
    const Tensor x = random_tensor(s.m, s.k, rng);
    const Tensor w = random_tensor(s.k, s.n, rng);
    const QuantizedTensor qw = QuantizedTensor::quantize(w);
    const Tensor want = qmatmul_reference(x, qw);
    for (SimdLevel level : host_levels()) {
      set_simd_level(level);
      const Tensor got = qmatmul(x, qw);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(float)),
                0)
          << simd_level_name(level) << " " << s.m << "x" << s.k << "x" << s.n;
    }
  }
}

TEST(SimdDispatch, BuildInfoReportsForcedLevel) {
  ScopedLevel guard;
  for (SimdLevel level : host_levels()) {
    ASSERT_EQ(set_simd_level(level), level);
    const KernelBuildInfo info = kernel_build_info();
    EXPECT_STREQ(info.simd_level, simd_level_name(level));
    if (level >= SimdLevel::kAvx2) {
      EXPECT_STREQ(info.variant, "tiled-4x16-inplace-avx2");
    } else {
      EXPECT_STREQ(info.variant, "tiled-4x8-inplace");
    }
    switch (level) {
      case SimdLevel::kVnni:
        EXPECT_STREQ(info.int8_variant, "q8-4x16-dpbusd-vnni");
        break;
      case SimdLevel::kAvx2:
        EXPECT_STREQ(info.int8_variant, "q8-4x16-maddubs-avx2");
        break;
      case SimdLevel::kSse2:
        EXPECT_STREQ(info.int8_variant, "q8-4x16-madd-sse2");
        break;
      case SimdLevel::kScalar:
        EXPECT_STREQ(info.int8_variant, "q8-4x16-scalar");
        break;
    }
    EXPECT_EQ(info.int8_block, kQuantBlock);
  }
}

TEST(SimdDispatch, SetLevelClampsToHostCapability) {
  ScopedLevel guard;
  const SimdLevel host = detected_simd_level();
  // Forcing above the host's capability is clamped down, never honored.
  EXPECT_EQ(set_simd_level(SimdLevel::kVnni) <= host, true);
  EXPECT_EQ(set_simd_level(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
}

}  // namespace
}  // namespace odlp::tensor
