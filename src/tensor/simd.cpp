#include "tensor/simd.h"

#include <atomic>

namespace odlp::tensor {

namespace {

SimdLevel probe_host() {
#if defined(__x86_64__) || defined(__i386__)
#ifdef ODLP_HAVE_AVXVNNI
  // kVnni requires the AVX2 kernels too (fp32 + the int8 GEMV path), so both
  // features must be present. Without toolchain support the vnni TU is built
  // empty, so the ladder caps at kAvx2 no matter what cpuid says.
  if (__builtin_cpu_supports("avxvnni") && __builtin_cpu_supports("avx2")) {
    return SimdLevel::kVnni;
  }
#endif
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  if (__builtin_cpu_supports("sse2")) return SimdLevel::kSse2;
#endif
  return SimdLevel::kScalar;
}

SimdLevel clamp_to_host(SimdLevel level) {
  const SimdLevel host = detected_simd_level();
  return static_cast<int>(level) > static_cast<int>(host) ? host : level;
}

// Relaxed order suffices: the level only selects among bit-identical
// kernels, so there is nothing to synchronize with.
std::atomic<int>& active_storage() {
  static std::atomic<int> active{static_cast<int>(detected_simd_level())};
  return active;
}

}  // namespace

SimdLevel detected_simd_level() {
  static const SimdLevel detected = probe_host();
  return detected;
}

SimdLevel active_simd_level() {
  return static_cast<SimdLevel>(
      active_storage().load(std::memory_order_relaxed));
}

SimdLevel set_simd_level(SimdLevel level) {
  const SimdLevel applied = clamp_to_host(level);
  active_storage().store(static_cast<int>(applied), std::memory_order_relaxed);
  return applied;
}

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kVnni:
      return "vnni";
    case SimdLevel::kScalar:
    default:
      return "scalar";
  }
}

}  // namespace odlp::tensor
