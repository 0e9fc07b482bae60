// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components of the library (data generation, stream
// shuffling, dropout, sampling, tie-breaking in the replacement policy) draw
// from an explicitly seeded Rng instance that is threaded through the code;
// nothing uses global random state. This makes every experiment bit-for-bit
// reproducible from its seed.
#pragma once

#include <cstdint>
#include <vector>

namespace odlp::util {

// xoshiro256** with a splitmix64 seeder. Small, fast, and high quality;
// good enough for simulation workloads (not for cryptography).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  // Uniform 64-bit value. The three per-element draws (next_u64, uniform,
  // bernoulli) are defined here so LoRA dropout's draw loop inlines them.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform double in [0, 1): the 53 high bits of next_u64().
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  std::size_t uniform_index(std::size_t n);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int uniform_int(int lo, int hi);

  // Standard normal via Box-Muller.
  double normal();

  // Normal with mean / stddev.
  double normal(double mean, double stddev);

  // Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) { return uniform() < p; }

  // Sample an index from an unnormalized non-negative weight vector.
  // Requires at least one strictly positive weight.
  std::size_t categorical(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    if (v.empty()) return;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      std::size_t j = uniform_index(i + 1);
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  // Derive an independent child generator; used to give each subsystem its
  // own stream so adding randomness in one place does not perturb another.
  Rng split();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace odlp::util
