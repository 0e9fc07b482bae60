// Decode does inference work only (DESIGN.md §8, §12-§13): each LoRA
// overlay runs one product per user over that user's rows, the sampler
// reuses its scratch, and decode attention dots four cached positions at
// once. None of that may move a byte of the per-row paths it replaced:
//  * OverlayFlushMatchesGoldenDigest pins the logits and sampled ids of
//    overlay decode at widths 1, 4 and 12;
//  * OverlayRows / SampleFromLogits compare the library with test-local
//    copies of the per-row overlay loop and the allocating sampler.
// Built with -ffp-contract=off, like the library's kernel TUs, so the
// test-local references compute exactly what they spell.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "llm/batch_decode.h"
#include "llm/minillm.h"
#include "llm/sampler.h"
#include "nn/kv_cache.h"
#include "nn/linear.h"
#include "nn/lora_overlay.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/workspace.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace odlp::llm {
namespace {

using tensor::Tensor;

ModelConfig paper_config() {
  ModelConfig mc;  // ExperimentConfig's default geometry
  mc.vocab_size = 600;
  mc.dim = 48;
  mc.heads = 4;
  mc.layers = 2;
  mc.ff_hidden = 96;
  mc.max_seq_len = 64;
  return mc;
}

Tensor random_tensor(std::size_t rows, std::size_t cols, util::Rng& rng,
                     double stddev) {
  Tensor t(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) {
    t.data()[i] = static_cast<float>(rng.normal(0.0, stddev));
  }
  return t;
}

// One user's rank-8 adapters at `sites` sites of width `in` -> `out`, with
// B non-zero so the overlay changes the output.
nn::LoraOverlaySet random_overlay(std::size_t sites, std::size_t in,
                                  std::size_t out, std::uint64_t seed) {
  util::Rng rng(seed);
  nn::LoraOverlaySet overlay;
  overlay.scaling = 16.0f / 8.0f;  // paper: alpha 16, rank 8
  for (std::size_t s = 0; s < sites; ++s) {
    overlay.sites.push_back(
        {random_tensor(in, 8, rng, 0.05), random_tensor(8, out, rng, 0.1)});
  }
  return overlay;
}

std::vector<tensor::SimdLevel> host_levels() {
  std::vector<tensor::SimdLevel> levels = {tensor::SimdLevel::kScalar};
  for (tensor::SimdLevel l : {tensor::SimdLevel::kSse2, tensor::SimdLevel::kAvx2,
                              tensor::SimdLevel::kVnni}) {
    if (static_cast<int>(l) <= static_cast<int>(tensor::detected_simd_level())) {
      levels.push_back(l);
    }
  }
  return levels;
}

struct ScopedLevel {
  tensor::SimdLevel saved = tensor::active_simd_level();
  ~ScopedLevel() { tensor::set_simd_level(saved); }
};

std::uint32_t crc_row(const float* row, std::size_t n, std::uint32_t crc) {
  return util::crc32(row, n * sizeof(float), crc);
}

// Overlay decode on a frozen base, CRC'd at widths 1, 4 and 12:
//  * logits: each row is primed alone (width-1 steps) to its own cache
//    length, 1 + 5b mod 11 tokens, so the lengths of a batched step cover
//    every len % 4; then every row steps together. Row b carries user
//    kPattern[b]'s overlay or none: at width 12 user 0 holds 5 rows (the
//    tiled GEMM), users 1 and 2 hold 3 and 1 (the small products).
//  * generated ids: a scheduler flush of mixed-length prompts over the
//    same pattern, one request with top-k and one with top-p, and
//    shared-prefix groups (forks) with and without an overlay.
TEST(BatchDecode, OverlayFlushMatchesGoldenDigest) {
  constexpr std::uint32_t kGoldenCrc = 0x525b3917u;
  const ModelConfig mc = paper_config();
  MiniLlm model(mc, 2028);
  model.freeze();
  const std::size_t sites = mc.layers * 4;
  const std::vector<nn::LoraOverlaySet> users = {
      random_overlay(sites, mc.dim, mc.dim, 11),
      random_overlay(sites, mc.dim, mc.dim, 12),
      random_overlay(sites, mc.dim, mc.dim, 13)};
  const int kPattern[12] = {0, 1, 0, -1, 2, 0, 1, -1, 0, 1, 0, -1};
  const auto overlay_of = [&](std::size_t b) -> const nn::LoraOverlaySet* {
    const int u = kPattern[b % 12];
    return u < 0 ? nullptr : &users[static_cast<std::size_t>(u)];
  };

  std::uint32_t crc = 0;
  std::size_t generated = 0;
  std::vector<std::vector<int>> first_width_results;
  for (const std::size_t width : {1u, 4u, 12u}) {
    util::Rng token_rng(100 + width);
    const auto next_token = [&] {
      return 5 + static_cast<int>(token_rng.uniform_index(mc.vocab_size - 5));
    };
    std::vector<std::vector<nn::KvCache>> caches(width);
    std::vector<int> positions(width, 0);
    std::vector<const nn::LoraOverlaySet*> overlays(width);
    for (std::size_t b = 0; b < width; ++b) {
      for (std::size_t l = 0; l < model.num_blocks(); ++l) {
        caches[b].emplace_back(mc.max_seq_len, mc.dim);
      }
      overlays[b] = overlay_of(b);
      for (std::size_t t = 0; t < 1 + (5 * b) % 11; ++t) {
        const Tensor& logits = model.forward_incremental_batch(
            {next_token()}, {positions[b]++}, {&caches[b]}, &overlays[b]);
        crc = crc_row(logits.row(0), logits.cols(), crc);
      }
    }
    std::vector<std::vector<nn::KvCache>*> step_caches;
    for (auto& c : caches) step_caches.push_back(&c);
    for (int step = 0; step < 20; ++step) {
      std::vector<int> tokens(width);
      for (int& tok : tokens) tok = next_token();
      const Tensor& logits = model.forward_incremental_batch(
          tokens, positions, step_caches, overlays.data());
      ASSERT_EQ(logits.rows(), width);
      for (std::size_t b = 0; b < width; ++b) {
        crc = crc_row(logits.row(b), logits.cols(), crc);
        ++positions[b];
      }
    }

    BatchedDecodeScheduler scheduler(model, width);
    std::vector<std::size_t> tickets;
    util::Rng prompt_rng(7);
    for (std::size_t i = 0; i < 16; ++i) {
      std::vector<int> prompt(1 + (3 * i) % 9);
      for (int& tok : prompt) {
        tok = 5 + static_cast<int>(prompt_rng.uniform_index(mc.vocab_size - 5));
      }
      SamplerConfig sc;
      sc.temperature = 0.7f;
      sc.max_new_tokens = 12;
      if (i == 5) sc.top_k = 5;
      if (i == 9) sc.top_p = 0.8f;
      tickets.push_back(
          scheduler.submit(prompt, sc, util::Rng(500 + i), overlay_of(i)));
      if (i % 5 == 2) {
        const std::vector<util::Rng> rngs = {util::Rng(900 + i),
                                             util::Rng(901 + i),
                                             util::Rng(902 + i)};
        for (std::size_t t : scheduler.submit_shared_prefix(
                 prompt, sc, rngs, overlay_of(i + 1))) {
          tickets.push_back(t);
        }
      }
    }
    scheduler.run();
    ASSERT_TRUE(scheduler.finished());
    std::vector<std::vector<int>> results;
    for (std::size_t t : tickets) {
      const std::vector<int>& ids = scheduler.result(t);
      const std::uint64_t count = ids.size();
      crc = util::crc32(&count, sizeof(count), crc);
      crc = util::crc32(ids.data(), ids.size() * sizeof(int), crc);
      results.push_back(ids);
      generated += ids.size();
    }
    if (first_width_results.empty()) {
      first_width_results = results;
    } else {
      EXPECT_EQ(results, first_width_results) << "width " << width;
    }
  }
  // Not all <eos>: at least 4 ids per request on average.
  EXPECT_GT(generated, 3 * 4 * first_width_results.size()) << generated;
  EXPECT_EQ(crc, kGoldenCrc) << std::hex << "actual 0x" << crc;
}

// The per-row overlay loop: one m=1 (x·A)·B and one add_scaled per row.
void per_row_overlay(const Tensor& x, Tensor& y,
                     const nn::LoraOverlaySet* const* overlays, std::size_t n,
                     std::size_t site) {
  Tensor xrow(1, x.cols());
  Tensor xa;
  Tensor delta;
  Tensor yrow(1, y.cols());
  for (std::size_t b = 0; b < n; ++b) {
    const nn::LoraOverlaySet* o = overlays[b];
    if (!o) continue;
    const nn::LoraOverlaySet::Site& s = o->sites[site];
    std::memcpy(xrow.data(), x.row(b), x.cols() * sizeof(float));
    tensor::matmul_into(xrow, s.a, xa);
    tensor::matmul_into(xa, s.b, delta);
    std::memcpy(yrow.data(), y.row(b), y.cols() * sizeof(float));
    yrow.add_scaled(delta, o->scaling);
    std::memcpy(y.row(b), yrow.data(), y.cols() * sizeof(float));
  }
}

// Grouping a user's g rows into one (g×in)·A and (g×r)·B gives the bytes
// of g m=1 products: both are nn products, which sum each element in
// ascending k with no FMA on the small and the tiled path alike. g = 1..12
// crosses the small/tiled boundary at 4; out = 44 leaves a partial panel.
// Another user's rows and bare rows sit between the group's rows.
TEST(OverlayRows, GroupedProductsMatchPerRowM1Loop) {
  ScopedLevel restore;
  const std::size_t in = 48;
  const std::size_t out = 44;
  util::Rng rng(3);
  nn::Linear lin("l", in, out, rng);
  const nn::LoraOverlaySet user_a = random_overlay(2, in, out, 21);
  const nn::LoraOverlaySet user_b = random_overlay(2, in, out, 22);
  for (tensor::SimdLevel level : host_levels()) {
    tensor::set_simd_level(level);
    for (std::size_t g = 1; g <= 12; ++g) {
      std::vector<const nn::LoraOverlaySet*> overlays = {&user_a, &user_b,
                                                         nullptr};
      for (std::size_t r = 1; r < g; ++r) overlays.push_back(&user_a);
      overlays.push_back(&user_b);
      const std::size_t n = overlays.size();
      const Tensor x = random_tensor(n, in, rng, 1.0);
      const Tensor y0 = random_tensor(n, out, rng, 1.0);
      for (std::size_t site : {0u, 1u}) {
        Tensor want = y0;
        per_row_overlay(x, want, overlays.data(), n, site);
        Tensor got = y0;
        tensor::Workspace ws;
        lin.apply_lora_rows_ws(x, got, overlays.data(), n, site, ws);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << "level " << tensor::simd_level_name(level) << " g " << g
            << " site " << site;
      }
    }
  }
}

// The sampler as it was: two fresh vocab-sized double vectors per token.
int allocating_sample(const float* logits, std::size_t vocab,
                      const SamplerConfig& config, util::Rng& rng) {
  if (config.temperature < 1e-4f) {
    std::size_t best = 0;
    for (std::size_t j = 1; j < vocab; ++j) {
      if (logits[j] > logits[best]) best = j;
    }
    return static_cast<int>(best);
  }
  std::vector<double> scaled(vocab);
  double mx = -1e30;
  for (std::size_t j = 0; j < vocab; ++j) {
    scaled[j] = static_cast<double>(logits[j]) / config.temperature;
    mx = std::max(mx, scaled[j]);
  }
  if (config.top_k > 0 && config.top_k < vocab) {
    std::vector<double> sorted = scaled;
    std::nth_element(sorted.begin(), sorted.begin() + (config.top_k - 1),
                     sorted.end(), std::greater<>());
    const double cutoff = sorted[config.top_k - 1];
    for (double& v : scaled) {
      if (v < cutoff) v = -1e30;
    }
  }
  std::vector<double> probs(vocab);
  double sum = 0.0;
  for (std::size_t j = 0; j < vocab; ++j) {
    probs[j] = std::exp(scaled[j] - mx);
    sum += probs[j];
  }
  if (config.top_p < 1.0f && config.top_p > 0.0f) {
    std::vector<std::size_t> order(vocab);
    for (std::size_t j = 0; j < vocab; ++j) order[j] = j;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return probs[a] > probs[b]; });
    const double target = static_cast<double>(config.top_p) * sum;
    double kept = 0.0;
    std::size_t cutoff = vocab;
    for (std::size_t rank = 0; rank < vocab; ++rank) {
      kept += probs[order[rank]];
      if (kept >= target) {
        cutoff = rank + 1;
        break;
      }
    }
    for (std::size_t rank = cutoff; rank < vocab; ++rank) {
      sum -= probs[order[rank]];
      probs[order[rank]] = 0.0;
    }
  }
  double r = rng.uniform() * sum;
  for (std::size_t j = 0; j < vocab; ++j) {
    r -= probs[j];
    if (r <= 0.0) return static_cast<int>(j);
  }
  return static_cast<int>(vocab - 1);
}

// Vocab sizes alternate large and small, so scratch a smaller call leaves
// behind must never leak into a larger one (or the reverse). Every config
// family runs: greedy, temperature only, top-k (inside and past the vocab),
// top-p, and both. Ids and the rng stream after the draw must match.
TEST(SampleFromLogits, MatchesAllocatingReference) {
  const std::size_t vocabs[] = {600, 7, 600, 1, 1000, 40, 3, 600};
  const float temperatures[] = {0.0f, 0.5f, 1.3f};
  const std::size_t top_ks[] = {0, 1, 5, 2000};
  const float top_ps[] = {1.0f, 0.9f, 0.3f};
  util::Rng logits_rng(41);
  std::uint64_t seed = 1;
  std::size_t draws = 0;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t vocab : vocabs) {
      std::vector<float> logits(vocab);
      for (float& v : logits) v = static_cast<float>(logits_rng.normal(0.0, 3.0));
      if (vocab > 4) logits[vocab / 2] = logits[1];  // a tie
      for (float temperature : temperatures) {
        for (std::size_t top_k : top_ks) {
          for (float top_p : top_ps) {
            SamplerConfig sc;
            sc.temperature = temperature;
            sc.top_k = top_k;
            sc.top_p = top_p;
            util::Rng got_rng(seed);
            util::Rng want_rng(seed);
            ++seed;
            const int got = sample_from_logits(logits.data(), vocab, sc, got_rng);
            const int want =
                allocating_sample(logits.data(), vocab, sc, want_rng);
            ASSERT_EQ(got, want) << "vocab " << vocab << " t " << temperature
                                 << " k " << top_k << " p " << top_p;
            ASSERT_EQ(got_rng.next_u64(), want_rng.next_u64());
            ++draws;
          }
        }
      }
    }
  }
  EXPECT_EQ(draws, 3u * 8u * 3u * 4u * 3u);
}

}  // namespace
}  // namespace odlp::llm
