// Autoregressive text generation from a MiniLlm.
//
// The paper fixes temperature τ = 0.5 for all evaluation generation; the
// sampler supports temperature scaling (τ → 0 degenerates to greedy argmax)
// and optional top-k and top-p (nucleus) truncation.
#pragma once

#include <vector>

#include "llm/minillm.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace odlp::llm {

struct SamplerConfig {
  float temperature = 0.5f;     // paper's evaluation setting
  std::size_t top_k = 0;        // 0 = no truncation
  float top_p = 1.0f;           // nucleus sampling mass; 1.0 = disabled
  std::size_t max_new_tokens = 24;
};

// Samples one token id from a row of logits under `config` (temperature
// scaling, optional top-k and top-p truncation), consuming randomness from
// `rng`. Shared by Sampler and BatchedDecodeScheduler so batched decode
// reproduces the serial sampling stream bit-for-bit. Its vocab-sized
// scratch is per-thread and reused, so a steady decode samples without
// allocating.
int sample_from_logits(const float* logits, std::size_t vocab,
                       const SamplerConfig& config, util::Rng& rng);

class Sampler {
 public:
  Sampler(MiniLlm& model, const SamplerConfig& config, util::Rng rng)
      : model_(model), config_(config), rng_(rng) {}

  // Continues `prompt_ids` until <eos> or max_new_tokens; returns only the
  // newly generated ids (without the prompt, without <eos>). KV-cached: a
  // width-1 BatchedDecodeScheduler run, so serial and batched decode share
  // one loop. The sampler's rng stream continues across calls.
  std::vector<int> generate_ids(const std::vector<int>& prompt_ids);

  // Convenience: encode question as prompt, generate, decode response text.
  std::string respond(const text::Tokenizer& tokenizer, std::string_view question);

  SamplerConfig& config() { return config_; }

 private:
  MiniLlm& model_;
  SamplerConfig config_;
  util::Rng rng_;
};

}  // namespace odlp::llm
