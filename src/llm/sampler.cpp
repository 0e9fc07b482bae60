#include "llm/sampler.h"

#include <algorithm>
#include <cmath>

#include "llm/batch_decode.h"

namespace odlp::llm {

std::vector<int> Sampler::generate_ids(const std::vector<int>& prompt_ids) {
  BatchedDecodeScheduler scheduler(model_, 1);
  const std::size_t ticket = scheduler.submit(prompt_ids, config_, rng_);
  scheduler.run();
  rng_ = scheduler.rng(ticket);
  return scheduler.result(ticket);
}

std::string Sampler::respond(const text::Tokenizer& tokenizer,
                             std::string_view question) {
  const std::vector<int> prompt =
      tokenizer.encode_prompt(question, model_.config().max_seq_len / 2);
  return tokenizer.decode(generate_ids(prompt));
}

int sample_from_logits(const float* logits, std::size_t vocab,
                       const SamplerConfig& config, util::Rng& rng) {
  // Greedy when temperature is (near) zero.
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

  // Optional top-k: mask everything below the k-th largest logit.
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

  // Nucleus (top-p) truncation: keep the smallest probability mass >= top_p,
  // zeroing the tail.
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

}  // namespace odlp::llm
