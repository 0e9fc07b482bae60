#include "llm/sampler.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

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

  // Per-thread scratch that only grows, so a steady decode samples with no
  // allocation and no zero-fill; every element read below is written first.
  thread_local std::vector<double> probs_buf;
  thread_local std::vector<double> sorted_buf;
  thread_local std::vector<std::size_t> order_buf;
  if (probs_buf.size() < vocab) probs_buf.resize(vocab);
  double* probs = probs_buf.data();

  // probs holds the scaled logits until the exponentials replace them.
  double mx = -1e30;
  for (std::size_t j = 0; j < vocab; ++j) {
    probs[j] = static_cast<double>(logits[j]) / config.temperature;
    mx = std::max(mx, probs[j]);
  }

  // Optional top-k: mask everything below the k-th largest logit.
  if (config.top_k > 0 && config.top_k < vocab) {
    if (sorted_buf.size() < vocab) sorted_buf.resize(vocab);
    double* sorted = sorted_buf.data();
    std::copy(probs, probs + vocab, sorted);
    std::nth_element(sorted, sorted + (config.top_k - 1), sorted + vocab,
                     std::greater<>());
    const double cutoff = sorted[config.top_k - 1];
    for (std::size_t j = 0; j < vocab; ++j) {
      if (probs[j] < cutoff) probs[j] = -1e30;
    }
  }

  double sum = 0.0;
  for (std::size_t j = 0; j < vocab; ++j) {
    probs[j] = std::exp(probs[j] - mx);
    sum += probs[j];
  }

  // Nucleus (top-p) truncation: keep the smallest probability mass >= top_p,
  // zeroing the tail.
  if (config.top_p < 1.0f && config.top_p > 0.0f) {
    if (order_buf.size() < vocab) order_buf.resize(vocab);
    std::size_t* order = order_buf.data();
    for (std::size_t j = 0; j < vocab; ++j) order[j] = j;
    std::sort(order, order + vocab,
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
