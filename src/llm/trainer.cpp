#include "llm/trainer.h"

#include <algorithm>
#include <numeric>

#include "nn/loss.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace odlp::llm {

namespace {
nn::AdamW::Config adamw_config(const TrainConfig& c) {
  nn::AdamW::Config a;
  a.lr = c.learning_rate;
  a.weight_decay = c.weight_decay;
  return a;
}
}  // namespace

Trainer::Trainer(MiniLlm& model, const TrainConfig& config, util::Rng rng)
    : model_(model), config_(config), optimizer_(adamw_config(config)), rng_(rng) {}

TrainStats Trainer::fine_tune(
    const std::vector<text::Tokenizer::EncodedDialogue>& examples) {
  TrainStats stats;
  if (examples.empty() || config_.epochs == 0) return stats;
  ODLP_TRACE_SCOPE("train.fine_tune");
  static obs::Histogram& h_fwd =
      obs::registry().histogram("train.step.forward_us");
  static obs::Histogram& h_bwd =
      obs::registry().histogram("train.step.backward_us");
  static obs::Histogram& h_opt =
      obs::registry().histogram("train.step.optimizer_us");
  static obs::Counter& c_tokens = obs::registry().counter("train.tokens.total");
  static obs::Counter& c_steps = obs::registry().counter("train.steps.total");
  static obs::Counter& c_wall_us = obs::registry().counter("train.wall_us.total");
  static obs::Gauge& g_tok_s = obs::registry().gauge("train.tokens_per_sec");
  static obs::Gauge& g_sec_epoch =
      obs::registry().gauge("train.seconds_per_epoch.last");

  util::Stopwatch watch;
  std::size_t tokens = 0;
  nn::ParameterList params = model_.parameters();
  std::vector<std::size_t> order(examples.size());
  std::iota(order.begin(), order.end(), 0);

  // Reused across sequences: their buffers reach steady state after the
  // longest sequence and stop allocating (see bench_perf's alloc probe).
  nn::CrossEntropyResult ce;
  std::vector<int> targets;
  util::Stopwatch sw;

  const auto optimizer_step = [&] {
    ODLP_TRACE_SCOPE("train.step.optimizer");
    sw.reset();
    if (config_.grad_clip > 0.0f) nn::clip_grad_norm(params, config_.grad_clip);
    optimizer_.step(params);
    nn::zero_grads(params);
    ++stats.optimizer_steps;
    c_steps.inc();
    h_opt.record(sw.elapsed_seconds() * 1e6);
  };

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    ODLP_TRACE_SCOPE("train.epoch");
    if (config_.shuffle_each_epoch) rng_.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t epoch_count = 0;
    std::size_t in_batch = 0;
    nn::zero_grads(params);
    for (std::size_t idx : order) {
      const auto& ex = examples[idx];
      if (ex.input.size() < 2) continue;
      sw.reset();
      const std::size_t T = std::min(ex.input.size(), model_.config().max_seq_len);
      targets = ex.targets;
      targets.resize(T, -1);  // forward truncates to max_seq_len
      // The LM head and the loss run only on the rows that carry a target.
      const HeadSpan head = supervised_head_span(targets);
      tensor::Tensor* logits_ptr;
      {
        ODLP_TRACE_SCOPE("train.step.forward");
        logits_ptr = &model_.forward_shared(ex.input, /*training=*/true, head);
      }
      nn::cross_entropy_into(*logits_ptr, targets, ce, /*ignore_index=*/-1,
                             head.begin);
      h_fwd.record(sw.elapsed_seconds() * 1e6);
      if (ce.count == 0) continue;
      sw.reset();
      {
        ODLP_TRACE_SCOPE("train.step.backward");
        model_.backward(ce.dlogits);
      }
      h_bwd.record(sw.elapsed_seconds() * 1e6);
      epoch_loss += ce.loss;
      ++epoch_count;
      ++stats.sequences_processed;
      tokens += T;
      c_tokens.inc(T);
      if (++in_batch >= config_.batch_size) {
        optimizer_step();
        in_batch = 0;
      }
    }
    if (in_batch > 0) optimizer_step();
    const double mean_loss = epoch_count ? epoch_loss / epoch_count : 0.0;
    if (epoch == 0) stats.first_epoch_loss = mean_loss;
    stats.final_epoch_loss = mean_loss;
  }
  stats.wall_seconds = watch.elapsed_seconds();
  stats.seconds_per_epoch = stats.wall_seconds / static_cast<double>(config_.epochs);
  c_wall_us.inc(static_cast<std::uint64_t>(stats.wall_seconds * 1e6));
  g_sec_epoch.set(stats.seconds_per_epoch);
  if (stats.wall_seconds > 0.0) {
    g_tok_s.set(static_cast<double>(tokens) / stats.wall_seconds);
  }
  return stats;
}

}  // namespace odlp::llm
