#include "llm/decode_session.h"

#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace odlp::llm {

DecodeSession::DecodeSession(MiniLlm& model) : model_(model) {
  caches_.reserve(model_.num_blocks());
  for (std::size_t l = 0; l < model_.num_blocks(); ++l) {
    caches_.emplace_back(model_.config().max_seq_len, model_.config().dim);
  }
}

const tensor::Tensor& DecodeSession::step(int token) {
  assert(!full());
  ODLP_TRACE_SCOPE("decode.step");
  static obs::Counter& c_steps = obs::registry().counter("decode.steps.total");
  static obs::Counter& c_kv_hits =
      obs::registry().counter("decode.kv.hit_positions");
  static obs::Histogram& h_step = obs::registry().histogram("decode.step_us");
  static obs::Gauge& g_tok_s = obs::registry().gauge("decode.tokens_per_sec");
  util::Stopwatch sw;
  const tensor::Tensor& logits =
      model_.forward_incremental(token, position_, caches_);
  // Every already-cached position is attention context served from the KV
  // cache instead of a recomputed forward — the O(T²) → O(T) win.
  c_kv_hits.inc(position_);
  ++position_;
  c_steps.inc();
  const double us = sw.elapsed_seconds() * 1e6;
  h_step.record(us);
  if (us > 0.0) g_tok_s.set(1e6 / us);
  return logits;
}

const tensor::Tensor& DecodeSession::prime(const std::vector<int>& prompt) {
  assert(!prompt.empty());
  ODLP_TRACE_SCOPE("decode.prime");
  const tensor::Tensor* last = nullptr;
  for (int token : prompt) last = &step(token);
  return *last;
}

void DecodeSession::reset() {
  position_ = 0;
  for (auto& cache : caches_) cache.reset();
}

}  // namespace odlp::llm
