#include "llm/batch_decode.h"

#include <cassert>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/tokenizer.h"

namespace odlp::llm {

BatchedDecodeScheduler::BatchedDecodeScheduler(MiniLlm& model,
                                               std::size_t max_batch)
    : model_(model) {
  if (max_batch == 0) {
    throw std::invalid_argument("BatchedDecodeScheduler: max_batch must be >= 1");
  }
  slots_.resize(max_batch);
}

std::size_t BatchedDecodeScheduler::submit(std::vector<int> prompt_ids,
                                           const SamplerConfig& config,
                                           util::Rng rng) {
  return submit(std::move(prompt_ids), config, rng, nullptr);
}

std::size_t BatchedDecodeScheduler::submit(std::vector<int> prompt_ids,
                                           const SamplerConfig& config,
                                           util::Rng rng,
                                           const nn::LoraOverlaySet* overlay) {
  const std::size_t ticket = requests_.size();
  Request req;
  req.prompt = std::move(prompt_ids);
  req.overlay = overlay;
  if (overlay) any_overlay_ = true;
  if (req.prompt.size() > model_.config().max_seq_len) {
    req.prompt.resize(model_.config().max_seq_len);
  }
  req.config = config;
  req.rng = rng;
  if (req.prompt.empty()) {
    // An empty prompt: nothing to prime, nothing generated.
    req.done = true;
    ++finished_;
  } else {
    queue_.push_back(ticket);
  }
  requests_.push_back(std::move(req));
  return ticket;
}

std::vector<std::size_t> BatchedDecodeScheduler::submit_shared_prefix(
    std::vector<int> prompt_ids, const SamplerConfig& config,
    const std::vector<util::Rng>& rngs, const nn::LoraOverlaySet* overlay) {
  std::vector<std::size_t> tickets;
  tickets.reserve(rngs.size());
  // Sharing pays off only when there is a prefix to share (>= 2 prompt
  // tokens) and someone to share it with; otherwise these are plain
  // submissions.
  const bool shared = rngs.size() >= 2 && prompt_ids.size() >= 2;
  const std::size_t group = shared ? groups_.size() : kNoGroup;
  if (shared) {
    groups_.emplace_back();
    groups_.back().awaiting = rngs.size();
  }
  for (std::size_t i = 0; i < rngs.size(); ++i) {
    const std::size_t ticket =
        submit(prompt_ids, config, rngs[i], overlay);  // copies the prompt
    requests_[ticket].group = group;
    requests_[ticket].leader = shared && i == 0;
    tickets.push_back(ticket);
  }
  return tickets;
}

bool BatchedDecodeScheduler::admissible(std::size_t ticket) const {
  const Request& req = requests_[ticket];
  return req.group == kNoGroup || req.leader || groups_[req.group].ready;
}

void BatchedDecodeScheduler::admit_pending() {
  static obs::Counter& c_joins =
      obs::registry().counter("decode.batch.joins.total");
  static obs::Counter& c_forks =
      obs::registry().counter("decode.batch.prefix_forks.total");
  for (std::size_t s = 0; s < slots_.size() && queue_head_ < queue_.size();
       ++s) {
    Slot& slot = slots_[s];
    if (slot.live) continue;
    // First admissible ticket in FIFO order; followers whose prefix
    // snapshot does not exist yet are skipped (their leader is live or
    // earlier in the queue, so progress is guaranteed).
    std::size_t q = queue_head_;
    while (q < queue_.size() && !admissible(queue_[q])) ++q;
    if (q >= queue_.size()) break;
    const std::size_t ticket = queue_[q];
    if (q == queue_head_) {
      ++queue_head_;
    } else {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(q));
    }
    Request& req = requests_[ticket];
    PrefixGroup* group = req.group == kNoGroup ? nullptr : &groups_[req.group];
    if (slot.caches.empty()) {
      slot.caches.reserve(model_.num_blocks());
      for (std::size_t l = 0; l < model_.num_blocks(); ++l) {
        slot.caches.emplace_back(model_.config().max_seq_len,
                                 model_.config().dim);
      }
    }
    if (group && !req.leader && group->fed > 0) {
      // Fork: adopt the group's primed KV rows (bytes identical to
      // re-priming the prefix) and feed only the last prompt token
      // ourselves, so the sampled continuation reads this request's own
      // logits row.
      for (std::size_t l = 0; l < slot.caches.size(); ++l) {
        slot.caches[l].assign_prefix(group->snapshot[l]);
      }
      slot.position = group->fed;
      slot.prompt_cursor = req.prompt.size() - 1;
      slot.pending_token = req.prompt[slot.prompt_cursor];
      c_forks.inc();
    } else {
      for (auto& cache : slot.caches) cache.reset();
      slot.position = 0;
      slot.prompt_cursor = 0;
      slot.pending_token = req.prompt[0];
    }
    if (group && --group->awaiting == 0) {
      group->snapshot.clear();  // last member admitted; free the KV copy
      group->snapshot.shrink_to_fit();
    }
    slot.request = ticket;
    slot.live = true;
    c_joins.inc();
  }
}

void BatchedDecodeScheduler::run() {
  static obs::Counter& c_steps =
      obs::registry().counter("decode.batch.steps.total");
  static obs::Counter& c_tokens =
      obs::registry().counter("decode.batch.tokens.total");
  static obs::Gauge& g_occ = obs::registry().gauge("decode.batch.occupancy");
  // Cumulative occupancy distribution (the gauge above only holds the last
  // step): bucket upper bounds in sessions-per-step, so the fleet bench can
  // report how full batched steps actually ran, not just the peak.
  static obs::Histogram& h_occ = obs::registry().histogram(
      "decode.batch.occupancy.hist",
      std::vector<double>{1, 2, 4, 8, 16, 32, 64});
  while (finished_ < requests_.size()) {
    admit_pending();
    step_tokens_.clear();
    step_positions_.clear();
    step_caches_.clear();
    step_slots_.clear();
    step_overlays_.clear();
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      Slot& slot = slots_[s];
      if (!slot.live) continue;
      step_tokens_.push_back(slot.pending_token);
      step_positions_.push_back(static_cast<int>(slot.position));
      step_caches_.push_back(&slot.caches);
      step_slots_.push_back(s);
      step_overlays_.push_back(requests_[slot.request].overlay);
    }
    assert(!step_slots_.empty());
    const std::size_t occupancy = step_slots_.size();
    g_occ.set(static_cast<double>(occupancy));
    h_occ.record(static_cast<double>(occupancy));
    if (occupancy > peak_occupancy_) peak_occupancy_ = occupancy;
    {
      ODLP_TRACE_SCOPE("batch_decode.step");
      const tensor::Tensor& logits = model_.forward_incremental_batch(
          step_tokens_, step_positions_, step_caches_,
          any_overlay_ ? step_overlays_.data() : nullptr);
      ++steps_;
      c_steps.inc();
      c_tokens.inc(occupancy);
      // The logits reference dies at the next forward, so every lane must
      // consume its row before the next step.
      for (std::size_t r = 0; r < step_slots_.size(); ++r) {
        advance(slots_[step_slots_[r]], logits.row(r), logits.cols());
      }
    }
  }
}

void BatchedDecodeScheduler::advance(Slot& slot, const float* logits,
                                     std::size_t vocab) {
  Request& req = requests_[slot.request];
  ++slot.position;  // pending_token was just fed
  if (slot.prompt_cursor < req.prompt.size()) {
    ++slot.prompt_cursor;
    if (slot.prompt_cursor < req.prompt.size()) {
      if (req.leader && slot.prompt_cursor + 1 == req.prompt.size()) {
        // Fork point: every prompt token but the last is in the KV. The
        // snapshot is taken BEFORE the last token is fed so each group
        // member computes its own final-prompt-token logits.
        PrefixGroup& group = groups_[req.group];
        group.snapshot.assign(slot.caches.size(), nn::KvCache(0, 0));
        for (std::size_t l = 0; l < slot.caches.size(); ++l) {
          group.snapshot[l].assign_prefix(slot.caches[l]);
        }
        group.fed = slot.position;
        group.ready = true;
      }
      // Still priming: these logits are discarded, exactly as
      // DecodeSession::prime keeps only the last prompt token's logits.
      slot.pending_token = req.prompt[slot.prompt_cursor];
      return;
    }
    // The last prompt token was just fed — fall through and treat these
    // logits as the generation loop's entry point.
  }
  // One iteration of the generation loop: length bound, full-session
  // check, sample, <eos> check, emit, re-check.
  if (req.generated.size() >= req.config.max_new_tokens) {
    finish(slot);
    return;
  }
  if (slot.position >= model_.config().max_seq_len) {
    finish(slot);
    return;
  }
  const int next = sample_from_logits(logits, vocab, req.config, req.rng);
  if (next == text::Vocab::kEos) {
    finish(slot);
    return;
  }
  req.generated.push_back(next);
  if (req.generated.size() >= req.config.max_new_tokens) {
    finish(slot);
    return;
  }
  slot.pending_token = next;
}

void BatchedDecodeScheduler::finish(Slot& slot) {
  static obs::Counter& c_leaves =
      obs::registry().counter("decode.batch.leaves.total");
  requests_[slot.request].done = true;
  slot.live = false;
  ++finished_;
  c_leaves.inc();
}

const std::vector<int>& BatchedDecodeScheduler::result(
    std::size_t ticket) const {
  assert(ticket < requests_.size() && requests_[ticket].done);
  return requests_[ticket].generated;
}

const util::Rng& BatchedDecodeScheduler::rng(std::size_t ticket) const {
  assert(ticket < requests_.size() && requests_[ticket].done);
  return requests_[ticket].rng;
}

}  // namespace odlp::llm
