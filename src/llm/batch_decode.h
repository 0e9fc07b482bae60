// Continuous-batched KV-cached generation (DESIGN.md §12).
//
// One scheduler drives many independent generation requests through shared
// batched forward steps: every live session contributes one token per step
// (the projections and FFN run as m = occupancy GEMMs), and sessions join
// and leave between steps as prompts finish priming or hit <eos> / length
// limits — no padding, no waiting for stragglers. This is the only decode
// loop: Sampler::generate_ids is a width-1 run. Outputs are bit-identical
// at every width and to a serial DecodeSession loop: row b of the batched
// forward is bit-exact with the single-session incremental path (see
// MultiHeadSelfAttention::forward_incremental_batch_ws) and each request
// samples from its own rng stream, so results never depend on what else
// happens to share the batch.
#pragma once

#include <cstddef>
#include <vector>

#include "llm/minillm.h"
#include "llm/sampler.h"
#include "nn/kv_cache.h"
#include "util/rng.h"

namespace odlp::llm {

class BatchedDecodeScheduler {
 public:
  // Up to `max_batch` (>= 1) sessions decode per step. Each slot lazily
  // allocates one KvCache per transformer block, sized [max_seq_len, dim];
  // the storage is reused across the requests that pass through the slot.
  BatchedDecodeScheduler(MiniLlm& model, std::size_t max_batch);

  // Enqueues one generation request and returns its ticket. `rng` is taken
  // by value: the request owns an independent sampling stream. Prompts
  // longer than max_seq_len are truncated to it; an empty prompt finishes
  // immediately with an empty result. Requests are admitted to free slots
  // in submission (FIFO) order.
  std::size_t submit(std::vector<int> prompt_ids, const SamplerConfig& config,
                     util::Rng rng);

  // Cross-tenant variant: `overlay` (borrowed; must outlive run()) carries
  // one user's LoRA snapshot, applied to this request's rows only — the
  // model must be an adapter-free shared base (see
  // MiniLlm::forward_incremental_batch). nullptr decodes on the bare base.
  // Requests with different overlays freely share batched steps; each row
  // stays bit-identical to a serial decode on that user's adapted model.
  std::size_t submit(std::vector<int> prompt_ids, const SamplerConfig& config,
                     util::Rng rng, const nn::LoraOverlaySet* overlay);

  // Shared-prefix group: rngs.size() requests with the SAME prompt, sampler
  // config, and overlay — the shape of evaluation sampling repeats. The
  // prompt prefix (all but its last token) is primed once by the group's
  // first request; the others fork that KV snapshot and feed only the last
  // prompt token themselves (so each samples from its own logits row).
  // Bit-exact with submitting each request separately: the forked KV bytes
  // are precisely what re-priming would recompute, and every request still
  // owns its rng stream. Tickets are returned in `rngs` order. Followers
  // wait in the queue until the snapshot exists; other requests are
  // admitted past them, so slots never idle on an unprimed prefix.
  std::vector<std::size_t> submit_shared_prefix(
      std::vector<int> prompt_ids, const SamplerConfig& config,
      const std::vector<util::Rng>& rngs, const nn::LoraOverlaySet* overlay);

  // Runs batched steps until every submitted request has finished.
  void run();

  // Generated ids (without the prompt, without <eos>) of a finished ticket.
  const std::vector<int>& result(std::size_t ticket) const;

  // A finished ticket's sampling stream, advanced past every draw it made
  // (Sampler continues its stream from here).
  const util::Rng& rng(std::size_t ticket) const;

  bool finished() const { return finished_ == requests_.size(); }

  // Number of batched forward steps executed so far.
  std::size_t steps() const { return steps_; }

  // Largest number of sessions that shared one forward step so far. The
  // engine reports this to the devicesim memory ledger as its live KV
  // session count.
  std::size_t peak_occupancy() const { return peak_occupancy_; }

  std::size_t max_batch() const { return slots_.size(); }

 private:
  static constexpr std::size_t kNoGroup = static_cast<std::size_t>(-1);

  struct Request {
    std::vector<int> prompt;  // already truncated to max_seq_len
    SamplerConfig config;
    util::Rng rng;
    const nn::LoraOverlaySet* overlay = nullptr;  // borrowed, may be null
    std::size_t group = kNoGroup;  // shared-prefix group index
    bool leader = false;           // primes the group's prefix
    std::vector<int> generated;
    bool done = false;
  };

  // One shared prompt prefix: the leader's KV after feeding all prompt
  // tokens but the last, its `fed` rows copied at the fork point (and into
  // each follower's slot) and freed once every member has been admitted.
  struct PrefixGroup {
    std::vector<nn::KvCache> snapshot;
    std::size_t fed = 0;  // tokens in the snapshot (= prompt size - 1)
    bool ready = false;
    std::size_t awaiting = 0;  // members not yet admitted
  };

  // One decode lane. `position` counts tokens fed so far (== every cache's
  // len); `prompt_cursor` counts prompt tokens fed, so the lane is priming
  // while prompt_cursor < prompt.size() and logits are discarded until the
  // last prompt token has been fed.
  struct Slot {
    std::vector<nn::KvCache> caches;  // one per transformer block
    std::size_t request = 0;
    std::size_t position = 0;
    std::size_t prompt_cursor = 0;
    int pending_token = 0;  // token this lane feeds on the next step
    bool live = false;
  };

  bool admissible(std::size_t ticket) const;
  void admit_pending();
  // Consumes this step's logits row for `slot` (fed token already counted):
  // one iteration of the generation loop.
  void advance(Slot& slot, const float* logits, std::size_t vocab);
  void finish(Slot& slot);

  MiniLlm& model_;
  std::vector<Slot> slots_;
  std::vector<Request> requests_;
  std::vector<PrefixGroup> groups_;
  std::vector<std::size_t> queue_;  // tickets awaiting a slot
  std::size_t queue_head_ = 0;
  std::size_t finished_ = 0;
  std::size_t steps_ = 0;
  std::size_t peak_occupancy_ = 0;

  // Per-step scratch, member-owned so steady-state steps don't allocate.
  std::vector<int> step_tokens_;
  std::vector<int> step_positions_;
  std::vector<std::vector<nn::KvCache>*> step_caches_;
  std::vector<std::size_t> step_slots_;
  std::vector<const nn::LoraOverlaySet*> step_overlays_;
  bool any_overlay_ = false;  // skip the overlay arg entirely when unused
};

}  // namespace odlp::llm
