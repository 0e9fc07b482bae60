// DecodeSession: KV-cached autoregressive decoding over a MiniLlm.
//
// Where MiniLlm::forward recomputes the whole sequence each step (O(T²)
// per generated token), a DecodeSession feeds tokens once, caching each
// layer's keys/values, so a decode step is O(T). Logits are numerically
// equivalent to the last row of a full forward over the same prefix (up to
// float addition order) — asserted by tests/test_decode_session.cpp.
//
// Inference-only: stepping a session does not disturb gradients, but it
// reuses the model's module activations, so do not interleave with a
// training forward/backward pair.
#pragma once

#include <memory>
#include <vector>

#include "llm/minillm.h"
#include "nn/kv_cache.h"

namespace odlp::llm {

class DecodeSession {
 public:
  explicit DecodeSession(MiniLlm& model);

  // Feeds one token at the next position; returns its logits [1, vocab] as a
  // reference into the model's workspace — valid until the next step()/
  // forward on the same model (copy out to keep). Precondition: !full().
  const tensor::Tensor& step(int token);

  // Convenience: feeds all prompt tokens, returns the last token's logits
  // (same lifetime rules as step()). Precondition: prompt fits in the
  // remaining capacity and is non-empty.
  const tensor::Tensor& prime(const std::vector<int>& prompt);

  std::size_t length() const { return position_; }
  bool full() const { return position_ >= model_.config().max_seq_len; }
  void reset();

 private:
  MiniLlm& model_;
  std::size_t position_ = 0;
  std::vector<nn::KvCache> caches_;  // one per transformer block
};

}  // namespace odlp::llm
