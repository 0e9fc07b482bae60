// One user's hot-swappable fine-tuning state: the LoRA adapter values for
// every q/k/v/o site plus the AdamW moments and step counter that continue
// their training. This is everything the optimizer math reads or writes
// across fine-tune rounds, so installing a state into any worker engine and
// extracting it afterwards is bit-identical to having trained on a
// dedicated engine throughout (the per-site dropout rngs travel separately,
// inside fleet::UserSession — they are live generator state, not tensors).
//
// AdapterState is also what the AdapterCache spills to disk under memory
// pressure: serialize()/deserialize() round-trip the exact fp32 bytes with
// the repo's standard CRC-32 footer, so an evicted-and-reloaded user
// resumes exactly where a never-evicted one would.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "llm/minillm.h"
#include "llm/trainer.h"
#include "nn/optimizer.h"

namespace odlp::fleet {

struct AdapterState {
  // Per lora_linears() site, in order: adapter values and Adam moments.
  struct Site {
    tensor::Tensor a;    // [in, r]
    tensor::Tensor b;    // [r, out]
    tensor::Tensor m_a;  // Adam first moment of a (empty until first step)
    tensor::Tensor v_a;
    tensor::Tensor m_b;
    tensor::Tensor v_b;
  };
  std::vector<Site> sites;
  long long opt_step_count = 0;

  std::size_t bytes() const;
};

// Reads the current adapter values + optimizer moments out of a worker
// model/trainer pair (the model must have LoRA attached).
AdapterState extract_adapter_state(llm::MiniLlm& model, llm::Trainer& trainer);

// Installs `state` into the worker: overwrites the adapter values in place
// and rebinds the optimizer moments to this model's parameters.
void install_adapter_state(const AdapterState& state, llm::MiniLlm& model,
                           llm::Trainer& trainer);

// CRC-framed binary round-trip (AtomicFileWriter spill file / whole-file
// image). deserialize throws util::CorruptionError on a damaged file.
void save_adapter_state(const AdapterState& state, const std::string& path);
AdapterState load_adapter_state(const std::string& path);

}  // namespace odlp::fleet
