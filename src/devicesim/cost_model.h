// Analytic compute cost model for the edge device (DESIGN.md §2).
//
// Models fine-tuning and inference cost in FLOPs and converts to modeled
// seconds at a configurable sustained throughput. Defaults approximate the
// paper's A10 (150 W, single slot) running a small on-device LLM; the
// absolute numbers are not the reproduction target — the *shape* (training
// time per epoch linear in the number of synthesized sets, Fig. 3) is.
#pragma once

#include <cstddef>

#include "llm/minillm.h"

namespace odlp::devicesim {

struct DeviceSpec {
  double sustained_flops = 8.0e12;  // ~A10 fp16 with realistic utilization
  double watts = 150.0;             // paper's A10 power envelope

  double seconds_for_flops(double flops) const { return flops / sustained_flops; }
  double joules_for_flops(double flops) const {
    return seconds_for_flops(flops) * watts;
  }
};

struct TrainingCost {
  double flops = 0.0;
  double modeled_seconds = 0.0;
  double modeled_joules = 0.0;
};

// Cost of `epochs` passes over `num_sequences` training sequences of mean
// length `mean_seq_len`. Backward ≈ 2x forward FLOPs (3x total).
TrainingCost finetune_cost(const llm::ModelConfig& model, std::size_t num_sequences,
                           double mean_seq_len, std::size_t epochs,
                           const DeviceSpec& device = DeviceSpec{});

}  // namespace odlp::devicesim
