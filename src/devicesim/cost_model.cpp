#include "devicesim/cost_model.h"

namespace odlp::devicesim {

TrainingCost finetune_cost(const llm::ModelConfig& model, std::size_t num_sequences,
                           double mean_seq_len, std::size_t epochs,
                           const DeviceSpec& device) {
  TrainingCost cost;
  const double fwd = model.forward_flops(static_cast<std::size_t>(mean_seq_len));
  cost.flops = 3.0 * fwd * static_cast<double>(num_sequences) *
               static_cast<double>(epochs);
  cost.modeled_seconds = device.seconds_for_flops(cost.flops);
  cost.modeled_joules = device.joules_for_flops(cost.flops);
  return cost;
}

}  // namespace odlp::devicesim
