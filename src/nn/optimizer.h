// AdamW over a ParameterList: the paper's fine-tuning optimizer.
#pragma once

#include <unordered_map>
#include <vector>

#include "nn/param.h"
#include "tensor/tensor.h"

namespace odlp::nn {

// AdamW (decoupled weight decay), Loshchilov & Hutter 2019.
class AdamW {
 public:
  struct Config {
    float lr = 3e-4f;          // paper default learning rate
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    float weight_decay = 0.01f;
  };

  explicit AdamW(const Config& config);
  // Applies one update using the gradients currently stored in the
  // parameters; does not zero them (caller's responsibility).
  void step(const ParameterList& params);
  void set_learning_rate(float lr) { config_.lr = lr; }
  float learning_rate() const { return config_.lr; }

  long long step_count() const { return t_; }

  struct State {
    tensor::Tensor m;
    tensor::Tensor v;
  };

  // Snapshot / restore of the Adam moments for parameter hot-swap (the fleet
  // AdapterCache carries optimizer state with each user's adapters, so a
  // user resumed on a different worker model continues bit-identically).
  // export_state returns one entry per `params` element, in order; entries
  // for parameters the optimizer has never stepped hold empty tensors.
  // import_state rebinds those entries to `params` (same order) and replaces
  // the step counter; empty entries clear any existing moment so the next
  // step re-initializes it to zero exactly like a fresh optimizer.
  std::vector<State> export_state(const ParameterList& params) const;
  void import_state(const ParameterList& params, std::vector<State> states,
                    long long step_count);

 private:
  Config config_;
  long long t_ = 0;
  std::unordered_map<const Parameter*, State> state_;
};

}  // namespace odlp::nn
