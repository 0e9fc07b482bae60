// Token-level cross-entropy loss for language modeling.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace odlp::nn {

struct CrossEntropyResult {
  double loss = 0.0;           // mean NLL over supervised positions
  tensor::Tensor dlogits;      // gradient w.r.t. logits (already divided by count)
  std::size_t count = 0;       // number of supervised positions
};

// logits: [T, V]; targets: length-T token ids; positions with target
// `ignore_index` contribute neither loss nor gradient (used to mask the
// question part of a dialogue set so only the response is supervised).
CrossEntropyResult cross_entropy(const tensor::Tensor& logits,
                                 const std::vector<int>& targets,
                                 int ignore_index = -1);

// In-place spelling for hot loops: reuses `result.dlogits` storage across
// calls (reshaped, never reallocated at steady state) and resets
// loss/count. `logits` may be a workspace slot (e.g. from
// MiniLlm::forward_shared).
//
// `logits` may cover only rows [row0, row0 + logits.rows()) of the
// sequence (the LM head's span, llm::supervised_head_span); every target
// outside them must be `ignore_index`, and dlogits has the logits' rows.
// The loss sums in the same order as a full [targets.size(), V] call: one
// straight loop below kChunkedReduceMinElems full-sequence elements, else
// ordered 32-row chunks keyed on absolute position.
void cross_entropy_into(const tensor::Tensor& logits,
                        const std::vector<int>& targets,
                        CrossEntropyResult& result, int ignore_index = -1,
                        std::size_t row0 = 0);

// Perplexity from a mean NLL.
double perplexity(double mean_nll);

}  // namespace odlp::nn
