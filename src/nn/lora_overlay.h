// Per-request LoRA overlay for cross-tenant batched decode (DESIGN.md §13).
//
// The fleet scheduler funnels decode requests from *different users* through
// one BatchedDecodeScheduler over a shared base model that has no adapters
// attached. Each request carries a LoraOverlaySet — a snapshot of that
// user's adapter tensors — and every LoRA-site Linear applies the snapshot
// to that request's row of the batched forward:
//
//   y[b] += ((x[b] · A_b) · B_b) · scaling_b
//
// The rows that share one user's snapshot run as a group: one (g×in)·A,
// one (g×r)·B and one add_scaled per user per site. Both products are nn
// GEMMs, whose small (g < 4) and tiled (g >= 4) paths give every element
// the same ascending-k float sum with no FMA, so each row is the bytes of
// an m=1 product on that row alone, and add_scaled is the expression the
// attached-adapter path uses: row b is bit-identical to decoding on a
// model with user b's adapters attached (DESIGN.md §8, §13).
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.h"

namespace odlp::nn {

// One user's full adapter snapshot. `sites` is ordered exactly like
// llm::MiniLlm::lora_linears(): block-major, q/k/v/o within each block.
struct LoraOverlaySet {
  struct Site {
    tensor::Tensor a;  // [in, r]
    tensor::Tensor b;  // [r, out]
  };
  std::vector<Site> sites;
  float scaling = 0.0f;  // alpha / rank

  std::size_t bytes() const {
    std::size_t total = 0;
    for (const Site& s : sites) {
      total += (s.a.size() + s.b.size()) * sizeof(float);
    }
    return total;
  }
};

}  // namespace odlp::nn
