// Key/value cache for incremental (token-at-a-time) causal attention.
//
// Full-sequence recompute makes generation O(T²) forward passes; with a KV
// cache each new token costs one O(T) attention step. On the target edge
// devices this is the difference between interactive and sluggish response
// latency, so the cache is a first-class part of the inference path.
#pragma once

#include <algorithm>
#include <cassert>

#include "tensor/tensor.h"

namespace odlp::nn {

// Per-attention-layer cache: rows 0..len-1 of `k` / `v` hold the projected
// keys/values of already-processed positions (pre-head-split, [T, dim]).
struct KvCache {
  KvCache(std::size_t max_len, std::size_t dim)
      : k(max_len, dim), v(max_len, dim) {}

  tensor::Tensor k;
  tensor::Tensor v;
  std::size_t len = 0;

  std::size_t capacity() const { return k.rows(); }
  bool full() const { return len >= capacity(); }
  void reset() { len = 0; }

  // Copies rows [0, src.len) of `src` — all that a reader of src sees —
  // and takes its len, growing the capacity to src.len if it is smaller.
  // Rows at or past len keep whatever they held; nothing reads them.
  void assign_prefix(const KvCache& src) {
    assert(src.k.cols() == k.cols() || capacity() == 0);
    if (capacity() < src.len) {
      k.resize_uninitialized(src.len, src.k.cols());
      v.resize_uninitialized(src.len, src.v.cols());
    }
    const std::size_t n = src.len * src.k.cols();
    std::copy(src.k.data(), src.k.data() + n, k.data());
    std::copy(src.v.data(), src.v.data() + n, v.data());
    len = src.len;
  }
};

}  // namespace odlp::nn
