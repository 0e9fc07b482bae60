#include "nn/loss.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "tensor/ops.h"
#include "tensor/workspace.h"
#include "util/thread_pool.h"

namespace odlp::nn {

void cross_entropy_into(const tensor::Tensor& logits,
                        const std::vector<int>& targets,
                        CrossEntropyResult& result, int ignore_index) {
  assert(logits.rows() == targets.size());
  result.loss = 0.0;
  result.count = 0;
  result.dlogits.resize_uninitialized(logits.rows(), logits.cols());

  // Softmax into a thread-local scratch slot — no per-call tensor.
  tensor::Workspace& sws = tensor::Workspace::enter(nullptr);
  tensor::Tensor& probs = sws.acquire(logits.rows(), logits.cols());
  tensor::softmax_rows_into(logits, probs);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    if (targets[t] == ignore_index) continue;
    ++result.count;
  }
  if (result.count == 0) {
    result.dlogits.zero();
    return;
  }
  const float inv_count = 1.0f / static_cast<float>(result.count);

  // Per-row NLL + gradient. dlogits rows are disjoint across chunks; the
  // scalar loss is an ordered fixed-grain reduction, so the value does not
  // depend on the lane count.
  auto row_loss = [&](std::size_t t0, std::size_t t1) {
    double loss = 0.0;
    for (std::size_t t = t0; t < t1; ++t) {
      const int y = targets[t];
      float* drow = result.dlogits.row(t);
      if (y == ignore_index) {
        // dlogits is uninitialized storage: masked rows must be written too.
        std::fill(drow, drow + logits.cols(), 0.0f);
        continue;
      }
      assert(y >= 0 && static_cast<std::size_t>(y) < logits.cols());
      const float p = probs.at(t, static_cast<std::size_t>(y));
      loss += -std::log(std::max(p, 1e-12f));
      // dL/dlogits = (softmax - onehot) / count
      const float* prow = probs.row(t);
      for (std::size_t j = 0; j < logits.cols(); ++j) drow[j] = prow[j] * inv_count;
      drow[static_cast<std::size_t>(y)] -= inv_count;
    }
    return loss;
  };
  if (logits.size() < tensor::kChunkedReduceMinElems) {
    result.loss = row_loss(0, targets.size());
  } else {
    result.loss = util::ThreadPool::global().reduce_ordered<double>(
        0, targets.size(), /*grain=*/0, 0.0, row_loss,
        [](const double& a, const double& b) { return a + b; },
        tensor::fans_out(logits.size() * tensor::kRowwiseFlopsPerElem));
  }
  result.loss /= static_cast<double>(result.count);
}

CrossEntropyResult cross_entropy(const tensor::Tensor& logits,
                                 const std::vector<int>& targets,
                                 int ignore_index) {
  CrossEntropyResult result;
  cross_entropy_into(logits, targets, result, ignore_index);
  return result;
}

double perplexity(double mean_nll) { return std::exp(mean_nll); }

}  // namespace odlp::nn
