#include "nn/feedforward.h"

#include "tensor/ops.h"

namespace odlp::nn {

FeedForward::FeedForward(std::string name, std::size_t dim, std::size_t hidden,
                         util::Rng& rng)
    : fc_in_(name + ".fc_in", dim, hidden, rng),
      fc_out_(name + ".fc_out", hidden, dim, rng) {}

tensor::Tensor& FeedForward::forward_ws(const tensor::Tensor& x, bool training,
                                        tensor::Workspace& ws) {
  cached_pre_act_ = fc_in_.forward_ws(x, training, ws);
  tensor::Tensor& h = ws.acquire(cached_pre_act_.rows(), cached_pre_act_.cols());
  tensor::gelu_into(cached_pre_act_, h, cached_tanh_);
  return fc_out_.forward_ws(h, training, ws);
}

tensor::Tensor& FeedForward::backward_ws(const tensor::Tensor& dout,
                                         tensor::Workspace& ws) {
  tensor::Tensor& dh = fc_out_.backward_ws(dout, ws);
  tensor::Tensor& dpre = ws.acquire(dh.rows(), dh.cols());
  tensor::gelu_backward_into(cached_pre_act_, cached_tanh_, dh, dpre);
  return fc_in_.backward_ws(dpre, ws);
}

tensor::Tensor FeedForward::forward(const tensor::Tensor& x, bool training) {
  return forward_ws(x, training, tensor::Workspace::enter(nullptr));
}

tensor::Tensor FeedForward::backward(const tensor::Tensor& dout) {
  return backward_ws(dout, tensor::Workspace::enter(nullptr));
}

void FeedForward::collect_parameters(ParameterList& out) {
  fc_in_.collect_parameters(out);
  fc_out_.collect_parameters(out);
}

void FeedForward::collect_linears(std::vector<Linear*>& out) {
  out.push_back(&fc_in_);
  out.push_back(&fc_out_);
}

}  // namespace odlp::nn
