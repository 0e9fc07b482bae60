#include "nn/block.h"

#include "tensor/ops.h"

namespace odlp::nn {

TransformerBlock::TransformerBlock(std::string name, std::size_t dim,
                                   std::size_t heads, std::size_t ff_hidden,
                                   util::Rng& rng, Norm::Kind norm_kind)
    : ln1_(norm_kind, name + ".ln1", dim),
      ln2_(norm_kind, name + ".ln2", dim),
      attn_(name + ".attn", dim, heads, rng),
      ff_(name + ".ff", dim, ff_hidden, rng) {}

tensor::Tensor& TransformerBlock::forward_ws(const tensor::Tensor& x,
                                             bool training,
                                             tensor::Workspace& ws) {
  tensor::Tensor& a =
      attn_.forward_ws(ln1_.forward_ws(x, training, ws), training, ws);
  tensor::Tensor& h = ws.acquire(x.rows(), x.cols());
  tensor::add_into(x, a, h);
  tensor::Tensor& f =
      ff_.forward_ws(ln2_.forward_ws(h, training, ws), training, ws);
  tensor::Tensor& out = ws.acquire(x.rows(), x.cols());
  tensor::add_into(h, f, out);
  return out;
}

tensor::Tensor TransformerBlock::forward(const tensor::Tensor& x, bool training) {
  return forward_ws(x, training, tensor::Workspace::enter(nullptr));
}

tensor::Tensor& TransformerBlock::forward_incremental_batch_ws(
    const tensor::Tensor& x, KvCache* const* caches, std::size_t n,
    tensor::Workspace& ws, const LoraOverlaySet* const* overlays,
    std::size_t site_base) {
  tensor::Tensor& a = attn_.forward_incremental_batch_ws(
      ln1_.forward_ws(x, /*training=*/false, ws), caches, n, ws, overlays,
      site_base);
  tensor::Tensor& h = ws.acquire(x.rows(), x.cols());
  tensor::add_into(x, a, h);
  tensor::Tensor& f =
      ff_.forward_ws(ln2_.forward_ws(h, /*training=*/false, ws),
                     /*training=*/false, ws);
  tensor::Tensor& out = ws.acquire(x.rows(), x.cols());
  tensor::add_into(h, f, out);
  return out;
}

tensor::Tensor& TransformerBlock::ff_backward_ws(const tensor::Tensor& dout,
                                                 tensor::Workspace& ws) {
  tensor::Tensor& dh = ws.acquire(dout.rows(), dout.cols());
  tensor::add_into(dout, ln2_.backward_ws(ff_.backward_ws(dout, ws), ws), dh);
  return dh;
}

tensor::Tensor& TransformerBlock::backward_ws(const tensor::Tensor& dout,
                                              tensor::Workspace& ws) {
  const tensor::Tensor& dh = ff_backward_ws(dout, ws);
  // h = x + attn(ln1(x))
  tensor::Tensor& dx = ws.acquire(dout.rows(), dout.cols());
  tensor::add_into(dh, ln1_.backward_ws(attn_.backward_ws(dh, ws), ws), dx);
  return dx;
}

void TransformerBlock::backward_params_ws(const tensor::Tensor& dout,
                                          tensor::Workspace& ws) {
  const tensor::Tensor& dh = ff_backward_ws(dout, ws);
  if (ln1_.frozen()) {
    attn_.backward_params_ws(dh, ws);
  } else {
    ln1_.backward_ws(attn_.backward_ws(dh, ws), ws);
  }
}

tensor::Tensor TransformerBlock::backward(const tensor::Tensor& dout) {
  return backward_ws(dout, tensor::Workspace::enter(nullptr));
}

void TransformerBlock::attach_lora(const LoraConfig& config, util::Rng& rng) {
  attn_.attach_lora(config, rng);
}

void TransformerBlock::merge_lora() { attn_.merge_lora(); }

void TransformerBlock::collect_parameters(ParameterList& out) {
  ln1_.collect_parameters(out);
  attn_.collect_parameters(out);
  ln2_.collect_parameters(out);
  ff_.collect_parameters(out);
}

void TransformerBlock::collect_linears(std::vector<Linear*>& out) {
  attn_.collect_linears(out);
  ff_.collect_linears(out);
}

}  // namespace odlp::nn
