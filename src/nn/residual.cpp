#include "nn/residual.h"

namespace pelican::nn {

ResidualWrap::ResidualWrap(LayerPtr pre, LayerPtr body, LayerPtr shortcut,
                           LayerPtr post)
    : pre_(std::move(pre)),
      body_(std::move(body)),
      shortcut_(std::move(shortcut)),
      post_(std::move(post)) {
  PELICAN_CHECK(body_ != nullptr, "residual body is required");
}

Tensor ResidualWrap::TrainForward(const Tensor& x) {
  Tensor u = pre_ ? pre_->TrainForward(x) : x;
  Tensor v = body_->TrainForward(u);
  Tensor s = shortcut_ ? shortcut_->TrainForward(u) : u;
  PELICAN_CHECK(v.SameShape(s),
                "residual add shape mismatch: body " + v.ShapeString() +
                    " vs shortcut " + s.ShapeString() +
                    " (use a projection shortcut)");
  v.Add(s);
  return post_ ? post_->TrainForward(v) : v;
}

// The body and an identity shortcut read the block input (or the pre
// layer's output) in place: no copy of it is made, and the sum is the
// same v += u as TrainForward's.
Tensor ResidualWrap::Score(const Tensor& x, InferenceContext& ctx) const {
  const Tensor pre_out = pre_ ? pre_->Score(x, ctx) : Tensor();
  const Tensor& u = pre_ ? pre_out : x;
  Tensor v = body_->Score(u, ctx);
  const Tensor shortcut_out = shortcut_ ? shortcut_->Score(u, ctx) : Tensor();
  const Tensor& s = shortcut_ ? shortcut_out : u;
  PELICAN_CHECK(v.SameShape(s),
                "residual add shape mismatch: body " + v.ShapeString() +
                    " vs shortcut " + s.ShapeString() +
                    " (use a projection shortcut)");
  v.Add(s);
  return post_ ? post_->Score(v, ctx) : v;
}

Tensor ResidualWrap::Backward(const Tensor& dy) {
  Tensor d = post_ ? post_->Backward(dy) : dy;
  // d flows into both the body and the shortcut.
  Tensor du = body_->Backward(d);
  Tensor ds = shortcut_ ? shortcut_->Backward(d) : d;
  du.Add(ds);
  return pre_ ? pre_->Backward(du) : du;
}

std::vector<ParamRef> ResidualWrap::Params() {
  std::vector<ParamRef> params;
  for (Layer* l : {pre_.get(), body_.get(), shortcut_.get(), post_.get()}) {
    if (l == nullptr) continue;
    auto ps = l->Params();
    params.insert(params.end(), ps.begin(), ps.end());
  }
  return params;
}

std::vector<BufferRef> ResidualWrap::Buffers() {
  std::vector<BufferRef> buffers;
  for (Layer* l : {pre_.get(), body_.get(), shortcut_.get(), post_.get()}) {
    if (l == nullptr) continue;
    auto bs = l->Buffers();
    buffers.insert(buffers.end(), bs.begin(), bs.end());
  }
  return buffers;
}

int ResidualWrap::ParameterLayerCount() const {
  int n = 0;
  for (const Layer* l :
       {pre_.get(), body_.get(), shortcut_.get(), post_.get()}) {
    if (l != nullptr) n += l->ParameterLayerCount();
  }
  return n;
}

void ResidualWrap::SetRng(Rng* rng) {
  for (Layer* l : {pre_.get(), body_.get(), shortcut_.get(), post_.get()}) {
    if (l != nullptr) l->SetRng(rng);
  }
}

void ResidualWrap::SetQuantMode(quant::Mode mode) {
  for (Layer* l : {pre_.get(), body_.get(), shortcut_.get(), post_.get()}) {
    if (l != nullptr) l->SetQuantMode(mode);
  }
}

void ResidualWrap::CollectQuantOps(std::vector<quant::LinearQuant*>& ops) {
  for (Layer* l : {pre_.get(), body_.get(), shortcut_.get(), post_.get()}) {
    if (l != nullptr) l->CollectQuantOps(ops);
  }
}

}  // namespace pelican::nn
