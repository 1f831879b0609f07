#include "nn/activations.h"

namespace pelican::nn {

Tensor ActivationLayer::TrainForward(const Tensor& x) {
  y_ = Score(x, InferenceContext::ThisThread());
  return y_;
}

Tensor ActivationLayer::Score(const Tensor& x,
                              InferenceContext& /*ctx*/) const {
  Tensor y = x;
  for (auto& v : y.data()) v = Apply(kind_, v);
  return y;
}

Tensor ActivationLayer::Backward(const Tensor& dy) {
  PELICAN_CHECK(dy.SameShape(y_), "activation backward shape mismatch");
  Tensor dx = dy;
  auto ys = y_.data();
  auto ds = dx.data();
  for (std::size_t i = 0; i < ds.size(); ++i) {
    ds[i] *= GradFromY(kind_, ys[i]);
  }
  return dx;
}

std::string ActivationLayer::Name() const {
  switch (kind_) {
    case Activation::kRelu: return "ReLU";
    case Activation::kSigmoid: return "Sigmoid";
    case Activation::kTanh: return "Tanh";
    case Activation::kHardSigmoid: return "HardSigmoid";
  }
  return "Activation";
}

}  // namespace pelican::nn
