#include "nn/activations.h"

#include <cstdint>

namespace pelican::nn {

void ApplyMap(Activation a, const float* x, float* y, std::int64_t n) {
  // The kind is switched on once, outside the element loops, so each
  // loop is a plain map (at -O3, ReLU becomes a vector compare and mask
  // with no branch per element).
  const auto map = [&](auto f) {
    for (std::int64_t i = 0; i < n; ++i) y[i] = f(x[i]);
  };
  switch (a) {
    case Activation::kRelu:
      map([](float v) { return ReluF(v); });
      break;
    case Activation::kSigmoid:
      map([](float v) { return SigmoidF(v); });
      break;
    case Activation::kTanh:
      kernels::Tanh(x, y, n);
      break;
    case Activation::kHardSigmoid:
      map([](float v) { return HardSigmoidF(v); });
      break;
  }
}

Tensor ActivationLayer::TrainForward(const Tensor& x) {
  y_ = Score(x, InferenceContext::ThisThread());
  return y_;
}

Tensor ActivationLayer::Score(const Tensor& x,
                              InferenceContext& /*ctx*/) const {
  Tensor y(x.shape());
  ApplyMap(kind_, x.data().data(), y.data().data(), x.size());
  return y;
}

Tensor ActivationLayer::Backward(const Tensor& dy) {
  PELICAN_CHECK(dy.SameShape(y_), "activation backward shape mismatch");
  Tensor dx = dy;
  const float* yp = y_.data().data();
  float* dp = dx.data().data();
  const auto n = static_cast<std::size_t>(dx.size());
  const auto scale = [&](auto grad_from_y) {
    for (std::size_t i = 0; i < n; ++i) dp[i] *= grad_from_y(yp[i]);
  };
  switch (kind_) {
    case Activation::kRelu:
      scale([](float v) { return ReluGradFromY(v); });
      break;
    case Activation::kSigmoid:
      scale([](float v) { return SigmoidGradFromY(v); });
      break;
    case Activation::kTanh:
      scale([](float v) { return TanhGradFromY(v); });
      break;
    case Activation::kHardSigmoid:
      scale([](float v) { return HardSigmoidGradFromY(v); });
      break;
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
