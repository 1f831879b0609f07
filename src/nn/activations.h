// Elementwise activation layers (shape-preserving, any rank).
//
// The paper's blocks use ReLU after convolution and after the residual
// add; GRU uses tanh + hard-sigmoid internally (implemented inside the
// GRU layer, but the scalar functions live here so both share one
// definition).
#pragma once

#include <cmath>

#include "nn/layer.h"

namespace pelican::nn {

// Scalar activation functions and their derivatives expressed in terms
// of the *output* y (cheaper to cache).
inline float ReluF(float x) { return x > 0.0F ? x : 0.0F; }
inline float ReluGradFromY(float y) { return y > 0.0F ? 1.0F : 0.0F; }

inline float SigmoidF(float x) { return 1.0F / (1.0F + std::exp(-x)); }
inline float SigmoidGradFromY(float y) { return y * (1.0F - y); }

inline float TanhF(float x) { return std::tanh(x); }
inline float TanhGradFromY(float y) { return 1.0F - y * y; }

// Keras hard_sigmoid: clip(0.2*x + 0.5, 0, 1).
inline float HardSigmoidF(float x) {
  const float y = 0.2F * x + 0.5F;
  return y < 0.0F ? 0.0F : (y > 1.0F ? 1.0F : y);
}
inline float HardSigmoidGradFromY(float y) {
  return (y > 0.0F && y < 1.0F) ? 0.2F : 0.0F;
}

enum class Activation { kRelu, kSigmoid, kTanh, kHardSigmoid };

inline float Apply(Activation a, float x) {
  switch (a) {
    case Activation::kRelu: return ReluF(x);
    case Activation::kSigmoid: return SigmoidF(x);
    case Activation::kTanh: return TanhF(x);
    case Activation::kHardSigmoid: return HardSigmoidF(x);
  }
  return x;
}

inline float GradFromY(Activation a, float y) {
  switch (a) {
    case Activation::kRelu: return ReluGradFromY(y);
    case Activation::kSigmoid: return SigmoidGradFromY(y);
    case Activation::kTanh: return TanhGradFromY(y);
    case Activation::kHardSigmoid: return HardSigmoidGradFromY(y);
  }
  return 1.0F;
}

// Generic elementwise activation layer.
class ActivationLayer final : public Layer {
 public:
  explicit ActivationLayer(Activation kind) : kind_(kind) {}

  Tensor TrainForward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;
  Tensor Score(const Tensor& x, InferenceContext& ctx) const override;
  [[nodiscard]] std::string Name() const override;

 private:
  Activation kind_;
  Tensor y_;  // cached output
};

inline LayerPtr Relu() {
  return std::make_unique<ActivationLayer>(Activation::kRelu);
}
inline LayerPtr Tanh() {
  return std::make_unique<ActivationLayer>(Activation::kTanh);
}
inline LayerPtr Sigmoid() {
  return std::make_unique<ActivationLayer>(Activation::kSigmoid);
}
inline LayerPtr HardSigmoid() {
  return std::make_unique<ActivationLayer>(Activation::kHardSigmoid);
}

}  // namespace pelican::nn
