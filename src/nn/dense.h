// Fully-connected layer: y = x·W + b, x (N, D_in) → y (N, D_out).
#pragma once

#include "nn/initializers.h"
#include "nn/layer.h"

namespace pelican::nn {

class Dense final : public Layer {
 public:
  // Weights are Glorot-uniform, bias zero.
  Dense(std::int64_t in_features, std::int64_t out_features, Init init);

  Tensor TrainForward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;
  Tensor Score(const Tensor& x, InferenceContext& ctx) const override;
  std::vector<ParamRef> Params() override;
  [[nodiscard]] std::string Name() const override { return "Dense"; }
  [[nodiscard]] int ParameterLayerCount() const override { return 1; }
  void SetQuantMode(quant::Mode mode) override;
  void CollectQuantOps(std::vector<quant::LinearQuant*>& ops) override;

  [[nodiscard]] std::int64_t in_features() const { return in_; }
  [[nodiscard]] std::int64_t out_features() const { return out_; }

 private:
  std::int64_t in_;
  std::int64_t out_;
  Tensor w_;   // (D_in, D_out)
  Tensor b_;   // (D_out)
  Tensor dw_;  // gradients: empty until trained (AllocateGrads)
  Tensor db_;
  Tensor x_;   // cached input
  quant::Mode quant_mode_ = quant::Mode::kOff;
  quant::LinearQuant qop_;  // int8 view of w_ (bias stays fp32)
};

}  // namespace pelican::nn
