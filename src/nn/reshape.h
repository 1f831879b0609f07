// Reshape layer: fixes the per-sample shape while preserving the batch
// axis. The paper inserts it after GRU to restore the (L, C) layout the
// residual add expects.
#pragma once

#include "nn/layer.h"

namespace pelican::nn {

class Reshape final : public Layer {
 public:
  // `per_sample_shape` excludes the leading batch dimension.
  explicit Reshape(Tensor::Shape per_sample_shape);

  Tensor TrainForward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;
  Tensor Score(const Tensor& x, InferenceContext& ctx) const override;
  [[nodiscard]] std::string Name() const override { return "Reshape"; }
  [[nodiscard]] const Tensor::Shape& target() const { return target_; }

 private:
  Tensor::Shape target_;
  Tensor::Shape in_shape_;
};

}  // namespace pelican::nn
