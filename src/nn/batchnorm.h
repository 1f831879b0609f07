// Batch normalization over the channel/feature axis.
//
// Accepts (N, D) — per-feature statistics over the batch — or (N, L, C) —
// per-channel statistics over batch × time. Training uses batch
// statistics and maintains exponential running averages used at
// inference (Keras momentum convention: running = m·running + (1-m)·batch).
#pragma once

#include "nn/layer.h"

namespace pelican::nn {

class BatchNorm final : public Layer {
 public:
  explicit BatchNorm(std::int64_t channels, float momentum = 0.99F,
                     float epsilon = 1e-5F);

  Tensor TrainForward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;
  Tensor Score(const Tensor& x, InferenceContext& ctx) const override;
  std::vector<ParamRef> Params() override;
  std::vector<BufferRef> Buffers() override;
  [[nodiscard]] std::string Name() const override { return "BatchNorm"; }
  [[nodiscard]] int ParameterLayerCount() const override { return 1; }

  [[nodiscard]] std::int64_t channels() const { return channels_; }
  [[nodiscard]] float epsilon() const { return eps_; }
  [[nodiscard]] const Tensor& running_mean() const { return running_mean_; }
  [[nodiscard]] const Tensor& running_var() const { return running_var_; }

 private:
  std::int64_t channels_;
  float momentum_;
  float eps_;
  Tensor gamma_, beta_;
  Tensor dgamma_, dbeta_;  // empty until trained (AllocateGrads)
  Tensor running_mean_, running_var_;
  // Training-pass cache.
  Tensor xhat_;          // normalized input, same shape as x
  Tensor inv_std_;       // (C)
  Tensor::Shape in_shape_;
  std::int64_t rows_ = 0;  // N or N·L — reduction length per channel
};

}  // namespace pelican::nn
