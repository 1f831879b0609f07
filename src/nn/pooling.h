// Pooling layers over the time axis of (N, L, C) sequences.
//
// MaxPool1D uses Keras 'same'-style degradation for short inputs: when
// L < pool size the whole sequence forms one window, so the layer is a
// no-op shape-wise for the paper's L = 1 configuration. Otherwise the
// output length is floor(L / pool) and the trailing remainder is dropped
// (Keras 'valid' default).
#pragma once

#include "nn/layer.h"

namespace pelican::nn {

class MaxPool1D final : public Layer {
 public:
  explicit MaxPool1D(std::int64_t pool_size = 2);

  Tensor TrainForward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;
  Tensor Score(const Tensor& x, InferenceContext& ctx) const override;
  [[nodiscard]] std::string Name() const override { return "MaxPool1D"; }
  [[nodiscard]] std::int64_t pool_size() const { return pool_; }

  // Output length for a given input length under this layer's rules.
  [[nodiscard]] std::int64_t OutputLength(std::int64_t input_length) const;

 private:
  // The pooling loop of both passes; fills `argmax` (the flat source
  // index per output element) when non-null.
  Tensor Pool(const Tensor& x, std::vector<std::int64_t>* argmax) const;

  std::int64_t pool_;
  Tensor::Shape in_shape_;
  std::vector<std::int64_t> argmax_;  // from the last training pass
};

// Average pooling with the same length rules as MaxPool1D (ablation
// alternative for the block's pooling stage).
class AvgPool1D final : public Layer {
 public:
  explicit AvgPool1D(std::int64_t pool_size = 2);

  Tensor TrainForward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;
  Tensor Score(const Tensor& x, InferenceContext& ctx) const override;
  [[nodiscard]] std::string Name() const override { return "AvgPool1D"; }

  [[nodiscard]] std::int64_t OutputLength(std::int64_t input_length) const;

 private:
  std::int64_t pool_;
  Tensor::Shape in_shape_;
};

// Collapses the time axis by averaging: (N, L, C) → (N, C).
class GlobalAvgPool1D final : public Layer {
 public:
  Tensor TrainForward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;
  Tensor Score(const Tensor& x, InferenceContext& ctx) const override;
  [[nodiscard]] std::string Name() const override { return "GlobalAvgPool1D"; }

 private:
  Tensor::Shape in_shape_;
};

}  // namespace pelican::nn
