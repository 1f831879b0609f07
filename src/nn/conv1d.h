// 1-D convolution over sequences, stride 1, 'same' padding (Keras
// semantics: total pad = K-1, split floor((K-1)/2) left / rest right).
//
//   x (N, L, C_in) → y (N, L, F)
//   weight (K, C_in, F), bias (F)
//
// The paper's blocks apply Conv1D with kernel size 10 followed by ReLU;
// the activation is a separate ActivationLayer so the residual block can
// place the final ReLU after the shortcut add.
#pragma once

#include "nn/initializers.h"
#include "nn/layer.h"

namespace pelican::nn {

class Conv1D final : public Layer {
 public:
  Conv1D(std::int64_t in_channels, std::int64_t filters,
         std::int64_t kernel_size, Init init);

  Tensor TrainForward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;
  Tensor Score(const Tensor& x, InferenceContext& ctx) const override;
  std::vector<ParamRef> Params() override;
  [[nodiscard]] std::string Name() const override { return "Conv1D"; }
  [[nodiscard]] int ParameterLayerCount() const override { return 1; }
  void SetQuantMode(quant::Mode mode) override;
  void CollectQuantOps(std::vector<quant::LinearQuant*>& ops) override;

  [[nodiscard]] std::int64_t in_channels() const { return in_channels_; }
  [[nodiscard]] std::int64_t filters() const { return filters_; }
  [[nodiscard]] std::int64_t kernel_size() const { return kernel_; }

 private:
  std::int64_t in_channels_;
  std::int64_t filters_;
  std::int64_t kernel_;
  std::int64_t pad_left_;
  Tensor w_;   // (K, C_in, F)
  Tensor b_;   // (F)
  Tensor dw_;  // gradients: empty until trained (AllocateGrads)
  Tensor db_;
  // The rows of dw_ Backward has written: the taps valid at the
  // lengths seen since the last ZeroGrad (the others only ever met
  // padding zeros, so their gradient stays +0).
  GradWritten dw_written_;
  Tensor x_;   // cached input
  quant::Mode quant_mode_ = quant::Mode::kOff;
  // int8 view of the full (K·C_in, F) weight matrix; the valid-tap
  // sub-range used by a given sequence length is a row block of it,
  // addressable because scales are per output column.
  quant::LinearQuant qop_;
};

}  // namespace pelican::nn
