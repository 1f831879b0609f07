// Long Short-Term Memory layer (Keras semantics) with full BPTT.
//
//   i = hard_sigmoid(x·Wi + h·Ui + bi)      input gate
//   f = hard_sigmoid(x·Wf + h·Uf + bf)      forget gate
//   g = tanh       (x·Wg + h·Ug + bg)       cell candidate
//   o = hard_sigmoid(x·Wo + h·Uo + bo)      output gate
//   c_t = f ⊙ c_{t-1} + i ⊙ g
//   h_t = o ⊙ tanh(c_t)
//
// Used by the LSTM and HAST-IDS baselines of Table V. Forget-gate bias
// initialized to 1 (Keras unit_forget_bias).
#pragma once

#include "nn/initializers.h"
#include "nn/layer.h"

namespace pelican::nn {

class Lstm final : public Layer {
 public:
  Lstm(std::int64_t input_size, std::int64_t units, Init init,
       bool return_sequences = true);

  Tensor TrainForward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;
  Tensor Score(const Tensor& x, InferenceContext& ctx) const override;
  std::vector<ParamRef> Params() override;
  [[nodiscard]] std::string Name() const override { return "LSTM"; }
  [[nodiscard]] int ParameterLayerCount() const override { return 1; }

  [[nodiscard]] std::int64_t units() const { return units_; }

 private:
  std::int64_t input_size_;
  std::int64_t units_;
  bool return_sequences_;

  Tensor wi_, wf_, wg_, wo_;   // (C_in, H)
  Tensor ui_, uf_, ug_, uo_;   // (H, H)
  Tensor bi_, bf_, bg_, bo_;   // (H)
  // Gradients: empty until trained (AllocateGrads).
  Tensor dwi_, dwf_, dwg_, dwo_;
  Tensor dui_, duf_, dug_, duo_;
  Tensor dbi_, dbf_, dbg_, dbo_;

  std::vector<Tensor> xs_;               // (N, C_in) per step
  std::vector<Tensor> hs_, cs_;          // states; index 0 = initial
  std::vector<Tensor> is_, fs_, gs_, os_, tanh_cs_;
};

}  // namespace pelican::nn
