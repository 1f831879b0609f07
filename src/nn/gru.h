// Gated Recurrent Unit (Keras semantics) with full back-propagation
// through time.
//
//   z_t = hard_sigmoid(x_t·Wz + h_{t-1}·Uz + bz)
//   r_t = hard_sigmoid(x_t·Wr + h_{t-1}·Ur + br)
//   h~_t = tanh(x_t·Wh + (r_t ⊙ h_{t-1})·Uh + bh)
//   h_t = z_t ⊙ h_{t-1} + (1 - z_t) ⊙ h~_t
//
// Matches the paper's block: tanh output activation, hard-sigmoid
// recurrent activation. Input (N, L, C_in); output (N, L, H) when
// return_sequences, else (N, H) (last step).
#pragma once

#include "nn/layer.h"

namespace pelican::nn {

class Gru final : public Layer {
 public:
  Gru(std::int64_t input_size, std::int64_t units, Rng& rng,
      bool return_sequences = true);

  Tensor TrainForward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;
  Tensor Score(const Tensor& x, InferenceContext& ctx) const override;
  std::vector<ParamRef> Params() override;
  [[nodiscard]] std::string Name() const override { return "GRU"; }
  [[nodiscard]] int ParameterLayerCount() const override { return 1; }
  void SetQuantMode(quant::Mode mode) override;
  void CollectQuantOps(std::vector<quant::LinearQuant*>& ops) override;

  [[nodiscard]] std::int64_t units() const { return units_; }
  [[nodiscard]] bool return_sequences() const { return return_sequences_; }

 private:
  // Rebuilds the fused panels below from the per-gate master weights
  // (which the optimizer updates between steps), allocating them on
  // first use.
  void RefreshFusedPanels();

  std::int64_t input_size_;
  std::int64_t units_;
  bool return_sequences_;

  // Input kernels (C_in, H), recurrent kernels (H, H), biases (H).
  Tensor wz_, wr_, wh_;
  Tensor uz_, ur_, uh_;
  Tensor bz_, br_, bh_;
  Tensor dwz_, dwr_, dwh_;
  Tensor duz_, dur_, duh_;
  Tensor dbz_, dbr_, dbh_;

  // Fused copies for TrainForward/Backward: all three input projections
  // (and the z/r recurrent ones) run as one wide GEMM per step instead
  // of three skinny ones. The per-gate tensors above stay the masters
  // so Params(), model I/O and checkpoints are unchanged; Score reads
  // the masters directly and never touches these, so a model that is
  // only scored (or frozen to int8 from a sidecar) never allocates
  // them.
  Tensor w_zrh_;  // (C_in, 3H) = [Wz | Wr | Wh]
  Tensor u_zr_;   // (H, 2H)   = [Uz | Ur]
  Tensor b_zrh_;  // (3H)      = [bz | br | bh]

  // Training-pass caches.
  Tensor x_;                    // (N, L, C_in) input, for backward GEMMs
  std::vector<Tensor> hs_;      // (N, H), hs_[0] is the initial state
  std::vector<Tensor> zs_, rs_, hcands_, rhs_;  // one entry per step

  quant::Mode quant_mode_ = quant::Mode::kOff;
  // int8 view of the fused input-projection panel [Wz|Wr|Wh]. The
  // recurrent per-step GEMMs stay fp32: they are skinny (N×H·H) and
  // their operand h_t is produced fresh each step, so quantizing them
  // buys little and compounds error across time.
  quant::LinearQuant qop_;
};

}  // namespace pelican::nn
