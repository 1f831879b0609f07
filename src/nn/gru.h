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

#include "nn/initializers.h"
#include "nn/layer.h"

namespace pelican::nn {

// Whether a one-step (L = 1) call may skip the reset gate without
// changing a byte: with h₀ = 0 the gate only feeds r₁ ⊙ h₀, which is ±0
// when pre_r is finite (r₁ ∈ [0, 1]). These prove pre_r finite from
// the call's inputs; the training pass and Score run them on every
// call, so no bound can outlive a weight write (gru.cpp).
//   fp32: x (the call's `count` inputs), Wr and br are finite, and
//         max|x|·max|Wr|·C + max|br| < 2^100, C = Wr's rows;
//   int8: br and the dequantize scale act_scale·scale_j of every r
//         column (columns [H, 2H) of the fused [Wz|Wr|Wh] op) are
//         finite, and max(act_scale·scale_j)·127²·C + max|br| < 2^100.
bool ResetGateSkipIsExact(const float* x, std::int64_t count,
                          const Tensor& wr, const Tensor& br);
bool ResetGateSkipIsExact(const quant::LinearQuant& op, const Tensor& br);

class Gru final : public Layer {
 public:
  Gru(std::int64_t input_size, std::int64_t units, Init init,
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
  // [Uz|Ur], rebuilt from the per-gate masters (which the optimizer
  // updates between steps) on its first read in a training pass. At the
  // paper's L = 1 a fast pass never reads it, so it is neither built
  // nor refreshed there.
  const float* RecurrentPanel();
  // Score at L = 1 when ResetGateSkipIsExact holds (gru.cpp).
  Tensor ScoreWithoutResetGate(const Tensor& x, InferenceContext& ctx) const;
  // Backward's first step when the forward took the fast one (gru.cpp).
  bool FastFirstStepGates(const Tensor& dh, float* g) const;
  void ComputeSkippedResetGate();

  std::int64_t input_size_;
  std::int64_t units_;
  bool return_sequences_;

  // Input kernels (C_in, H), recurrent kernels (H, H), biases (H).
  Tensor wz_, wr_, wh_;
  Tensor uz_, ur_, uh_;
  Tensor bz_, br_, bh_;
  // Gradients: empty until trained (AllocateGrads).
  Tensor dwz_, dwr_, dwh_;
  Tensor duz_, dur_, duh_;
  Tensor dbz_, dbr_, dbh_;
  // Written ranges of the gradients the fast first step can leave
  // unwritten (each all or nothing).
  GradWritten wr_written_, br_written_;
  GradWritten uz_written_, ur_written_, uh_written_;

  // Fused copies for TrainForward/Backward: all three input projections
  // (and the z/r recurrent ones) run as one wide GEMM per step instead
  // of three skinny ones. The per-gate tensors above stay the masters
  // so Params(), model I/O and checkpoints are unchanged; Score reads
  // the masters directly and never touches these, so a model that is
  // only scored (or frozen to int8) never allocates them.
  Tensor w_zrh_;  // (C_in, 3H) = [Wz | Wr | Wh]
  Tensor u_zr_;   // (H, 2H)   = [Uz | Ur]
  Tensor b_zrh_;  // (1, 3H)   = [bz | br | bh]
  bool u_zr_current_ = false;  // u_zr_ built from this pass's masters

  // Training-pass caches.
  Tensor x_;                    // (N, L, C_in) input, for backward GEMMs
  std::vector<Tensor> hs_;      // (N, H), hs_[0] is the initial state
  std::vector<Tensor> zs_, rs_, hcands_, rhs_;  // one entry per step
  // Per training pass, chosen from its inputs (gru.cpp): whether the
  // t = 0 recurrent GEMMs were skipped (U finite, r₁ free of NaN), and
  // whether at L = 1 the reset gate was skipped with them (rs_[0] and
  // rhs_[0] are then empty). u_abs_max_ bounds |U| for Backward.
  bool first_step_fast_ = false;
  bool reset_gate_skipped_ = false;
  float u_abs_max_ = 0.0F;

  quant::Mode quant_mode_ = quant::Mode::kOff;
  // int8 view of the fused input-projection panel [Wz|Wr|Wh]. The
  // recurrent per-step GEMMs stay fp32: they are skinny (N×H·H) and
  // their operand h_t is produced fresh each step, so quantizing them
  // buys little and compounds error across time.
  quant::LinearQuant qop_;
};

}  // namespace pelican::nn
