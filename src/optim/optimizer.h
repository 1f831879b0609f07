// Gradient-descent optimizers.
//
// An optimizer is attached to a model's ParamRefs once; Step() then
// applies one update from the accumulated gradients. Per-parameter state
// (RMSprop caches, momenta) is allocated at attach time and indexed in
// parameter order. Optional global-norm gradient clipping runs before
// the update (off by default; ablated — the paper's Plain-41 exploding
// gradients are part of the phenomenon under study).
//
// Step, ZeroGrad and the clipping sum touch only the gradient elements
// Backward wrote (ParamRef::written), plus the elements whose state is
// not +0. Everything else has a +0 gradient over +0 state, and a step
// there leaves weight and state with the same bytes whenever the
// optimizer's ZeroStepIsIdentity() holds. At the paper's L = 1 that is
// 81% of Residual-41's parameters (DESIGN.md §8).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace pelican::optim {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  // Binds the optimizer to a parameter set; resets all state.
  void Attach(std::vector<nn::ParamRef> params);

  // Applies one update from the currently-accumulated gradients.
  void Step();

  // Zeroes every attached gradient.
  void ZeroGrad();

  // Global-norm clipping threshold; <= 0 disables (default).
  void SetClipNorm(float max_norm) { clip_norm_ = max_norm; }

  [[nodiscard]] float learning_rate() const { return lr_; }
  void SetLearningRate(float lr) { lr_ = lr; }

  [[nodiscard]] virtual std::string Name() const = 0;

  // Checkpointing hooks: mutable views of the per-parameter state
  // tensors (RMSprop caches, momenta, …) in a stable order, plus any
  // integer scalar state (e.g. Adam's step count). core::Checkpointer
  // and the trainer's divergence guard snapshot/restore through these;
  // a stateless optimizer exposes nothing. The views may be written, so
  // the next Step rescans them for the elements that are not +0.
  [[nodiscard]] std::vector<Tensor*> StateTensors();
  [[nodiscard]] virtual std::vector<std::int64_t> ScalarState() const {
    return {};
  }
  virtual void SetScalarState(std::span<const std::int64_t> scalars) {
    (void)scalars;
  }

 protected:
  explicit Optimizer(float lr) : lr_(lr) {}

  // Per-parameter update of elements [begin, end); `i` indexes the
  // attached parameter list.
  virtual void UpdateParam(std::size_t i, Tensor& value, const Tensor& grad,
                           std::int64_t begin, std::int64_t end) = 0;
  // Allocates per-parameter state after Attach.
  virtual void InitState() {}
  // The state tensors: for each kind of state, one per parameter in
  // parameter order.
  [[nodiscard]] virtual std::vector<Tensor*> State() { return {}; }
  // Runs once at the start of every Step, before any UpdateParam.
  virtual void BeginStep() {}
  // Whether, at the current hyperparameters, one update with a +0
  // gradient over +0 state leaves every weight (−0 and NaN included)
  // and the state with the same bytes.
  [[nodiscard]] virtual bool ZeroStepIsIdentity() const = 0;

  [[nodiscard]] std::size_t ParamCount() const { return params_.size(); }
  [[nodiscard]] const Tensor& ParamValue(std::size_t i) const {
    return *params_[i].value;
  }

  float lr_;

 private:
  // Recomputes stepped_ from the state's bytes.
  void FindNonZeroState();

  std::vector<nn::ParamRef> params_;
  // Per parameter, a range holding every element whose state may not
  // be +0.
  std::vector<nn::GradWritten> stepped_;
  bool state_handed_out_ = false;  // StateTensors() since the last scan
  float clip_norm_ = 0.0F;
};

// Plain SGD with optional momentum.
class Sgd final : public Optimizer {
 public:
  explicit Sgd(float lr, float momentum = 0.0F);
  [[nodiscard]] std::string Name() const override { return "SGD"; }

 private:
  void UpdateParam(std::size_t i, Tensor& value, const Tensor& grad,
                   std::int64_t begin, std::int64_t end) override;
  void InitState() override;
  [[nodiscard]] std::vector<Tensor*> State() override;
  // Never with momentum: v = m·(+0) − lr·(+0) = +0 turns a −0 weight
  // into +0.
  [[nodiscard]] bool ZeroStepIsIdentity() const override;
  float momentum_;
  std::vector<Tensor> velocity_;
};

// RMSprop (Tieleman & Hinton) — the paper's training algorithm.
class RmsProp final : public Optimizer {
 public:
  explicit RmsProp(float lr = 0.001F, float rho = 0.9F, float eps = 1e-7F);
  [[nodiscard]] std::string Name() const override { return "RMSprop"; }

 private:
  void UpdateParam(std::size_t i, Tensor& value, const Tensor& grad,
                   std::int64_t begin, std::int64_t end) override;
  void InitState() override;
  [[nodiscard]] std::vector<Tensor*> State() override;
  [[nodiscard]] bool ZeroStepIsIdentity() const override;
  float rho_;
  float eps_;
  std::vector<Tensor> cache_;
};

// AdaDelta (Zeiler 2012) — mentioned in the paper's Section III.
class AdaDelta final : public Optimizer {
 public:
  explicit AdaDelta(float lr = 1.0F, float rho = 0.95F, float eps = 1e-6F);
  [[nodiscard]] std::string Name() const override { return "AdaDelta"; }

 private:
  void UpdateParam(std::size_t i, Tensor& value, const Tensor& grad,
                   std::int64_t begin, std::int64_t end) override;
  void InitState() override;
  [[nodiscard]] std::vector<Tensor*> State() override;
  [[nodiscard]] bool ZeroStepIsIdentity() const override;
  float rho_;
  float eps_;
  std::vector<Tensor> accum_grad_;
  std::vector<Tensor> accum_update_;
};

// Adam (Kingma & Ba) — provided for downstream users.
class Adam final : public Optimizer {
 public:
  explicit Adam(float lr = 0.001F, float beta1 = 0.9F, float beta2 = 0.999F,
                float eps = 1e-8F);
  [[nodiscard]] std::string Name() const override { return "Adam"; }
  [[nodiscard]] std::vector<std::int64_t> ScalarState() const override;
  void SetScalarState(std::span<const std::int64_t> scalars) override;

 private:
  void UpdateParam(std::size_t i, Tensor& value, const Tensor& grad,
                   std::int64_t begin, std::int64_t end) override;
  void InitState() override;
  [[nodiscard]] std::vector<Tensor*> State() override;
  void BeginStep() override { ++t_; }  // one time step per Step()
  [[nodiscard]] bool ZeroStepIsIdentity() const override;
  // The bias corrections 1 − β^t at the current step.
  [[nodiscard]] float BiasCorrection1() const;
  [[nodiscard]] float BiasCorrection2() const;
  float beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

std::unique_ptr<Optimizer> MakeOptimizer(const std::string& name, float lr);

}  // namespace pelican::optim
