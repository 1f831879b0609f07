#include "optim/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/strings.h"

namespace pelican::optim {

namespace {
// lr·(+0) is +0, not −0 or NaN.
bool ScalesZeroToPositiveZero(float lr) {
  return std::isfinite(lr) && !std::signbit(lr);
}
}  // namespace

void Optimizer::Attach(std::vector<nn::ParamRef> params) {
  for (const auto& p : params) {
    PELICAN_CHECK(p.value != nullptr && p.grad != nullptr,
                  "null ParamRef passed to optimizer");
  }
  nn::AllocateGrads(params);
  for (const auto& p : params) {
    PELICAN_CHECK(p.value->SameShape(*p.grad),
                  "parameter/gradient shape mismatch for " + p.name);
  }
  params_ = std::move(params);
  InitState();
  stepped_.assign(params_.size(), nn::GradWritten{});
  state_handed_out_ = false;
}

void Optimizer::ZeroGrad() {
  for (const auto& p : params_) p.ZeroGrad();
}

std::vector<Tensor*> Optimizer::StateTensors() {
  state_handed_out_ = true;
  return State();
}

void Optimizer::FindNonZeroState() {
  const auto not_plus_zero = [](float x) {
    return std::bit_cast<std::uint32_t>(x) != 0;
  };
  const std::vector<Tensor*> state = State();
  std::fill(stepped_.begin(), stepped_.end(), nn::GradWritten{});
  for (std::size_t s = 0; s < state.size(); ++s) {
    const std::span<const float> v = state[s]->data();
    const auto first = std::find_if(v.begin(), v.end(), not_plus_zero);
    if (first == v.end()) continue;
    const auto last = std::find_if(v.rbegin(), v.rend(), not_plus_zero);
    stepped_[s % params_.size()].Add(first - v.begin(), v.rend() - last);
  }
  state_handed_out_ = false;
}

void Optimizer::Step() {
  PELICAN_CHECK(!params_.empty(), "optimizer not attached");
  BeginStep();
  if (state_handed_out_) FindNonZeroState();
  // Outside its written range a gradient is +0: it adds +0 to the
  // (never −0) sum, and scaling keeps it +0.
  if (clip_norm_ > 0.0F) {
    double sq = 0.0;
    for (const auto& p : params_) {
      const auto [b, e] = p.WrittenRange();
      const float* g = p.grad->data().data();
      for (std::int64_t j = b; j < e; ++j) {
        sq += static_cast<double>(g[j]) * g[j];
      }
    }
    const auto norm = static_cast<float>(std::sqrt(sq));
    if (norm > clip_norm_) {
      const float scale = clip_norm_ / norm;
      for (const auto& p : params_) {
        const auto [b, e] = p.WrittenRange();
        float* g = p.grad->data().data();
        for (std::int64_t j = b; j < e; ++j) g[j] *= scale;
      }
    }
  }
  const bool skip = ZeroStepIsIdentity();
  for (std::size_t i = 0; i < params_.size(); ++i) {
    nn::GradWritten& range = stepped_[i];
    if (skip) {
      const auto [b, e] = params_[i].WrittenRange();
      range.Add(b, e);
    } else {
      range = {0, params_[i].value->size()};
    }
    UpdateParam(i, *params_[i].value, *params_[i].grad, range.begin,
                range.end);
  }
}

// The update loops read hyperparameters from locals and index raw
// pointers: a store through a float* may alias a float member such as
// lr_, which would keep GCC from vectorizing them.

// ---- SGD --------------------------------------------------------------

Sgd::Sgd(float lr, float momentum) : Optimizer(lr), momentum_(momentum) {
  PELICAN_CHECK(momentum >= 0.0F && momentum < 1.0F);
}

void Sgd::InitState() {
  velocity_.clear();
  for (std::size_t i = 0; i < ParamCount(); ++i) {
    velocity_.emplace_back(ParamValue(i).shape());
  }
}

void Sgd::UpdateParam(std::size_t i, Tensor& value, const Tensor& grad,
                      std::int64_t begin, std::int64_t end) {
  float* w = value.data().data();
  const float* g = grad.data().data();
  if (momentum_ == 0.0F) {
    const float alpha = -lr_;
    for (std::int64_t j = begin; j < end; ++j) w[j] += alpha * g[j];
    return;
  }
  const float lr = lr_, momentum = momentum_;
  float* v = velocity_[i].data().data();
  for (std::int64_t j = begin; j < end; ++j) {
    v[j] = momentum * v[j] - lr * g[j];
    w[j] += v[j];
  }
}

// w + (−lr)·(+0) = w + (−0) = w.
bool Sgd::ZeroStepIsIdentity() const {
  return momentum_ == 0.0F && ScalesZeroToPositiveZero(lr_);
}

std::vector<Tensor*> Sgd::State() {
  std::vector<Tensor*> state;
  state.reserve(velocity_.size());
  for (auto& v : velocity_) state.push_back(&v);
  return state;
}

// ---- RMSprop ------------------------------------------------------------

RmsProp::RmsProp(float lr, float rho, float eps)
    : Optimizer(lr), rho_(rho), eps_(eps) {
  PELICAN_CHECK(rho > 0.0F && rho < 1.0F);
}

void RmsProp::InitState() {
  cache_.clear();
  for (std::size_t i = 0; i < ParamCount(); ++i) {
    cache_.emplace_back(ParamValue(i).shape());
  }
}

void RmsProp::UpdateParam(std::size_t i, Tensor& value, const Tensor& grad,
                          std::int64_t begin, std::int64_t end) {
  const float lr = lr_, rho = rho_, eps = eps_;
  float* w = value.data().data();
  const float* gp = grad.data().data();
  float* c = cache_[i].data().data();
  for (std::int64_t j = begin; j < end; ++j) {
    const float g = gp[j];
    c[j] = rho * c[j] + (1.0F - rho) * g * g;
    w[j] -= lr * g / (std::sqrt(c[j]) + eps);
  }
}

// c = ρ·(+0) + (1 − ρ)·(+0)·(+0) = +0 (ρ in (0, 1)), and
// w − (lr·(+0)) / (√(+0) + ε) = w − (+0) = w.
bool RmsProp::ZeroStepIsIdentity() const {
  return ScalesZeroToPositiveZero(lr_) && eps_ > 0.0F;
}

std::vector<Tensor*> RmsProp::State() {
  std::vector<Tensor*> state;
  state.reserve(cache_.size());
  for (auto& c : cache_) state.push_back(&c);
  return state;
}

// ---- AdaDelta -----------------------------------------------------------

AdaDelta::AdaDelta(float lr, float rho, float eps)
    : Optimizer(lr), rho_(rho), eps_(eps) {}

void AdaDelta::InitState() {
  accum_grad_.clear();
  accum_update_.clear();
  for (std::size_t i = 0; i < ParamCount(); ++i) {
    accum_grad_.emplace_back(ParamValue(i).shape());
    accum_update_.emplace_back(ParamValue(i).shape());
  }
}

void AdaDelta::UpdateParam(std::size_t i, Tensor& value, const Tensor& grad,
                           std::int64_t begin, std::int64_t end) {
  const float lr = lr_, rho = rho_, eps = eps_;
  float* w = value.data().data();
  const float* gp = grad.data().data();
  float* eg = accum_grad_[i].data().data();
  float* eu = accum_update_[i].data().data();
  for (std::int64_t j = begin; j < end; ++j) {
    const float g = gp[j];
    eg[j] = rho * eg[j] + (1.0F - rho) * g * g;
    const float update = -std::sqrt(eu[j] + eps) / std::sqrt(eg[j] + eps) * g;
    eu[j] = rho * eu[j] + (1.0F - rho) * update * update;
    w[j] += lr * update;
  }
}

// With finite ρ both accumulators stay +0; the update is
// −(√ε / √ε)·(+0) = −0, and w + lr·(−0) = w + (−0) = w.
bool AdaDelta::ZeroStepIsIdentity() const {
  return ScalesZeroToPositiveZero(lr_) && std::isfinite(rho_) &&
         eps_ > 0.0F && std::isfinite(eps_);
}

std::vector<Tensor*> AdaDelta::State() {
  std::vector<Tensor*> state;
  state.reserve(accum_grad_.size() + accum_update_.size());
  for (auto& t : accum_grad_) state.push_back(&t);
  for (auto& t : accum_update_) state.push_back(&t);
  return state;
}

// ---- Adam ---------------------------------------------------------------

Adam::Adam(float lr, float beta1, float beta2, float eps)
    : Optimizer(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

void Adam::InitState() {
  m_.clear();
  v_.clear();
  t_ = 0;
  for (std::size_t i = 0; i < ParamCount(); ++i) {
    m_.emplace_back(ParamValue(i).shape());
    v_.emplace_back(ParamValue(i).shape());
  }
}

float Adam::BiasCorrection1() const {
  return 1.0F - std::pow(beta1_, static_cast<float>(t_));
}

float Adam::BiasCorrection2() const {
  return 1.0F - std::pow(beta2_, static_cast<float>(t_));
}

void Adam::UpdateParam(std::size_t i, Tensor& value, const Tensor& grad,
                       std::int64_t begin, std::int64_t end) {
  const float lr = lr_, beta1 = beta1_, beta2 = beta2_, eps = eps_;
  const float bc1 = BiasCorrection1();
  const float bc2 = BiasCorrection2();
  float* w = value.data().data();
  const float* gp = grad.data().data();
  float* m = m_[i].data().data();
  float* v = v_[i].data().data();
  for (std::int64_t j = begin; j < end; ++j) {
    const float g = gp[j];
    m[j] = beta1 * m[j] + (1.0F - beta1) * g;
    v[j] = beta2 * v[j] + (1.0F - beta2) * g * g;
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

// With finite β both moments stay +0; m̂ = +0/bc₁ and v̂ = +0/bc₂ are
// +0 for positive corrections, and w − (lr·(+0)) / (√(+0) + ε) = w.
bool Adam::ZeroStepIsIdentity() const {
  return ScalesZeroToPositiveZero(lr_) && std::isfinite(beta1_) &&
         std::isfinite(beta2_) && eps_ > 0.0F && BiasCorrection1() > 0.0F &&
         BiasCorrection2() > 0.0F;
}

std::vector<Tensor*> Adam::State() {
  std::vector<Tensor*> state;
  state.reserve(m_.size() + v_.size());
  for (auto& t : m_) state.push_back(&t);
  for (auto& t : v_) state.push_back(&t);
  return state;
}

std::vector<std::int64_t> Adam::ScalarState() const { return {t_}; }

void Adam::SetScalarState(std::span<const std::int64_t> scalars) {
  PELICAN_CHECK(scalars.size() == 1, "Adam expects one scalar (step count)");
  t_ = scalars[0];
}

std::unique_ptr<Optimizer> MakeOptimizer(const std::string& name, float lr) {
  const std::string key = ToLower(name);
  if (key == "sgd") return std::make_unique<Sgd>(lr);
  if (key == "rmsprop") return std::make_unique<RmsProp>(lr);
  if (key == "adadelta") return std::make_unique<AdaDelta>(lr);
  if (key == "adam") return std::make_unique<Adam>(lr);
  PELICAN_CHECK(false, "unknown optimizer: " + name);
  return nullptr;
}

}  // namespace pelican::optim
