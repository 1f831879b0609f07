#include "optim/optimizer.h"

#include <cmath>

#include "common/strings.h"

namespace pelican::optim {

void Optimizer::Attach(std::vector<nn::ParamRef> params) {
  for (const auto& p : params) {
    PELICAN_CHECK(p.value != nullptr && p.grad != nullptr,
                  "null ParamRef passed to optimizer");
    PELICAN_CHECK(p.value->SameShape(*p.grad),
                  "parameter/gradient shape mismatch for " + p.name);
  }
  params_ = std::move(params);
  InitState();
}

void Optimizer::ZeroGrad() {
  for (auto& p : params_) p.grad->Zero();
}

void Optimizer::Step() {
  PELICAN_CHECK(!params_.empty(), "optimizer not attached");
  if (clip_norm_ > 0.0F) {
    double sq = 0.0;
    for (auto& p : params_) {
      for (float g : p.grad->data()) sq += static_cast<double>(g) * g;
    }
    const auto norm = static_cast<float>(std::sqrt(sq));
    if (norm > clip_norm_) {
      const float scale = clip_norm_ / norm;
      for (auto& p : params_) p.grad->Scale(scale);
    }
  }
  for (std::size_t i = 0; i < params_.size(); ++i) {
    UpdateParam(i, *params_[i].value, *params_[i].grad);
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

void Sgd::UpdateParam(std::size_t i, Tensor& value, const Tensor& grad) {
  if (momentum_ == 0.0F) {
    value.Axpy(-lr_, grad);
    return;
  }
  const float lr = lr_, momentum = momentum_;
  float* w = value.data().data();
  const float* g = grad.data().data();
  float* v = velocity_[i].data().data();
  for (std::int64_t j = 0; j < value.size(); ++j) {
    v[j] = momentum * v[j] - lr * g[j];
    w[j] += v[j];
  }
}

std::vector<Tensor*> Sgd::StateTensors() {
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

void RmsProp::UpdateParam(std::size_t i, Tensor& value, const Tensor& grad) {
  const float lr = lr_, rho = rho_, eps = eps_;
  float* w = value.data().data();
  const float* gp = grad.data().data();
  float* c = cache_[i].data().data();
  for (std::int64_t j = 0; j < value.size(); ++j) {
    const float g = gp[j];
    c[j] = rho * c[j] + (1.0F - rho) * g * g;
    w[j] -= lr * g / (std::sqrt(c[j]) + eps);
  }
}

std::vector<Tensor*> RmsProp::StateTensors() {
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

void AdaDelta::UpdateParam(std::size_t i, Tensor& value, const Tensor& grad) {
  const float lr = lr_, rho = rho_, eps = eps_;
  float* w = value.data().data();
  const float* gp = grad.data().data();
  float* eg = accum_grad_[i].data().data();
  float* eu = accum_update_[i].data().data();
  for (std::int64_t j = 0; j < value.size(); ++j) {
    const float g = gp[j];
    eg[j] = rho * eg[j] + (1.0F - rho) * g * g;
    const float update = -std::sqrt(eu[j] + eps) / std::sqrt(eg[j] + eps) * g;
    eu[j] = rho * eu[j] + (1.0F - rho) * update * update;
    w[j] += lr * update;
  }
}

std::vector<Tensor*> AdaDelta::StateTensors() {
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

void Adam::UpdateParam(std::size_t i, Tensor& value, const Tensor& grad) {
  if (i == 0) ++t_;  // one time step per Step() call
  const float lr = lr_, beta1 = beta1_, beta2 = beta2_, eps = eps_;
  const float bc1 = 1.0F - std::pow(beta1, static_cast<float>(t_));
  const float bc2 = 1.0F - std::pow(beta2, static_cast<float>(t_));
  float* w = value.data().data();
  const float* gp = grad.data().data();
  float* m = m_[i].data().data();
  float* v = v_[i].data().data();
  for (std::int64_t j = 0; j < value.size(); ++j) {
    const float g = gp[j];
    m[j] = beta1 * m[j] + (1.0F - beta1) * g;
    v[j] = beta2 * v[j] + (1.0F - beta2) * g * g;
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

std::vector<Tensor*> Adam::StateTensors() {
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
