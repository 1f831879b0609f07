// Optimizer unit tests: update rules against hand-computed steps, the
// vectorized update loops against scalar loops of the same formulas
// (byte for byte), convergence on a quadratic bowl, clipping, factory.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "nn/dense.h"
#include "optim/optimizer.h"
#include "tensor/ops.h"

namespace pelican {
namespace {

// Minimal "layer": one scalar parameter with an externally set gradient.
class ScalarParam final : public nn::Layer {
 public:
  Tensor TrainForward(const Tensor& x) override { return x; }
  Tensor Backward(const Tensor& dy) override { return dy; }
  Tensor Score(const Tensor& x, nn::InferenceContext&) const override {
    return x;
  }
  std::vector<nn::ParamRef> Params() override {
    return {{"w", &w_, &g_}};
  }
  [[nodiscard]] std::string Name() const override { return "Scalar"; }

  Tensor w_ = Tensor::FromVector({1}, {1.0F});
  Tensor g_ = Tensor::FromVector({1}, {0.0F});
};

TEST(Sgd, PlainStepMatchesFormula) {
  ScalarParam p;
  optim::Sgd opt(0.1F);
  opt.Attach(p.Params());
  p.g_[0] = 2.0F;
  opt.Step();
  EXPECT_NEAR(p.w_[0], 1.0F - 0.1F * 2.0F, 1e-6F);
}

TEST(Sgd, MomentumAccumulates) {
  ScalarParam p;
  optim::Sgd opt(0.1F, 0.9F);
  opt.Attach(p.Params());
  p.g_[0] = 1.0F;
  opt.Step();  // v = -0.1 ;   w = 0.9
  EXPECT_NEAR(p.w_[0], 0.9F, 1e-6F);
  opt.Step();  // v = 0.9*(-0.1) - 0.1 = -0.19 ; w = 0.71
  EXPECT_NEAR(p.w_[0], 0.71F, 1e-6F);
}

TEST(RmsProp, StepMatchesFormula) {
  ScalarParam p;
  optim::RmsProp opt(0.01F, 0.9F, 1e-7F);
  opt.Attach(p.Params());
  p.g_[0] = 3.0F;
  opt.Step();
  // cache = 0.1·9 = 0.9 ; w -= 0.01·3/(sqrt(0.9)+1e-7)
  EXPECT_NEAR(p.w_[0], 1.0F - 0.01F * 3.0F / std::sqrt(0.9F), 1e-5F);
}

TEST(RmsProp, AdaptsToGradientScale) {
  // With constant gradients the effective step approaches lr/sqrt(1-ρ)…
  // more importantly: large and small gradients produce comparable step
  // magnitudes after warm-up.
  ScalarParam big, small;
  optim::RmsProp opt_big(0.01F), opt_small(0.01F);
  opt_big.Attach(big.Params());
  opt_small.Attach(small.Params());
  float last_big = 0.0F, last_small = 0.0F;
  for (int i = 0; i < 100; ++i) {
    big.g_[0] = 1000.0F;
    small.g_[0] = 0.001F;
    const float before_big = big.w_[0];
    const float before_small = small.w_[0];
    opt_big.Step();
    opt_small.Step();
    last_big = before_big - big.w_[0];
    last_small = before_small - small.w_[0];
  }
  EXPECT_NEAR(last_big / last_small, 1.0F, 0.1F);
}

TEST(AdaDelta, MakesProgressWithoutLearningRateTuning) {
  ScalarParam p;
  optim::AdaDelta opt;
  opt.Attach(p.Params());
  // Minimize 0.5·w² (gradient = w).
  for (int i = 0; i < 2000; ++i) {
    p.g_[0] = p.w_[0];
    opt.Step();
  }
  EXPECT_LT(std::fabs(p.w_[0]), 0.5F);
}

TEST(Adam, ConvergesOnQuadratic) {
  ScalarParam p;
  optim::Adam opt(0.05F);
  opt.Attach(p.Params());
  for (int i = 0; i < 500; ++i) {
    p.g_[0] = p.w_[0];
    opt.Step();
  }
  EXPECT_LT(std::fabs(p.w_[0]), 1e-2F);
}

TEST(Optimizer, ClipNormRescalesLargeGradients) {
  ScalarParam p;
  optim::Sgd opt(1.0F);
  opt.Attach(p.Params());
  opt.SetClipNorm(1.0F);
  p.g_[0] = 100.0F;
  opt.Step();
  // Clipped gradient = 1 → w = 0.
  EXPECT_NEAR(p.w_[0], 0.0F, 1e-6F);
}

TEST(Optimizer, ZeroGradClears) {
  ScalarParam p;
  optim::Sgd opt(1.0F);
  opt.Attach(p.Params());
  p.g_[0] = 5.0F;
  opt.ZeroGrad();
  EXPECT_EQ(p.g_[0], 0.0F);
}

TEST(Optimizer, FactoryKnowsAllNames) {
  EXPECT_EQ(optim::MakeOptimizer("rmsprop", 0.01F)->Name(), "RMSprop");
  EXPECT_EQ(optim::MakeOptimizer("SGD", 0.01F)->Name(), "SGD");
  EXPECT_EQ(optim::MakeOptimizer("AdaDelta", 1.0F)->Name(), "AdaDelta");
  EXPECT_EQ(optim::MakeOptimizer("adam", 0.001F)->Name(), "Adam");
  EXPECT_THROW(optim::MakeOptimizer("lbfgs", 0.01F), CheckError);
}

TEST(Optimizer, StepBeforeAttachThrows) {
  optim::Sgd opt(0.1F);
  EXPECT_THROW(opt.Step(), CheckError);
}

TEST(Optimizer, RejectsMismatchedParamRef) {
  Tensor w({3});
  Tensor g({4});
  optim::Sgd opt(0.1F);
  EXPECT_THROW(opt.Attach({{"bad", &w, &g}}), CheckError);
}

// Two odd-sized parameter tensors (~10k values, so the vectorized update
// loops run their scalar tails too) whose values and gradients mix
// magnitudes from 1e-20 to 1e15 with ±0 and denormals.
class MixedParams final : public nn::Layer {
 public:
  MixedParams() {
    for (auto& w : w_) Fill(w);
  }
  // Draws the gradients for the next Step.
  void Regrad() {
    for (auto& g : g_) Fill(g);
  }
  Tensor TrainForward(const Tensor& x) override { return x; }
  Tensor Backward(const Tensor& dy) override { return dy; }
  Tensor Score(const Tensor& x, nn::InferenceContext&) const override {
    return x;
  }
  std::vector<nn::ParamRef> Params() override {
    return {{"w0", &w_[0], &g_[0]}, {"w1", &w_[1], &g_[1]}};
  }
  [[nodiscard]] std::string Name() const override { return "Mixed"; }

  std::array<Tensor, 2> w_{Tensor({7919}), Tensor({2083})};
  std::array<Tensor, 2> g_{Tensor({7919}), Tensor({2083})};

 private:
  void Fill(Tensor& t) {
    constexpr float kDenormMin = std::numeric_limits<float>::denorm_min();
    for (std::int64_t j = 0; j < t.size(); ++j) {
      switch (rng_.Int(0, 9)) {
        case 0:
          t[j] = 0.0F;
          break;
        case 1:
          t[j] = -0.0F;
          break;
        case 2:  // an exact subnormal
          t[j] = kDenormMin * static_cast<float>(rng_.Int(-5000000, 5000000));
          break;
        default:
          t[j] = static_cast<float>(rng_.Normal() *
                                    std::pow(10.0, rng_.Uniform(-20, 15)));
      }
    }
  }
  Rng rng_{404};
};

// Three Steps of `opt` on MixedParams against `formula(t, w, g, s0, s1)`,
// the optimizer's update for one element at time step t written as plain
// scalar code, run over copies of the parameters and of up to two state
// tensors per parameter. Parameters and state must match byte for byte.
// One gradient of the last Step is NaN. Not earlier: a NaN carried into
// a later Step can meet a NaN of the other sign (AdaDelta negates one),
// and which of two NaNs an add returns follows the operand order, which
// C++ leaves to the compiler.
template <typename Formula>
void ExpectStepsMatchScalarFormula(optim::Optimizer& opt,
                                   std::size_t states_per_param,
                                   Formula formula) {
  MixedParams p;
  opt.Attach(p.Params());
  std::vector<std::vector<float>> w, s0, s1;
  for (const auto& t : p.w_) {
    w.emplace_back(t.data().begin(), t.data().end());
    s0.emplace_back(t.data().size(), 0.0F);
    s1.emplace_back(t.data().size(), 0.0F);
  }
  for (std::int64_t t = 1; t <= 3; ++t) {
    p.Regrad();
    if (t == 3) p.g_[1][1234] = std::numeric_limits<float>::quiet_NaN();
    for (std::size_t i = 0; i < w.size(); ++i) {
      for (std::size_t j = 0; j < w[i].size(); ++j) {
        formula(t, w[i][j], p.g_[i].data()[j], s0[i][j], s1[i][j]);
      }
    }
    opt.Step();
  }
  const auto same = [](std::span<const float> got,
                       const std::vector<float>& want) {
    return got.size() == want.size() &&
           std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) ==
               0;
  };
  const std::vector<Tensor*> state = opt.StateTensors();
  ASSERT_EQ(state.size(), states_per_param * w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_TRUE(same(p.w_[i].data(), w[i])) << opt.Name() << " param " << i;
    EXPECT_TRUE(same(state[i]->data(), s0[i])) << opt.Name() << " state 0";
    if (states_per_param == 2) {
      EXPECT_TRUE(same(state[w.size() + i]->data(), s1[i]))
          << opt.Name() << " state 1";
    }
  }
  EXPECT_TRUE(std::isnan(p.w_[1][1234])) << "NaN gradient was not applied";
}

TEST(Sgd, MomentumStepMatchesScalarFormulaBytes) {
  optim::Sgd opt(0.05F, 0.9F);
  ExpectStepsMatchScalarFormula(
      opt, 1, [](std::int64_t, float& w, float g, float& v, float&) {
        v = 0.9F * v - 0.05F * g;
        w += v;
      });
}

TEST(RmsProp, StepMatchesScalarFormulaBytes) {
  optim::RmsProp opt(0.01F, 0.9F, 1e-7F);
  ExpectStepsMatchScalarFormula(
      opt, 1, [](std::int64_t, float& w, float g, float& c, float&) {
        c = 0.9F * c + (1.0F - 0.9F) * g * g;
        w -= 0.01F * g / (std::sqrt(c) + 1e-7F);
      });
}

TEST(AdaDelta, StepMatchesScalarFormulaBytes) {
  optim::AdaDelta opt(1.0F, 0.95F, 1e-6F);
  ExpectStepsMatchScalarFormula(
      opt, 2, [](std::int64_t, float& w, float g, float& eg, float& eu) {
        eg = 0.95F * eg + (1.0F - 0.95F) * g * g;
        const float update = -std::sqrt(eu + 1e-6F) / std::sqrt(eg + 1e-6F) * g;
        eu = 0.95F * eu + (1.0F - 0.95F) * update * update;
        w += 1.0F * update;
      });
}

TEST(Adam, StepMatchesScalarFormulaBytes) {
  optim::Adam opt(0.001F, 0.9F, 0.999F, 1e-8F);
  // Read at run time, as the optimizer does: compile-time folding of
  // std::pow rounds correctly, which libm's powf need not.
  volatile float beta1 = 0.9F, beta2 = 0.999F;
  ExpectStepsMatchScalarFormula(
      opt, 2, [&](std::int64_t t, float& w, float g, float& m, float& v) {
        const float bc1 = 1.0F - std::pow(beta1, static_cast<float>(t));
        const float bc2 = 1.0F - std::pow(beta2, static_cast<float>(t));
        m = 0.9F * m + (1.0F - 0.9F) * g;
        v = 0.999F * v + (1.0F - 0.999F) * g * g;
        w -= 0.001F * (m / bc1) / (std::sqrt(v / bc2) + 1e-8F);
      });
}

// Quadratic convergence through a real layer: y = x·W, minimize MSE to
// a target mapping. All four optimizers should reduce the loss.
class OptimizerConvergence
    : public ::testing::TestWithParam<const char*> {};

TEST_P(OptimizerConvergence, ReducesLossOnLinearRegression) {
  Rng rng(31);
  nn::Dense layer(4, 2, rng);
  // AdaDelta's lr is a multiplier on its self-scaled update; its
  // conventional value is 1.0, not an SGD-style step size.
  const float lr = std::string(GetParam()) == "adadelta" ? 1.0F : 0.02F;
  auto opt = optim::MakeOptimizer(GetParam(), lr);
  opt->Attach(layer.Params());

  auto x = Tensor::RandomNormal({32, 4}, rng, 0, 1);
  nn::Dense target(4, 2, rng);  // random ground-truth mapping
  auto y_true = target.Forward(x, false);

  auto mse_and_grad = [&](Tensor& dy) {
    Tensor y = layer.Forward(x, true);
    dy = Sub(y, y_true);
    float loss = 0.0F;
    for (std::int64_t i = 0; i < dy.size(); ++i) loss += dy[i] * dy[i];
    dy.Scale(2.0F / static_cast<float>(dy.size()));
    return loss / static_cast<float>(dy.size());
  };

  Tensor dy;
  const float initial = mse_and_grad(dy);
  for (int step = 0; step < 300; ++step) {
    opt->ZeroGrad();
    mse_and_grad(dy);
    layer.Backward(dy);
    opt->Step();
  }
  const float final = mse_and_grad(dy);
  EXPECT_LT(final, initial * 0.2F) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllOptimizers, OptimizerConvergence,
                         ::testing::Values("sgd", "rmsprop", "adadelta",
                                           "adam"));

}  // namespace
}  // namespace pelican
