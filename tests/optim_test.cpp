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

#include <functional>
#include <memory>

#include "nn/nn.h"
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

// ---- Skipping what Backward did not write --------------------------
//
// Step skips a gradient range Backward has not written (ParamRef::
// written) while its state is +0 and the optimizer's zero step is the
// identity. Each test runs the same updates twice: once through
// ParamRefs that publish their written ranges, once through copies
// whose `written` is null, which step every element as before. Weights
// and state must match byte for byte.

using OptimizerFactory = std::function<std::unique_ptr<optim::Optimizer>()>;

std::vector<std::pair<std::string, OptimizerFactory>> SkipOptimizers() {
  return {
      {"sgd", [] { return std::make_unique<optim::Sgd>(0.05F); }},
      {"sgd_momentum",
       [] { return std::make_unique<optim::Sgd>(0.05F, 0.9F); }},
      // A negative rate turns lr·(+0) into −0: no skip may happen.
      {"sgd_negative_lr", [] { return std::make_unique<optim::Sgd>(-0.05F); }},
      {"rmsprop", [] { return std::make_unique<optim::RmsProp>(0.01F); }},
      {"adadelta", [] { return std::make_unique<optim::AdaDelta>(1.0F); }},
      {"adam", [] { return std::make_unique<optim::Adam>(0.001F); }},
  };
}

std::vector<nn::ParamRef> WithoutWrittenRanges(std::vector<nn::ParamRef> ps) {
  for (auto& p : ps) p.written = nullptr;
  return ps;
}

bool SameTensorBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

void ExpectSameState(optim::Optimizer& got, optim::Optimizer& want,
                     const std::string& what) {
  const auto g = got.StateTensors();
  const auto w = want.StateTensors();
  ASSERT_EQ(g.size(), w.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_TRUE(SameTensorBytes(*g[i], *w[i])) << what << " state " << i;
  }
}

// Two parameters whose Backward writes only part of each gradient,
// like Conv1D's valid taps. Weights hold ±0, subnormals, ±FLT_MAX and
// NaN among normal values.
class PartlyWritten final : public nn::Layer {
 public:
  PartlyWritten() {
    Rng rng(405);
    for (auto& w : w_) {
      for (std::int64_t j = 0; j < w.size(); ++j) w[j] = Special(j, rng);
    }
  }
  // Backward's stand-in: writes g over [b, e) of parameter i.
  void Write(std::size_t i, std::int64_t b, std::int64_t e, Rng& rng,
             bool with_nan) {
    for (std::int64_t j = b; j < e; ++j) {
      g_[i][j] = static_cast<float>(rng.Normal());
    }
    if (with_nan && b < e) g_[i][b] = std::numeric_limits<float>::quiet_NaN();
    written_[i].Add(b, e);
  }
  Tensor TrainForward(const Tensor& x) override { return x; }
  Tensor Backward(const Tensor& dy) override { return dy; }
  Tensor Score(const Tensor& x, nn::InferenceContext&) const override {
    return x;
  }
  std::vector<nn::ParamRef> Params() override {
    return {{"w0", &w_[0], &g_[0], &written_[0]},
            {"w1", &w_[1], &g_[1], &written_[1]}};
  }
  [[nodiscard]] std::string Name() const override { return "PartlyWritten"; }

  std::array<Tensor, 2> w_{Tensor({1021}), Tensor({37})};
  std::array<Tensor, 2> g_{Tensor({1021}), Tensor({37})};
  std::array<nn::GradWritten, 2> written_{};

 private:
  static float Special(std::int64_t j, Rng& rng) {
    constexpr float kMax = std::numeric_limits<float>::max();
    switch (j % 9) {
      case 0: return 0.0F;
      case 1: return -0.0F;
      case 2: return std::numeric_limits<float>::denorm_min() * 3;
      case 3: return -1e-40F;
      case 4: return kMax;
      case 5: return -kMax;
      case 6: return j % 4 == 2 ? std::numeric_limits<float>::quiet_NaN()
                                : 1.5F;
      default: return static_cast<float>(rng.Normal());
    }
  }
};

TEST(OptimizerSkip, UnwrittenRangesStepLikeEveryElement) {
  // Per step: the written range of each parameter ({0, 0}: none).
  struct Writes {
    std::int64_t b0, e0, b1, e1;
  };
  const Writes steps[] = {{100, 300, 0, 0},  {250, 600, 0, 37},
                          {0, 0, 0, 0},      {900, 1021, 5, 6},
                          {0, 0, 10, 12},    {40, 41, 0, 0},
                          {700, 800, 30, 37}};
  for (const auto& [name, make] : SkipOptimizers()) {
    SCOPED_TRACE(name);
    PartlyWritten a, b;
    auto opt_a = make();
    auto opt_b = make();
    opt_a->Attach(a.Params());
    opt_b->Attach(WithoutWrittenRanges(b.Params()));
    Rng rng_a(406), rng_b(406);
    const std::size_t n = std::size(steps);
    for (std::size_t s = 0; s < n; ++s) {
      opt_a->ZeroGrad();
      opt_b->ZeroGrad();
      const bool nan = s + 1 == n;  // one NaN gradient, in the last step
      a.Write(0, steps[s].b0, steps[s].e0, rng_a, nan);
      a.Write(1, steps[s].b1, steps[s].e1, rng_a, false);
      b.Write(0, steps[s].b0, steps[s].e0, rng_b, nan);
      b.Write(1, steps[s].b1, steps[s].e1, rng_b, false);
      if (s == 4) {
        // A checkpoint restore writes state the optimizer did not step:
        // the next Step must find it (here below every range written
        // so far).
        for (auto* opt : {opt_a.get(), opt_b.get()}) {
          const auto state = opt->StateTensors();
          if (!state.empty()) (*state[0])[20] = 0.25F;
        }
      }
      opt_a->Step();
      opt_b->Step();
      for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_TRUE(SameTensorBytes(a.w_[i], b.w_[i]))
            << "step " << s << " param " << i;
      }
    }
    ExpectSameState(*opt_a, *opt_b, name);
  }
}

// With momentum, v = m·(+0) − lr·(+0) = +0 and w + (+0) turns a −0
// weight into +0, so SGD with momentum steps every element, written or
// not.
TEST(OptimizerSkip, SgdWithMomentumStepsEveryElement) {
  PartlyWritten a;
  optim::Sgd opt(0.05F, 0.9F);
  opt.Attach(a.Params());
  Rng rng(407);
  a.Write(0, 10, 20, rng, false);
  ASSERT_TRUE(std::signbit(a.w_[0][1]) && a.w_[0][1] == 0.0F);
  ASSERT_TRUE(std::signbit(a.w_[1][1]) && a.w_[1][1] == 0.0F);
  opt.Step();
  EXPECT_FALSE(std::signbit(a.w_[0][1])) << "unwritten −0 weight, param 0";
  EXPECT_FALSE(std::signbit(a.w_[1][1])) << "unwritten −0 weight, param 1";
}

// A Residual block (BN, Conv1D with kernel 10, ReLU, GRU; identity
// shortcut) trained for several steps whose L goes 1 → 3 → 1, with a
// NaN in dy on the fourth: the GRU and Conv1D publish their written
// ranges, the optimizer skips what they leave, and the weights and
// state must match an optimizer that steps everything.
TEST(OptimizerSkip, ResidualBlockAcrossLengthsMatchesFullSteps) {
  constexpr std::int64_t kC = 6, kN = 5;
  const auto make_block = [&] {
    Rng init(408);
    auto body = std::make_unique<nn::Sequential>();
    body->Add(std::make_unique<nn::Conv1D>(kC, kC, 10, init));
    body->Add(nn::Relu());
    body->Add(std::make_unique<nn::Gru>(kC, kC, init, true));
    return std::make_unique<nn::ResidualWrap>(
        std::make_unique<nn::BatchNorm>(kC), std::move(body), nullptr,
        nn::Relu());
  };
  for (const auto& [name, make] : SkipOptimizers()) {
    SCOPED_TRACE(name);
    auto a = make_block();
    auto b = make_block();
    auto opt_a = make();
    auto opt_b = make();
    opt_a->Attach(a->Params());
    opt_b->Attach(WithoutWrittenRanges(b->Params()));
    Rng data(409);
    const std::int64_t lengths[] = {1, 1, 3, 1, 1, 1};
    for (std::size_t s = 0; s < std::size(lengths); ++s) {
      const std::int64_t len = lengths[s];
      const Tensor x = Tensor::RandomNormal({kN, len, kC}, data, 0, 1);
      Tensor dy = Tensor::RandomNormal({kN, len, kC}, data, 0, 1);
      if (s == 3) dy[7] = std::numeric_limits<float>::quiet_NaN();
      a->ZeroGrad();
      opt_b->ZeroGrad();
      (void)a->Forward(x, true);
      (void)b->Forward(x, true);
      (void)a->Backward(dy);
      (void)b->Backward(dy);
      opt_a->Step();
      opt_b->Step();
      const auto pa = a->Params();
      const auto pb = b->Params();
      for (std::size_t i = 0; i < pa.size(); ++i) {
        EXPECT_TRUE(SameTensorBytes(*pa[i].value, *pb[i].value))
            << "step " << s << " " << pa[i].name;
      }
    }
    ExpectSameState(*opt_a, *opt_b, name);
  }
}

}  // namespace
}  // namespace pelican
