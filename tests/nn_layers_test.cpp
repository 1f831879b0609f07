// Behavioural unit tests for the nn layers: output shapes, forward
// semantics (padding, pooling rules, normalization statistics, dropout
// masks, recurrent state handling), parameter plumbing, and Score
// against the scalar oracle in score_oracle.h.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "gru_reference.h"
#include "models/pelican.h"
#include "nn/nn.h"
#include "optim/optimizer.h"
#include "score_oracle.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace pelican {
namespace {

// Byte-level equality — the Score contract is bit-identical outputs,
// not merely close ones.
bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

// Float bytes, except that any NaN matches any NaN (which NaN an
// operation returns is not part of the contract).
bool SameFloat(float got, float want) {
  if (std::isnan(want)) return std::isnan(got);
  return std::memcmp(&got, &want, sizeof(float)) == 0;
}

// The i-th (cycling) of the values at which a vectorized elementwise
// loop could part from its scalar formula: NaN, ±inf, ±0, subnormals,
// the hard-sigmoid clip edges ±2.5 and their float neighbours, and
// values near overflow.
float ElementwiseSpecial(std::int64_t i) {
  const float inf = std::numeric_limits<float>::infinity();
  const float sub = std::numeric_limits<float>::denorm_min();
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            inf,
                            -inf,
                            0.0F,
                            -0.0F,
                            sub,
                            -sub,
                            1e-39F,
                            -1e-39F,
                            2.5F,
                            -2.5F,
                            std::nextafter(2.5F, 0.0F),
                            std::nextafter(2.5F, 3.0F),
                            std::nextafter(-2.5F, 0.0F),
                            std::nextafter(-2.5F, -3.0F),
                            1.0F,
                            -0.75F,
                            3e38F,
                            -3e38F};
  return specials[static_cast<std::size_t>(i) % std::size(specials)];
}

TEST(Dense, OutputShapeAndBias) {
  Rng rng(1);
  nn::Dense layer(3, 2, rng);
  auto x = Tensor::Zeros({5, 3});
  auto y = layer.Forward(x, false);
  EXPECT_EQ(y.shape(), (Tensor::Shape{5, 2}));
  // Zero input → output equals bias (zero-initialized).
  for (std::int64_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], 0.0F);
}

TEST(Dense, ParamsExposeWeightAndBias) {
  Rng rng(1);
  nn::Dense layer(3, 2, rng);
  auto params = layer.Params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].value->shape(), (Tensor::Shape{3, 2}));
  EXPECT_EQ(params[1].value->shape(), (Tensor::Shape{2}));
  EXPECT_EQ(layer.ParameterCount(), 3 * 2 + 2);
}

TEST(Dense, RejectsWrongWidth) {
  Rng rng(1);
  nn::Dense layer(3, 2, rng);
  EXPECT_THROW(layer.Forward(Tensor({5, 4}), false), CheckError);
}

TEST(Activation, ReluForward) {
  nn::ActivationLayer relu(nn::Activation::kRelu);
  auto y = relu.Forward(Tensor::FromVector({4}, {-2, -0.5, 0, 3}), false);
  EXPECT_EQ(y.At(0), 0.0F);
  EXPECT_EQ(y.At(1), 0.0F);
  EXPECT_EQ(y.At(2), 0.0F);
  EXPECT_EQ(y.At(3), 3.0F);
}

// The layer's maps give the bytes of the scalar formulas, on the
// values where a vectorized ReLU could differ: NaN and -0 map to +0.
// 33 elements run full vectors and a tail. Tanh runs kernels::Tanh
// over the whole tensor, which must match the per-element port.
TEST(Activation, ReluAndTanhBytesMatchScalarFormulas) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sub = std::numeric_limits<float>::denorm_min();
  const float specials[] = {nan, -nan, 0.0F, -0.0F, inf, -inf, sub,
                            -sub, 1e-39F, -1e-39F, 1.0F, -1.0F};
  std::vector<float> values;
  for (int i = 0; i < 33; ++i) {
    values.push_back(specials[static_cast<std::size_t>(i) %
                              std::size(specials)]);
  }
  const auto x = Tensor::FromVector({3, 11}, values);

  nn::ActivationLayer relu(nn::Activation::kRelu);
  const Tensor y_relu = relu.Forward(x, false);
  nn::ActivationLayer tanh_layer(nn::Activation::kTanh);
  const Tensor y_tanh = tanh_layer.Forward(x, false);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    const float got_relu = y_relu[i];
    const float want_relu = x[i] > 0.0F ? x[i] : 0.0F;
    EXPECT_EQ(std::memcmp(&got_relu, &want_relu, sizeof(float)), 0)
        << "relu at " << i << " x=" << x[i];
    const float got_tanh = y_tanh[i];
    const float want_tanh = nn::TanhF(x[i]);
    if (std::isnan(x[i])) {
      EXPECT_TRUE(std::isnan(got_tanh)) << "tanh at " << i;
    } else {
      EXPECT_EQ(std::memcmp(&got_tanh, &want_tanh, sizeof(float)), 0)
          << "tanh at " << i << " x=" << x[i];
    }
  }
  EXPECT_TRUE(SameBytes(relu.Forward(x, true), y_relu));
}

TEST(Activation, HardSigmoidClips) {
  using nn::HardSigmoidF;
  EXPECT_EQ(HardSigmoidF(-10.0F), 0.0F);
  EXPECT_EQ(HardSigmoidF(10.0F), 1.0F);
  EXPECT_FLOAT_EQ(HardSigmoidF(0.0F), 0.5F);
  EXPECT_FLOAT_EQ(HardSigmoidF(1.0F), 0.7F);
}

TEST(Conv1D, SamePaddingPreservesLength) {
  Rng rng(2);
  nn::Conv1D conv(3, 5, 4, rng);
  auto y = conv.Forward(Tensor::RandomNormal({2, 9, 3}, rng, 0, 1), false);
  EXPECT_EQ(y.shape(), (Tensor::Shape{2, 9, 5}));
}

TEST(Conv1D, IdentityKernelCopiesInput) {
  Rng rng(2);
  nn::Conv1D conv(1, 1, 1, rng);
  // Force the 1×1×1 kernel to identity.
  auto params = conv.Params();
  (*params[0].value)[0] = 1.0F;
  auto x = Tensor::FromVector({1, 4, 1}, {1, 2, 3, 4});
  auto y = conv.Forward(x, false);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv1D, KerasPaddingSplit) {
  // Kernel 4 → pad_left 1, pad_right 2. A sum-kernel over constant-1
  // input shows the boundary window sizes: first output sums 3 taps.
  Rng rng(2);
  nn::Conv1D conv(1, 1, 4, rng);
  auto params = conv.Params();
  params[0].value->Fill(1.0F);
  auto x = Tensor::Full({1, 6, 1}, 1.0F);
  auto y = conv.Forward(x, false);
  EXPECT_FLOAT_EQ(y.At(0, 0, 0), 3.0F);  // one left pad
  EXPECT_FLOAT_EQ(y.At(0, 2, 0), 4.0F);  // interior: full window
  EXPECT_FLOAT_EQ(y.At(0, 5, 0), 2.0F);  // two right pads
}

// With one valid tap mapping step t to step t (L = 1 under "same"
// padding, and kernel 1 at any L), Conv1D runs its GEMMs on x and on dx
// directly. y, dx, dW and db must equal the im2col path's bytes,
// written out here with the same kernels::Gemm calls: the column
// buffer a copy of x, and col2im as +0 + dcol. x, the live tap's
// weights, the bias and dy carry NaN, ±inf, ±0 and subnormals.
TEST(Conv1D, IdentityLoweringMatchesIm2ColPathBytes) {
  constexpr std::int64_t kCin = 5, kF = 7, kN = 6;
  const std::pair<std::int64_t, std::int64_t> shapes[] = {
      {10, 1}, {4, 1}, {1, 1}, {1, 3}};  // {kernel, L}
  for (const auto& [kernel, len] : shapes) {
    SCOPED_TRACE(testing::Message() << "kernel=" << kernel << " L=" << len);
    Rng rng(60);
    nn::Conv1D conv(kCin, kF, kernel, rng);
    Tensor& w = *conv.Params()[0].value;
    Tensor& b = *conv.Params()[1].value;
    const std::int64_t tap = (kernel - 1) / 2;  // the one valid tap
    float* wt = w.data().data() + tap * kCin * kF;
    for (std::int64_t i = 0; i < kCin * kF; i += 4) {
      wt[i] = ElementwiseSpecial(i / 4);
    }
    for (std::int64_t j = 0; j < kF; j += 2) b[j] = ElementwiseSpecial(j + 3);
    const std::int64_t rows = kN * len;
    Tensor x = Tensor::RandomNormal({kN, len, kCin}, rng, 0, 1);
    for (std::int64_t i = 0; i < x.size(); i += 3) {
      x[i] = ElementwiseSpecial(i / 3 + 1);
    }
    Tensor dy = Tensor::RandomNormal({kN, len, kF}, rng, 0, 1);
    for (std::int64_t i = 0; i < dy.size(); i += 5) {
      dy[i] = ElementwiseSpecial(i / 5 + 2);
    }

    const std::vector<float> col(x.data().begin(), x.data().end());
    Tensor want_y({kN, len, kF});
    kernels::Gemm(false, false, rows, kF, kCin, col.data(), kCin, wt, kF,
                  want_y.data().data(), kF, /*accumulate=*/false);
    AddRowBias(want_y.data().data(), rows, kF, b.data().data());
    Tensor want_dw(w.shape()), want_db({kF}), want_dx({kN, len, kCin});
    SumRowsInto(dy.data().data(), rows, kF, want_db.data().data());
    kernels::Gemm(true, false, kCin, kF, rows, col.data(), kCin,
                  dy.data().data(), kF,
                  want_dw.data().data() + tap * kCin * kF, kF,
                  /*accumulate=*/true);
    std::vector<float> dcol(static_cast<std::size_t>(rows * kCin));
    kernels::Gemm(false, true, rows, kCin, kF, dy.data().data(), kF, wt, kF,
                  dcol.data(), kCin, /*accumulate=*/false);
    for (std::int64_t i = 0; i < rows * kCin; ++i) {
      want_dx[i] += dcol[static_cast<std::size_t>(i)];
    }

    nn::InferenceContext ctx;
    EXPECT_TRUE(SameBytes(conv.Score(x, ctx), want_y)) << "Score";
    conv.ZeroGrad();
    EXPECT_TRUE(SameBytes(conv.Forward(x, true), want_y)) << "training pass";
    EXPECT_TRUE(SameBytes(conv.Backward(dy), want_dx)) << "dx";
    EXPECT_TRUE(SameBytes(*conv.Params()[0].grad, want_dw)) << "dW";
    EXPECT_TRUE(SameBytes(*conv.Params()[1].grad, want_db)) << "db";
  }
}

TEST(MaxPool, HalvesLengthDroppingRemainder) {
  nn::MaxPool1D pool(2);
  EXPECT_EQ(pool.OutputLength(8), 4);
  EXPECT_EQ(pool.OutputLength(9), 4);
  EXPECT_EQ(pool.OutputLength(2), 1);
}

TEST(MaxPool, ShortInputPoolsWholeSequence) {
  nn::MaxPool1D pool(4);
  EXPECT_EQ(pool.OutputLength(3), 1);
  EXPECT_EQ(pool.OutputLength(1), 1);
  auto x = Tensor::FromVector({1, 3, 1}, {1, 5, 2});
  auto y = pool.Forward(x, false);
  EXPECT_EQ(y.shape(), (Tensor::Shape{1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 5.0F);
}

TEST(MaxPool, SelectsMaxPerChannel) {
  nn::MaxPool1D pool(2);
  auto x = Tensor::FromVector({1, 4, 2}, {1, 8, 3, 2, 5, 0, 4, 9});
  auto y = pool.Forward(x, false);
  EXPECT_FLOAT_EQ(y.At(0, 0, 0), 3.0F);
  EXPECT_FLOAT_EQ(y.At(0, 0, 1), 8.0F);
  EXPECT_FLOAT_EQ(y.At(0, 1, 0), 5.0F);
  EXPECT_FLOAT_EQ(y.At(0, 1, 1), 9.0F);
}

// Scores and trains `x` through MaxPool1D(pool_size) and checks the
// bytes of both outputs (NaN payload and the sign of 0 included)
// against `want_y`, then that Backward(dy) routes each gradient to the
// argmax row alone, giving `want_dx`.
void ExpectMaxPool(std::int64_t pool_size, const Tensor& x,
                   const Tensor& want_y, const Tensor& dy,
                   const Tensor& want_dx) {
  nn::MaxPool1D pool(pool_size);
  EXPECT_TRUE(SameBytes(pool.Forward(x, false), want_y)) << "Score";
  EXPECT_TRUE(SameBytes(pool.Forward(x, true), want_y)) << "training pass";
  EXPECT_TRUE(SameBytes(pool.Backward(dy), want_dx)) << "Backward";
}

TEST(MaxPool, BackwardRoutesToArgmaxOnly) {
  ExpectMaxPool(2, Tensor::FromVector({1, 4, 1}, {1, 8, 5, 2}),
                Tensor::FromVector({1, 2, 1}, {8, 5}),
                Tensor::FromVector({1, 2, 1}, {10, 20}),
                Tensor::FromVector({1, 4, 1}, {0, 10, 20, 0}));

  // A tie keeps the window's first row (so -0 before +0 stays -0), a
  // NaN in the first row is kept, and one in a later row never wins.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // L = 5, pool 2: two windows of two rows; row 4 is dropped.
  ExpectMaxPool(
      2,
      Tensor::FromVector({1, 5, 4}, {1, -0.0F, nan, 3,     //
                                     1, 0.0F, 2, nan,      //
                                     2, nan, -1, 0.0F,     //
                                     2, 4, 5, -0.0F,       //
                                     9, 9, 9, 9}),
      Tensor::FromVector({1, 2, 4}, {1, -0.0F, nan, 3, 2, nan, 5, 0.0F}),
      Tensor::FromVector({1, 2, 4}, {10, 20, 30, 40, 50, 60, 70, 80}),
      Tensor::FromVector({1, 5, 4}, {10, 20, 30, 40,  //
                                     0, 0, 0, 0,      //
                                     50, 60, 0, 80,   //
                                     0, 0, 70, 0,     //
                                     0, 0, 0, 0}));
  // L = 2 < pool 4: the whole sequence is one window.
  ExpectMaxPool(4, Tensor::FromVector({1, 2, 2}, {nan, -0.0F, 7, 3}),
                Tensor::FromVector({1, 1, 2}, {nan, 3}),
                Tensor::FromVector({1, 1, 2}, {10, 20}),
                Tensor::FromVector({1, 2, 2}, {10, 0, 0, 20}));
  // L = 1: a row copy, and the gradient passes straight through.
  const auto row =
      Tensor::FromVector({2, 1, 3}, {-0.0F, nan, 1, 2, 0.0F, -inf});
  const auto dy = Tensor::FromVector({2, 1, 3}, {1, 2, 3, 4, 5, 6});
  ExpectMaxPool(2, row, row, dy, dy);
}

TEST(AvgPool, AveragesWindows) {
  nn::AvgPool1D pool(2);
  auto x = Tensor::FromVector({1, 4, 1}, {1, 3, 5, 7});
  auto y = pool.Forward(x, false);
  ASSERT_EQ(y.shape(), (Tensor::Shape{1, 2, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.0F);
  EXPECT_FLOAT_EQ(y[1], 6.0F);
}

TEST(AvgPool, BackwardSpreadsGradientUniformly) {
  nn::AvgPool1D pool(2);
  auto x = Tensor::FromVector({1, 4, 1}, {1, 3, 5, 7});
  pool.Forward(x, true);
  auto dx = pool.Backward(Tensor::FromVector({1, 2, 1}, {10, 20}));
  EXPECT_FLOAT_EQ(dx[0], 5.0F);
  EXPECT_FLOAT_EQ(dx[1], 5.0F);
  EXPECT_FLOAT_EQ(dx[2], 10.0F);
  EXPECT_FLOAT_EQ(dx[3], 10.0F);
}

TEST(AvgPool, ShortInputAveragesWholeSequence) {
  nn::AvgPool1D pool(8);
  auto x = Tensor::FromVector({1, 3, 1}, {3, 6, 9});
  auto y = pool.Forward(x, false);
  ASSERT_EQ(y.shape(), (Tensor::Shape{1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 6.0F);
}

TEST(GlobalAvgPool, AveragesTimeAxis) {
  nn::GlobalAvgPool1D pool;
  auto x = Tensor::FromVector({1, 3, 2}, {1, 10, 2, 20, 3, 30});
  auto y = pool.Forward(x, false);
  EXPECT_EQ(y.shape(), (Tensor::Shape{1, 2}));
  EXPECT_FLOAT_EQ(y.At(0, 0), 2.0F);
  EXPECT_FLOAT_EQ(y.At(0, 1), 20.0F);
}

TEST(BatchNorm, NormalizesBatchStatistics) {
  nn::BatchNorm bn(2);
  Rng rng(3);
  auto x = Tensor::RandomNormal({64, 2}, rng, 5.0F, 3.0F);
  auto y = bn.Forward(x, true);
  // Per-channel mean ≈ 0, var ≈ 1 after normalization (γ=1, β=0).
  for (std::int64_t c = 0; c < 2; ++c) {
    double mean = 0.0, sq = 0.0;
    for (std::int64_t i = 0; i < 64; ++i) {
      mean += y.At(i, c);
      sq += static_cast<double>(y.At(i, c)) * y.At(i, c);
    }
    mean /= 64;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sq / 64 - mean * mean, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsConvergeToDataMoments) {
  nn::BatchNorm bn(1, /*momentum=*/0.5F);
  Rng rng(4);
  for (int step = 0; step < 40; ++step) {
    bn.Forward(Tensor::RandomNormal({256, 1}, rng, 2.0F, 1.0F), true);
  }
  EXPECT_NEAR(bn.running_mean().At(0), 2.0F, 0.15F);
  EXPECT_NEAR(bn.running_var().At(0), 1.0F, 0.15F);
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  nn::BatchNorm bn(1, 0.0F);  // momentum 0: running stats = last batch
  Rng rng(5);
  bn.Forward(Tensor::RandomNormal({128, 1}, rng, 3.0F, 2.0F), true);
  // A constant input equal to the running mean must map to ~0.
  auto x = Tensor::Full({4, 1}, bn.running_mean().At(0));
  auto y = bn.Forward(x, false);
  for (std::int64_t i = 0; i < y.size(); ++i) EXPECT_NEAR(y[i], 0.0F, 1e-3F);
}

// Score's affine map against the test's own scalar formula,
// γ·((x − μ)·(1/√(σ² + ε))) + β, with the specials in x and in every
// statistic. 37 channels run vector bodies and a tail; rank 2 and 3.
TEST(BatchNorm, ScoreBytesMatchScalarFormula) {
  constexpr std::int64_t kChannels = 37;
  nn::BatchNorm bn(kChannels);
  Rng rng(7);
  for (auto& p : bn.Params()) {
    for (std::int64_t j = 0; j < kChannels; ++j) {
      const std::int64_t shift = p.name == "bn.beta" ? 4 : 0;
      p.value->At(j) = j % 3 == 0 ? ElementwiseSpecial(j + shift)
                                  : rng.UniformF(-2.0F, 2.0F);
    }
  }
  for (auto& b : bn.Buffers()) {
    const bool var = b.name == "bn.running_var";
    for (std::int64_t j = 0; j < kChannels; ++j) {
      const float v = ElementwiseSpecial(j + (var ? 7 : 2));
      b.value->At(j) = j % 2 == 0 ? (var ? std::fabs(v) : v)
                                  : rng.UniformF(var ? 0.1F : -1.0F, 1.0F);
    }
  }
  const float* gamma = bn.Params()[0].value->data().data();
  const float* beta = bn.Params()[1].value->data().data();
  const float* mean = bn.running_mean().data().data();
  const float* var = bn.running_var().data().data();
  for (const Tensor::Shape& shape :
       {Tensor::Shape{5, kChannels}, Tensor::Shape{2, 3, kChannels}}) {
    Tensor x(shape);
    for (std::int64_t i = 0; i < x.size(); ++i) {
      x[i] = i % 2 == 0 ? ElementwiseSpecial(i / 2)
                        : rng.UniformF(-4.0F, 4.0F);
    }
    nn::InferenceContext ctx;
    const Tensor y = bn.Score(x, ctx);
    ASSERT_EQ(y.shape(), shape);
    for (std::int64_t i = 0; i < x.size(); ++i) {
      const std::int64_t j = i % kChannels;
      const float inv_std = 1.0F / std::sqrt(var[j] + bn.epsilon());
      const float want = gamma[j] * ((x[i] - mean[j]) * inv_std) + beta[j];
      EXPECT_TRUE(SameFloat(y[i], want))
          << "element " << i << " x=" << x[i] << ": got " << y[i]
          << " want " << want;
    }
  }
}

TEST(BatchNorm, ChannelLayout3D) {
  nn::BatchNorm bn(3);
  Rng rng(6);
  auto y = bn.Forward(Tensor::RandomNormal({2, 5, 3}, rng, 0, 1), true);
  EXPECT_EQ(y.shape(), (Tensor::Shape{2, 5, 3}));
}

TEST(Dropout, InferenceIsIdentity) {
  nn::Dropout drop(0.6F);
  Rng rng(7);
  auto x = Tensor::RandomNormal({4, 5}, rng, 0, 1);
  auto y = drop.Forward(x, false);
  EXPECT_EQ(y, x);
}

TEST(Dropout, TrainingZeroesApproximatelyRateFraction) {
  nn::Dropout drop(0.6F);
  Rng rng(8);
  drop.SetRng(&rng);
  auto x = Tensor::Full({100, 100}, 1.0F);
  auto y = drop.Forward(x, true);
  std::int64_t zeros = 0;
  for (std::int64_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0F) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.6, 0.02);
}

TEST(Dropout, SurvivorsScaledToPreserveExpectation) {
  nn::Dropout drop(0.5F);
  Rng rng(9);
  drop.SetRng(&rng);
  auto x = Tensor::Full({200, 200}, 1.0F);
  auto y = drop.Forward(x, true);
  EXPECT_NEAR(y.Mean(), 1.0F, 0.03F);
}

TEST(Dropout, BackwardUsesSameMask) {
  nn::Dropout drop(0.5F);
  Rng rng(10);
  drop.SetRng(&rng);
  auto x = Tensor::Full({10, 10}, 1.0F);
  auto y = drop.Forward(x, true);
  auto dx = drop.Backward(Tensor::Full({10, 10}, 1.0F));
  // Zeros and survivors must line up exactly.
  for (std::int64_t i = 0; i < y.size(); ++i) {
    EXPECT_FLOAT_EQ(dx[i], y[i]);
  }
}

// The training mask, bit for bit, is the one `Uniform() < rate` draws
// element by element from the same stream (the formula Rng::Chance
// replaced), and the stream ends where that formula leaves it. The
// input carries NaN, ±inf, ±0 and subnormals so the output bytes are
// checked through every special.
TEST(Dropout, MaskMatchesUniformFormulaBytes) {
  for (const float rate : {1e-7F, 0.1F, 0.5F, 0.6F, 0.999F}) {
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
      nn::Dropout drop(rate);
      Rng rng(seed), ref(seed);
      drop.SetRng(&rng);
      Tensor x({7, 1, 19});
      for (std::int64_t i = 0; i < x.size(); ++i) x[i] = ElementwiseSpecial(i);
      const Tensor y = drop.Forward(x, true);
      // dx = 1 · mask, exactly the mask bytes.
      const Tensor mask = drop.Backward(Tensor::Full(x.shape(), 1.0F));
      const float keep_scale = 1.0F / (1.0F - rate);
      Tensor want_mask(x.shape()), want_y = x;
      for (std::int64_t i = 0; i < x.size(); ++i) {
        want_mask[i] = ref.Uniform() < rate ? 0.0F : keep_scale;
        want_y[i] *= want_mask[i];
      }
      EXPECT_TRUE(SameBytes(mask, want_mask)) << "rate " << rate;
      EXPECT_TRUE(SameBytes(y, want_y)) << "rate " << rate;
      EXPECT_EQ(rng(), ref()) << "rate " << rate << " seed " << seed;
    }
  }
}

TEST(Dropout, RejectsInvalidRate) {
  EXPECT_THROW(nn::Dropout(1.0F), CheckError);
  EXPECT_THROW(nn::Dropout(-0.1F), CheckError);
}

TEST(Gru, OutputShapes) {
  Rng rng(11);
  nn::Gru seq(3, 4, rng, true);
  EXPECT_EQ(seq.Forward(Tensor::RandomNormal({2, 5, 3}, rng, 0, 1), false)
                .shape(),
            (Tensor::Shape{2, 5, 4}));
  nn::Gru last(3, 4, rng, false);
  EXPECT_EQ(last.Forward(Tensor::RandomNormal({2, 5, 3}, rng, 0, 1), false)
                .shape(),
            (Tensor::Shape{2, 4}));
}

TEST(Gru, LastSequenceStepEqualsLastState) {
  Rng rng(12);
  nn::Gru gru_seq(3, 4, rng, true);
  Rng rng2(12);
  nn::Gru gru_last(3, 4, rng2, false);
  auto x = Tensor::RandomNormal({2, 6, 3}, rng, 0, 1);
  auto y_seq = gru_seq.Forward(x, false);
  auto y_last = gru_last.Forward(x, false);
  for (std::int64_t i = 0; i < 2; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(y_seq.At(i, 5, j), y_last.At(i, j));
    }
  }
}

TEST(Gru, OutputsBoundedByTanh) {
  Rng rng(13);
  nn::Gru gru(4, 6, rng, true);
  auto y = gru.Forward(Tensor::RandomNormal({3, 8, 4}, rng, 0, 5), false);
  EXPECT_LE(y.Max(), 1.0F);
  EXPECT_GE(y.Min(), -1.0F);
}

TEST(Gru, SingleStepMatchesHandComputedReference) {
  // One unit, one input, one step, all weights pinned — verify the gate
  // equations against a hand evaluation:
  //   z = hsig(x·wz + bz), r = hsig(x·wr + br) (h0 = 0)
  //   h~ = tanh(x·wh + bh),  h1 = z·0 + (1-z)·h~
  Rng rng(90);
  nn::Gru gru(1, 1, rng, /*return_sequences=*/false);
  auto params = gru.Params();
  auto set = [&](const char* name, float value) {
    for (auto& p : params) {
      if (p.name == name) {
        p.value->Fill(value);
        return;
      }
    }
    FAIL() << "missing param " << name;
  };
  set("gru.wz", 0.5F);
  set("gru.wr", -0.3F);
  set("gru.wh", 0.8F);
  set("gru.uz", 0.0F);
  set("gru.ur", 0.0F);
  set("gru.uh", 0.0F);
  set("gru.bz", 0.1F);
  set("gru.br", 0.2F);
  set("gru.bh", -0.1F);

  const float xv = 0.7F;
  auto x = Tensor::FromVector({1, 1, 1}, {xv});
  const float z = nn::HardSigmoidF(0.5F * xv + 0.1F);
  const float h_cand = std::tanh(0.8F * xv - 0.1F);
  const float expected = (1.0F - z) * h_cand;

  auto y = gru.Forward(x, false);
  EXPECT_NEAR(y[0], expected, 1e-6F);
}

TEST(Lstm, SingleStepMatchesHandComputedReference) {
  // Same pinned-weight check for the LSTM cell (c0 = h0 = 0):
  //   i = hsig(x·wi + bi), f irrelevant (c0 = 0), g = tanh(x·wg + bg),
  //   o = hsig(x·wo + bo), c1 = i·g, h1 = o·tanh(c1).
  Rng rng(91);
  nn::Lstm lstm(1, 1, rng, /*return_sequences=*/false);
  auto params = lstm.Params();
  auto set = [&](const char* name, float value) {
    for (auto& p : params) {
      if (p.name == name) {
        p.value->Fill(value);
        return;
      }
    }
    FAIL() << "missing param " << name;
  };
  for (const char* u : {"lstm.ui", "lstm.uf", "lstm.ug", "lstm.uo"}) {
    set(u, 0.0F);
  }
  set("lstm.wi", 0.6F);
  set("lstm.wf", 0.3F);
  set("lstm.wg", 0.9F);
  set("lstm.wo", -0.4F);
  set("lstm.bi", 0.05F);
  set("lstm.bf", 1.0F);
  set("lstm.bg", 0.0F);
  set("lstm.bo", 0.2F);

  const float xv = -0.5F;
  auto x = Tensor::FromVector({1, 1, 1}, {xv});
  const float i = nn::HardSigmoidF(0.6F * xv + 0.05F);
  const float g = std::tanh(0.9F * xv);
  const float o = nn::HardSigmoidF(-0.4F * xv + 0.2F);
  const float c1 = i * g;
  const float expected = o * std::tanh(c1);

  auto y = lstm.Forward(x, false);
  EXPECT_NEAR(y[0], expected, 1e-6F);
}

TEST(Gru, NineParameterTensors) {
  Rng rng(14);
  nn::Gru gru(3, 4, rng);
  EXPECT_EQ(gru.Params().size(), 9u);
  EXPECT_EQ(gru.ParameterCount(), 3 * (3 * 4 + 4 * 4 + 4));
}

TEST(Lstm, OutputShapesAndParams) {
  Rng rng(15);
  nn::Lstm lstm(3, 5, rng, true);
  EXPECT_EQ(lstm.Forward(Tensor::RandomNormal({2, 4, 3}, rng, 0, 1), false)
                .shape(),
            (Tensor::Shape{2, 4, 5}));
  EXPECT_EQ(lstm.Params().size(), 12u);
}

TEST(Lstm, ForgetBiasInitializedToOne) {
  Rng rng(16);
  nn::Lstm lstm(2, 3, rng);
  auto params = lstm.Params();
  // bf is the 10th tensor (index 9) in the documented order.
  const auto& bf = *params[9].value;
  ASSERT_EQ(params[9].name, "lstm.bf");
  for (std::int64_t i = 0; i < bf.size(); ++i) EXPECT_FLOAT_EQ(bf[i], 1.0F);
}

TEST(Reshape, ForwardAndBackwardShapes) {
  nn::Reshape reshape({2, 6});
  Rng rng(17);
  auto x = Tensor::RandomNormal({3, 4, 3}, rng, 0, 1);
  auto y = reshape.Forward(x, true);
  EXPECT_EQ(y.shape(), (Tensor::Shape{3, 2, 6}));
  auto dx = reshape.Backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Reshape, RejectsIncompatibleTarget) {
  nn::Reshape reshape({5});
  EXPECT_THROW(reshape.Forward(Tensor({2, 4}), false), CheckError);
}

TEST(Sequential, ChainsAndCountsLayers) {
  Rng rng(18);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Dense>(4, 8, rng));
  net.Add(nn::Relu());
  net.Add(std::make_unique<nn::Dense>(8, 2, rng));
  EXPECT_EQ(net.LayerCount(), 3u);
  EXPECT_EQ(net.ParameterLayerCount(), 2);
  EXPECT_EQ(net.Params().size(), 4u);
  auto y = net.Forward(Tensor::RandomNormal({5, 4}, rng, 0, 1), false);
  EXPECT_EQ(y.shape(), (Tensor::Shape{5, 2}));
}

TEST(Sequential, ZeroGradClearsAllGrads) {
  Rng rng(19);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Dense>(3, 3, rng));
  auto x = Tensor::RandomNormal({2, 3}, rng, 0, 1);
  net.Forward(x, true);
  net.Backward(Tensor::Full({2, 3}, 1.0F));
  net.ZeroGrad();
  for (auto& p : net.Params()) {
    EXPECT_EQ(p.grad->AbsMax(), 0.0F);
  }
}

// Layers build no gradient. A layer's first Backward allocates its own,
// with no optimizer attached, and accumulates into them the bytes it
// accumulates into gradients an optimizer allocated first.
TEST(Layers, FirstBackwardAllocatesGradients) {
  struct Case {
    const char* name;
    std::function<std::unique_ptr<nn::Layer>(Rng&)> make;
    Tensor::Shape x_shape;
  };
  const std::vector<Case> cases = {
      {"dense",
       [](Rng& r) { return std::make_unique<nn::Dense>(6, 4, r); },
       {3, 6}},
      {"conv1d",
       [](Rng& r) { return std::make_unique<nn::Conv1D>(6, 4, 3, r); },
       {3, 5, 6}},
      {"batchnorm",
       [](Rng&) { return std::make_unique<nn::BatchNorm>(6); },
       {3, 5, 6}},
      {"gru", [](Rng& r) { return std::make_unique<nn::Gru>(6, 4, r); },
       {3, 2, 6}},
      {"lstm", [](Rng& r) { return std::make_unique<nn::Lstm>(6, 4, r); },
       {3, 2, 6}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Rng make_rng(23);
    auto layer = c.make(make_rng);
    Rng attached_rng(23);
    auto attached = c.make(attached_rng);
    for (auto& p : layer->Params()) EXPECT_TRUE(p.grad->empty()) << p.name;
    optim::Sgd sgd(0.1F);
    sgd.Attach(attached->Params());

    Rng data_rng(24);
    const Tensor x = Tensor::RandomNormal(c.x_shape, data_rng, 0, 1);
    const Tensor y = layer->Forward(x, true);
    const Tensor dy = Tensor::RandomNormal(y.shape(), data_rng, 0, 1);
    (void)layer->Backward(dy);
    (void)attached->Forward(x, true);
    (void)attached->Backward(dy);
    auto got = layer->Params();
    auto want = attached->Params();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].grad->shape(), got[i].value->shape()) << got[i].name;
      EXPECT_TRUE(SameBytes(*got[i].grad, *want[i].grad)) << got[i].name;
    }
  }
}

TEST(Residual, IdentityShortcutAddsInput) {
  // Body that outputs all zeros → block output = post(shortcut) = x.
  Rng rng(20);
  auto body = std::make_unique<nn::Sequential>();
  auto zero_dense = std::make_unique<nn::Dense>(3, 3, rng);
  for (auto& p : zero_dense->Params()) p.value->Zero();
  body->Add(std::move(zero_dense));
  nn::ResidualWrap block(nullptr, std::move(body), nullptr, nullptr);
  auto x = Tensor::RandomNormal({2, 3}, rng, 0, 1);
  auto y = block.Forward(x, false);
  EXPECT_LT(MaxAbsDiff(y, x), 1e-6F);
}

TEST(Residual, ShapeMismatchIsDiagnosed) {
  Rng rng(21);
  auto body = std::make_unique<nn::Sequential>();
  body->Add(std::make_unique<nn::Dense>(3, 4, rng));  // changes width
  nn::ResidualWrap block(nullptr, std::move(body), nullptr, nullptr);
  EXPECT_THROW(block.Forward(Tensor::RandomNormal({2, 3}, rng, 0, 1), false),
               CheckError);
}

// A small network exercising every layer kind the paper's topology
// uses (conv, BN, activations, GRU, reshape, residual, pooling,
// dropout, dense) so Score is checked through real composition, not
// per layer in isolation.
std::unique_ptr<nn::Sequential> BuildScoreNet(Rng& rng) {
  auto net = std::make_unique<nn::Sequential>();
  net->Add(std::make_unique<nn::Conv1D>(3, 4, 3, rng));
  net->Add(std::make_unique<nn::BatchNorm>(4));
  net->Add(nn::Relu());
  auto body = std::make_unique<nn::Sequential>();
  body->Add(std::make_unique<nn::Conv1D>(4, 4, 3, rng));
  body->Add(std::make_unique<nn::Dropout>(0.4F));
  net->Add(std::make_unique<nn::ResidualWrap>(
      std::make_unique<nn::BatchNorm>(4), std::move(body), nullptr,
      nn::Relu()));
  net->Add(std::make_unique<nn::Gru>(4, 4, rng, /*return_sequences=*/true));
  net->Add(std::make_unique<nn::Reshape>(Tensor::Shape{5, 4}));
  net->Add(std::make_unique<nn::MaxPool1D>(2));
  net->Add(std::make_unique<nn::GlobalAvgPool1D>());
  net->Add(std::make_unique<nn::Dense>(4, 2, rng));
  return net;
}

// Three RMSprop steps move the weights and the BN running statistics
// off their init, so the oracle sees non-trivial parameters.
void TrainThreeSteps(nn::Sequential& net, const Tensor::Shape& batch_shape,
                     int n_classes, Rng& rng) {
  optim::RmsProp optimizer(0.01F);
  optimizer.Attach(net.Params());
  std::vector<int> labels(static_cast<std::size_t>(batch_shape[0]));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i) % n_classes;
  }
  for (int step = 0; step < 3; ++step) {
    net.ZeroGrad();
    const Tensor logits =
        net.Forward(Tensor::RandomNormal(batch_shape, rng, 0, 1), true);
    net.Backward(nn::SoftmaxCrossEntropy(logits, labels).dlogits);
    optimizer.Step();
  }
}

// Calibrates every quantizable op of `layer` from one Score over x
// with a sink attached, as PelicanIds::CalibrateQuantized does.
void Calibrate(nn::Layer& layer, const Tensor& x) {
  nn::CalibrationSink sink;
  nn::InferenceContext ctx;
  ctx.set_calibration_sink(&sink);
  (void)layer.Score(x, ctx);
  std::vector<quant::LinearQuant*> ops;
  layer.CollectQuantOps(ops);
  for (quant::LinearQuant* op : ops) op->observer = sink.at(op);
}

TEST(Score, MatchesScalarOracleOnScoreNet) {
  Rng rng(31);
  auto net = BuildScoreNet(rng);
  net->SetRng(&rng);
  TrainThreeSteps(*net, {4, 5, 3}, 2, rng);
  const auto x = Tensor::RandomNormal({6, 5, 3}, rng, 0, 1);
  nn::InferenceContext ctx;
  const Tensor got = net->Score(x, ctx);
  oracle::ExpectNearOracle(got, oracle::Score(*net, oracle::FromTensor(x)));
  // Arena reuse: the second call recycles the grown arena.
  EXPECT_TRUE(SameBytes(got, net->Score(x, ctx)));
}

TEST(Score, MatchesScalarOracleOnPelicanNet) {
  Rng rng(34);
  models::NetworkConfig config;
  config.features = 12;
  config.n_classes = 3;
  config.n_blocks = 2;
  auto net = models::BuildNetwork(config, rng);
  net->SetRng(&rng);
  TrainThreeSteps(*net, {8, 12}, 3, rng);
  const auto x = Tensor::RandomNormal({5, 12}, rng, 0, 1);
  nn::InferenceContext ctx;
  oracle::ExpectNearOracle(net->Score(x, ctx),
                           oracle::Score(*net, oracle::FromTensor(x)));
}

TEST(InferenceContext, TwoContextsOnOneModelInterleaveIndependently) {
  Rng rng(32);
  auto net = BuildScoreNet(rng);
  (void)net->Forward(Tensor::RandomNormal({4, 5, 3}, rng, 0, 1), true);
  const auto xa = Tensor::RandomNormal({3, 5, 3}, rng, 0, 1);
  const auto xb = Tensor::RandomNormal({5, 5, 3}, rng, 0, 1);
  nn::InferenceContext ref;
  const Tensor want_a = net->Score(xa, ref);
  const Tensor want_b = net->Score(xb, ref);

  // Interleave two private contexts on one thread against the same
  // model: neither call may disturb the other's scratch, and both must
  // reproduce the single-context reference exactly.
  nn::InferenceContext ctx_a;
  nn::InferenceContext ctx_b;
  for (int round = 0; round < 3; ++round) {
    const Tensor ya = net->Score(xa, ctx_a);
    const Tensor yb = net->Score(xb, ctx_b);
    EXPECT_TRUE(SameBytes(want_a, ya)) << "round " << round;
    EXPECT_TRUE(SameBytes(want_b, yb)) << "round " << round;
  }
}

TEST(InferenceContext, ConcurrentScorersProduceIdenticalBytes) {
  Rng rng(33);
  auto net = BuildScoreNet(rng);
  (void)net->Forward(Tensor::RandomNormal({4, 5, 3}, rng, 0, 1), true);
  const auto x = Tensor::RandomNormal({4, 5, 3}, rng, 0, 1);
  nn::InferenceContext ref;
  const Tensor want = net->Score(x, ref);

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      nn::InferenceContext ctx;  // per-thread, as the serve plane does
      for (int r = 0; r < kRounds; ++r) {
        if (!SameBytes(want, net->Score(x, ctx))) ++mismatches[t];
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

// A sink only observes: Score's bytes are those of a plain Score, the
// layers' own observers stay untouched, and every quantizable op (two
// Conv1D, the GRU, the Dense) gets one Seen() observer in the sink.
TEST(InferenceContext, CalibrationSinkObservesWithoutChangingScore) {
  Rng rng(35);
  auto net = BuildScoreNet(rng);
  (void)net->Forward(Tensor::RandomNormal({4, 5, 3}, rng, 0, 1), true);
  const auto x = Tensor::RandomNormal({6, 5, 3}, rng, 0, 1);
  nn::InferenceContext plain;
  const Tensor want = net->Score(x, plain);

  nn::CalibrationSink sink;
  nn::InferenceContext ctx;
  ctx.set_calibration_sink(&sink);
  EXPECT_TRUE(SameBytes(want, net->Score(x, ctx)));
  std::vector<quant::LinearQuant*> ops;
  net->CollectQuantOps(ops);
  ASSERT_EQ(ops.size(), 4U);
  EXPECT_EQ(sink.size(), ops.size());
  for (const quant::LinearQuant* op : ops) {
    ASSERT_EQ(sink.count(op), 1U) << op->name;
    EXPECT_TRUE(sink.at(op).Seen()) << op->name;
    EXPECT_FALSE(op->observer.Seen()) << op->name;
  }
  // The first Conv1D reads the network input itself.
  EXPECT_EQ(sink.at(ops[0]).max_abs(), x.AbsMax());
}

// The int8 engine is inference-only: a training pass through any
// quantizable layer in int8 mode throws, while Score still runs.
TEST(InferenceContext, Int8TrainingPassThrows) {
  Rng rng(36);
  nn::Dense dense(4, 3, rng);
  nn::Conv1D conv(4, 3, 3, rng);
  nn::Gru gru(4, 3, rng);
  const auto flat = Tensor::RandomNormal({2, 4}, rng, 0, 1);
  const auto seq = Tensor::RandomNormal({2, 3, 4}, rng, 0, 1);
  Calibrate(dense, flat);
  Calibrate(conv, seq);
  Calibrate(gru, seq);
  for (nn::Layer* layer : std::initializer_list<nn::Layer*>{&dense, &conv,
                                                            &gru}) {
    layer->SetQuantMode(quant::Mode::kInt8);
  }
  EXPECT_THROW((void)dense.Forward(flat, true), CheckError);
  EXPECT_THROW((void)conv.Forward(seq, true), CheckError);
  EXPECT_THROW((void)gru.Forward(seq, true), CheckError);
  nn::InferenceContext ctx;
  EXPECT_EQ(dense.Score(flat, ctx).shape(), (Tensor::Shape{2, 3}));
  EXPECT_EQ(conv.Score(seq, ctx).shape(), (Tensor::Shape{2, 3, 3}));
  EXPECT_EQ(gru.Score(seq, ctx).shape(), (Tensor::Shape{2, 3, 3}));
}

// Gru::Score builds no fused panel and, at t = 0, skips both recurrent
// GEMMs (h₀ = 0); in fp32 it must still reproduce the training pass
// byte for byte. That pass runs the fused panels and no t = 0 skip, so
// the two share no code. Random biases keep the bias add and the
// skipped terms honest.
std::unique_ptr<nn::Gru> MakeScoreGru(bool return_sequences, bool int8,
                                      Rng& rng) {
  constexpr std::int64_t kIn = 12, kUnits = 20;
  auto gru = std::make_unique<nn::Gru>(kIn, kUnits, rng, return_sequences);
  for (auto& p : gru->Params()) {
    if (p.name == "gru.bz" || p.name == "gru.br" || p.name == "gru.bh") {
      *p.value = Tensor::RandomNormal({kUnits}, rng, 0, 0.5F);
    }
  }
  if (int8) {
    Calibrate(*gru, Tensor::RandomNormal({16, 2, kIn}, rng, 0, 1));
    gru->SetQuantMode(quant::Mode::kInt8);
  }
  return gru;
}

// The int8 GRU checked per layer: the oracle's recurrence runs on the
// layer's own quantized input projection of the same x (end to end, a
// single rounding flip in QuantizeSymmetric would defeat any
// tolerance).
oracle::Ref Int8GruOracle(nn::Gru& gru, const Tensor& x) {
  std::vector<quant::LinearQuant*> ops;
  gru.CollectQuantOps(ops);
  const quant::LinearQuant& q = *ops.at(0);
  const std::int64_t rows = x.dim(0) * x.dim(1);
  std::vector<float> proj(static_cast<std::size_t>(rows * q.n));
  quant::QuantizedMatMul(x.data().data(), rows, x.dim(2), q, 0, proj.data(),
                         q.n);
  return oracle::GruRef(gru, oracle::FromTensor(x), &proj);
}

TEST(Gru, ScoreMatchesTrainingPassByteForByte) {
  for (bool return_sequences : {false, true}) {
    Rng rng(41);
    auto gru = MakeScoreGru(return_sequences, /*int8=*/false, rng);
    nn::InferenceContext ctx;
    for (std::int64_t len : {1, 3}) {
      for (std::int64_t batch : {1, 3, 64}) {
        const auto x = Tensor::RandomNormal({batch, len, 12}, rng, 0, 1);
        EXPECT_TRUE(SameBytes(gru->Forward(x, true), gru->Score(x, ctx)))
            << "return_sequences=" << return_sequences << " L=" << len
            << " batch=" << batch;
      }
    }
  }
}

TEST(Gru, Int8ScoreMatchesOracleOnItsOwnProjection) {
  for (bool return_sequences : {false, true}) {
    Rng rng(41);
    auto gru = MakeScoreGru(return_sequences, /*int8=*/true, rng);
    nn::InferenceContext ctx;
    for (std::int64_t len : {1, 3}) {
      for (std::int64_t batch : {1, 3, 64}) {
        SCOPED_TRACE(testing::Message()
                     << "return_sequences=" << return_sequences
                     << " L=" << len << " batch=" << batch);
        const auto x = Tensor::RandomNormal({batch, len, 12}, rng, 0, 1);
        oracle::ExpectNearOracle(gru->Score(x, ctx), Int8GruOracle(*gru, x));
      }
    }
  }
}

// A NaN must propagate through Score exactly as through the training
// pass: in fp32 the row that carries it reads NaN, and every other row
// keeps the training pass's bytes. (The int8 engine quantizes a NaN
// input to -127, so there every row stays finite and matches the
// oracle on the layer's own projection.)
TEST(Gru, ScoreNaNRowStaysNaNOthersMatchTrainingPass) {
  for (bool int8 : {false, true}) {
    for (std::int64_t len : {1, 3}) {
      Rng rng(42);
      auto gru = MakeScoreGru(/*return_sequences=*/false, int8, rng);
      auto x = Tensor::RandomNormal({3, len, 12}, rng, 0, 1);
      x.At(1, 0, 5) = std::numeric_limits<float>::quiet_NaN();
      nn::InferenceContext ctx;
      const Tensor got = gru->Score(x, ctx);
      if (int8) {
        SCOPED_TRACE(testing::Message() << "int8 L=" << len);
        oracle::ExpectNearOracle(got, Int8GruOracle(*gru, x));
        continue;
      }
      const Tensor want = gru->Forward(x, true);
      ASSERT_EQ(got.shape(), want.shape());
      for (std::int64_t i = 0; i < 3; ++i) {
        for (std::int64_t j = 0; j < got.dim(1); ++j) {
          const float g = got.At(i, j), w = want.At(i, j);
          if (i == 1) {
            EXPECT_TRUE(std::isnan(w));
            EXPECT_TRUE(std::isnan(g)) << "L=" << len << " unit " << j;
          } else {
            EXPECT_EQ(std::memcmp(&g, &w, sizeof(float)), 0)
                << "L=" << len << " row " << i << " unit " << j;
          }
        }
      }
    }
  }
}

// The t = 0 skip must keep the NaN that the training pass's
// (r ⊙ h₀)·Uh spreads when r holds a NaN but pre_h does not: a NaN in
// one element of br reaches every row's r, so every unit of every row
// must read NaN.
TEST(Gru, ScoreKeepsNaNFromResetGateAtFirstStep) {
  Rng rng(43);
  auto gru = MakeScoreGru(/*return_sequences=*/false, /*int8=*/false, rng);
  for (auto& p : gru->Params()) {
    if (p.name == "gru.br") p.value->At(4) = std::nanf("");
  }
  const auto x = Tensor::RandomNormal({3, 1, 12}, rng, 0, 1);
  const Tensor want = gru->Forward(x, true);
  nn::InferenceContext ctx;
  const Tensor got = gru->Score(x, ctx);
  for (std::int64_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(std::isnan(want[i]));
    EXPECT_TRUE(std::isnan(got[i])) << "flat index " << i;
  }
}

// The test's own scalar hard-sigmoid, out of line so it stays one
// scalar evaluation per call.
[[gnu::noinline]] float ScalarHardSigmoid(float x) {
  const float y = 0.2F * x + 0.5F;
  return y < 0.0F ? 0.0F : (y > 1.0F ? 1.0F : y);
}

// At L = 1, Score's bytes equal the GRU's formulas written out here as
// scalar code over kernels::Gemm's per-gate projection: z and r are
// hard sigmoids of their pre-activations, pre_h gains (r ⊙ h₀)·Uh
// (h₀ = 0), the candidate is the scalar tanh port, and
// h₁ = z·h₀ + (1 − z)·tanh(pre_h). Built at -O3, Score's gate loops,
// bias add, NaN scan and combine are vectorized; this test shares none
// of that code. The biases put the specials into the pre-activations
// (every third unit has zero input weights, so there the
// pre-activation is exactly +0 + bias); an input NaN turns row 2's r
// NaN, and ±3e38 inputs overflow row 4's projections. The reset gate's
// biases carry no NaN: one there would spread NaN into every row.
TEST(Gru, ScoreGateBytesMatchScalarFormulas) {
  constexpr std::int64_t kIn = 12, kUnits = 37, kBatch = 7;
  for (const bool return_sequences : {false, true}) {
    Rng rng(44);
    nn::Gru gru(kIn, kUnits, rng, return_sequences);
    std::map<std::string, Tensor*> param;
    for (auto& p : gru.Params()) param[p.name] = p.value;
    for (const char* w : {"gru.wz", "gru.wr", "gru.wh"}) {
      for (std::int64_t c = 0; c < kIn; ++c) {
        for (std::int64_t j = 0; j < kUnits; j += 3) param[w]->At(c, j) = 0;
      }
    }
    for (std::int64_t j = 0; j < kUnits; ++j) {
      param["gru.bz"]->At(j) = ElementwiseSpecial(j);
      param["gru.bh"]->At(j) = ElementwiseSpecial(j + 5);
      const float r = ElementwiseSpecial(j + 2);
      param["gru.br"]->At(j) = std::isnan(r) ? 0.5F : r;
    }
    Tensor x = Tensor::RandomNormal({kBatch, 1, kIn}, rng, 0, 1);
    x.At(2, 0, 3) = std::numeric_limits<float>::quiet_NaN();
    for (std::int64_t c = 0; c < kIn; ++c) {
      x.At(4, 0, c) = c % 2 == 0 ? 3e38F : -3e38F;
    }

    const auto projection = [&](const char* w, const char* b) {
      std::vector<float> pre(static_cast<std::size_t>(kBatch * kUnits));
      kernels::Gemm(false, false, kBatch, kUnits, kIn, x.data().data(), kIn,
                    param[w]->data().data(), kUnits, pre.data(), kUnits,
                    /*accumulate=*/false);
      for (std::int64_t i = 0; i < kBatch; ++i) {
        for (std::int64_t j = 0; j < kUnits; ++j) {
          pre[i * kUnits + j] += param[b]->At(j);
        }
      }
      return pre;
    };
    const auto pre_z = projection("gru.wz", "gru.bz");
    const auto pre_r = projection("gru.wr", "gru.br");
    const auto pre_h = projection("gru.wh", "gru.bh");

    nn::InferenceContext ctx;
    const Tensor y = gru.Score(x, ctx);
    ASSERT_EQ(y.size(), kBatch * kUnits);
    const float h0 = 0.0F;
    for (std::int64_t i = 0; i < kBatch; ++i) {
      for (std::int64_t j = 0; j < kUnits; ++j) {
        float recurrent = 0.0F;  // (r ⊙ h₀)·Uh, k ascending
        for (std::int64_t k = 0; k < kUnits; ++k) {
          const float r = ScalarHardSigmoid(pre_r[i * kUnits + k]);
          recurrent += (r * h0) * param["gru.uh"]->At(k, j);
        }
        const float z = ScalarHardSigmoid(pre_z[i * kUnits + j]);
        const float cand = kernels::Tanh(pre_h[i * kUnits + j] + recurrent);
        const float want = z * h0 + (1.0F - z) * cand;
        EXPECT_TRUE(SameFloat(y[i * kUnits + j], want))
            << "return_sequences=" << return_sequences << " row " << i
            << " unit " << j << ": pre_z=" << pre_z[i * kUnits + j]
            << " pre_h=" << pre_h[i * kUnits + j] << " got "
            << y[i * kUnits + j] << " want " << want;
      }
    }
  }
}

// ---- The GRU training pass against the full reference --------------
//
// nn::Gru's training pass skips what h₀ = 0 zeroes out whenever its
// inputs prove the skip exact, and otherwise runs in full. Either way
// y, dx and all nine gradients must equal the skip-free pass of
// tests/gru_reference.h byte for byte, NaN payloads included.

// Runs one training pass of `gru` and of the reference (built from
// gru's weights) on x and dy, without zeroing gradients first, and
// compares y, dx and every gradient, the ones the reference holds
// accumulated from `ref`'s earlier passes.
void ExpectGruPassMatchesReference(nn::Gru& gru, reference::ReferenceGru& ref,
                                   const Tensor& x, const Tensor& dy) {
  EXPECT_TRUE(SameBytes(gru.Forward(x, true), ref.Forward(x))) << "y";
  EXPECT_TRUE(SameBytes(gru.Backward(dy), ref.Backward(dy))) << "dx";
  for (auto& p : gru.Params()) {
    EXPECT_TRUE(SameBytes(*p.grad, ref.grads.at(p.name))) << p.name;
  }
}

enum class GruCase {
  kClean,           // finite, modest values: the fast first step
  kFiniteSpecials,  // x rows of −0 and subnormals: still fast
  kInputSpecials,   // x rows with NaN, ±inf, ±3e38: the full pass
  kGradSpecials,    // finite forward, dy with NaN and ±inf
  kHugeGrad,        // dy of ±3e38: drh could overflow
  kNaNInU,          // Uz poisoned with NaN
  kNaNInBr,         // r₁ NaN in every row
  kHugeWr,          // x·Wr overflows to inf − inf: r₁ NaN in row 0
};

constexpr GruCase kGruCases[] = {
    GruCase::kClean,       GruCase::kFiniteSpecials, GruCase::kInputSpecials,
    GruCase::kGradSpecials, GruCase::kHugeGrad,      GruCase::kNaNInU,
    GruCase::kNaNInBr,     GruCase::kHugeWr};

void PoisonGru(nn::Gru& gru, GruCase c) {
  for (auto& p : gru.Params()) {
    if (c == GruCase::kNaNInU && p.name == "gru.uz") {
      p.value->At(3, 5) = std::numeric_limits<float>::quiet_NaN();
    }
    if (c == GruCase::kNaNInBr && p.name == "gru.br") {
      p.value->At(2) = std::numeric_limits<float>::quiet_NaN();
    }
    if (c == GruCase::kHugeWr && p.name == "gru.wr") {
      p.value->At(1, 1) = 1e36F;
      p.value->At(2, 1) = -1e36F;
    }
  }
}

Tensor GruCaseInput(GruCase c, std::int64_t n, std::int64_t len,
                    std::int64_t cin, Rng& rng) {
  Tensor x = Tensor::RandomNormal({n, len, cin}, rng, 0, 1);
  if (c == GruCase::kHugeWr) {
    x.At(0, 0, 1) = 1e3F;
    x.At(0, 0, 2) = 1e3F;
  }
  if (c == GruCase::kFiniteSpecials) {
    for (std::int64_t t = 0; t < len; ++t) {
      for (std::int64_t k = 0; k < cin; ++k) {
        x.At(0, t, k) = -0.0F;
        x.At(n - 1, t, k) = k % 2 == 0 ? 1e-40F : -1e-45F;
      }
    }
  }
  if (c == GruCase::kInputSpecials) {
    const float inf = std::numeric_limits<float>::infinity();
    x.At(0, 0, 3) = std::numeric_limits<float>::quiet_NaN();
    x.At(1, len - 1, 0) = inf;
    x.At(2 % n, 0, 7) = -inf;
    for (std::int64_t k = 0; k < cin; ++k) {
      x.At(n - 1, 0, k) = k % 2 == 0 ? 3e38F : -3e38F;
    }
  }
  return x;
}

Tensor GruCaseGrad(GruCase c, const Tensor::Shape& shape, Rng& rng) {
  Tensor dy = Tensor::RandomNormal(shape, rng, 0, 1);
  if (c == GruCase::kGradSpecials) {
    dy[1] = std::numeric_limits<float>::quiet_NaN();
    dy[dy.size() - 1] = std::numeric_limits<float>::infinity();
    dy[dy.size() / 2] = -std::numeric_limits<float>::infinity();
  }
  if (c == GruCase::kHugeGrad) {
    for (std::int64_t i = 0; i < dy.size(); ++i) {
      dy[i] = i % 2 == 0 ? 3e38F : -3e38F;
    }
  }
  return dy;
}

TEST(Gru, TrainingPassMatchesFullReferenceBytes) {
  constexpr std::int64_t kIn = 12, kUnits = 20;
  for (const bool return_sequences : {false, true}) {
    for (const std::int64_t len : {1, 2, 3}) {
      // Batch 3 runs the GEMMs' small-m path at L = 1; 70 the packed one.
      for (const std::int64_t batch : {3, 70}) {
        for (const GruCase c : kGruCases) {
          SCOPED_TRACE(testing::Message()
                       << "return_sequences=" << return_sequences
                       << " L=" << len << " batch=" << batch
                       << " case=" << static_cast<int>(c));
          Rng rng(51);
          auto gru = MakeScoreGru(return_sequences, /*int8=*/false, rng);
          PoisonGru(*gru, c);
          const Tensor x = GruCaseInput(c, batch, len, kIn, rng);
          const Tensor::Shape y_shape =
              return_sequences ? Tensor::Shape{batch, len, kUnits}
                               : Tensor::Shape{batch, kUnits};
          const Tensor dy = GruCaseGrad(c, y_shape, rng);
          reference::ReferenceGru ref(*gru);
          ExpectGruPassMatchesReference(*gru, ref, x, dy);
        }
      }
    }
  }
}

// At the paper's L = 1 on finite, modest inputs the fast first step
// writes none of Wr, br, Uz, Ur, Uh; at L = 3 every gradient is
// written. The written ranges are what ZeroGrad and the optimizer
// read.
TEST(Gru, FastFirstStepLeavesResetGateAndRecurrentGradsUnwritten) {
  Rng rng(52);
  auto gru = MakeScoreGru(/*return_sequences=*/true, /*int8=*/false, rng);
  const auto written = [&] {
    std::map<std::string, std::int64_t> count;
    for (auto& p : gru->Params()) {
      const auto [b, e] = p.WrittenRange();
      count[p.name] = e - b;
    }
    return count;
  };
  for (const std::int64_t len : {1, 3}) {
    gru->ZeroGrad();
    const Tensor x = Tensor::RandomNormal({8, len, 12}, rng, 0, 1);
    (void)gru->Forward(x, true);
    (void)gru->Backward(Tensor::RandomNormal({8, len, 20}, rng, 0, 1));
    const auto count = written();
    for (const char* name : {"gru.wr", "gru.br", "gru.uz", "gru.ur", "gru.uh"}) {
      EXPECT_EQ(count.at(name) == 0, len == 1) << name << " L=" << len;
    }
    for (const char* name : {"gru.wz", "gru.wh", "gru.bz", "gru.bh"}) {
      EXPECT_GT(count.at(name), 0) << name << " L=" << len;
    }
  }
}

// Gradients accumulate over passes until ZeroGrad: an L = 3 pass
// writes every gradient, a following fast L = 1 pass adds to some and
// must leave the rest with the L = 3 bytes, as the full pass's +0 adds
// would. Then a pass after ZeroGrad starts from +0 everywhere.
TEST(Gru, AccumulatedGradientsMatchFullReferenceAcrossLengths) {
  for (const bool return_sequences : {false, true}) {
    Rng rng(53);
    auto gru = MakeScoreGru(return_sequences, /*int8=*/false, rng);
    reference::ReferenceGru ref(*gru);
    for (const std::int64_t len : {3, 1, 1}) {
      SCOPED_TRACE(testing::Message() << "return_sequences="
                                      << return_sequences << " L=" << len);
      const Tensor x = Tensor::RandomNormal({5, len, 12}, rng, 0, 1);
      const Tensor dy = Tensor::RandomNormal(
          return_sequences ? Tensor::Shape{5, len, 20} : Tensor::Shape{5, 20},
          rng, 0, 1);
      ExpectGruPassMatchesReference(*gru, ref, x, dy);
    }
    gru->ZeroGrad();
    for (auto& [name, g] : ref.grads) g.Zero();
    const Tensor x = Tensor::RandomNormal({5, 1, 12}, rng, 0, 1);
    ExpectGruPassMatchesReference(
        *gru, ref, x,
        Tensor::RandomNormal(return_sequences ? Tensor::Shape{5, 1, 20}
                                              : Tensor::Shape{5, 20},
                             rng, 0, 1));
  }
}

// [Uz|Ur] is built only in a pass that reads it, and rebuilt in each
// such pass. A fast L = 1 pass whose Backward falls back to the full
// first step (dy holds NaN and ±inf) reads it; then Uz and Ur change,
// and the L = 3 pass after must read them, not the panel the L = 1
// pass built.
TEST(Gru, RecurrentPanelFollowsUAcrossPasses) {
  for (const bool return_sequences : {false, true}) {
    SCOPED_TRACE(return_sequences ? "return_sequences" : "last state");
    const auto y_shape = [&](std::int64_t len) {
      return return_sequences ? Tensor::Shape{5, len, 20}
                              : Tensor::Shape{5, 20};
    };
    Rng rng(54);
    auto gru = MakeScoreGru(return_sequences, /*int8=*/false, rng);
    {
      reference::ReferenceGru ref(*gru);
      const Tensor x = Tensor::RandomNormal({5, 1, 12}, rng, 0, 1);
      ExpectGruPassMatchesReference(
          *gru, ref, x, GruCaseGrad(GruCase::kGradSpecials, y_shape(1), rng));
    }
    for (auto& p : gru->Params()) {
      if (p.name == "gru.uz" || p.name == "gru.ur") {
        *p.value = Tensor::RandomNormal(p.value->shape(), rng, 0, 0.5F);
      }
    }
    gru->ZeroGrad();
    reference::ReferenceGru ref(*gru);  // the new U, gradients at +0
    const Tensor x = Tensor::RandomNormal({5, 3, 12}, rng, 0, 1);
    ExpectGruPassMatchesReference(
        *gru, ref, x, Tensor::RandomNormal(y_shape(3), rng, 0, 1));
  }
}

TEST(Loss, PerfectPredictionHasLowLoss) {
  Tensor logits = Tensor::FromVector({2, 3}, {10, -10, -10, -10, 10, -10});
  const std::vector<int> labels = {0, 1};
  auto result = nn::SoftmaxCrossEntropy(logits, labels);
  EXPECT_LT(result.loss, 1e-3F);
}

TEST(Loss, UniformLogitsGiveLogK) {
  Tensor logits({4, 5});
  const std::vector<int> labels = {0, 1, 2, 3};
  EXPECT_NEAR(nn::SoftmaxCrossEntropyLoss(logits, labels), std::log(5.0F),
              1e-5F);
}

TEST(Loss, GradientRowsSumToZero) {
  Rng rng(22);
  Tensor logits = Tensor::RandomNormal({3, 4}, rng, 0, 1);
  const std::vector<int> labels = {1, 0, 3};
  auto result = nn::SoftmaxCrossEntropy(logits, labels);
  for (std::int64_t i = 0; i < 3; ++i) {
    float sum = 0.0F;
    for (std::int64_t j = 0; j < 4; ++j) sum += result.dlogits.At(i, j);
    EXPECT_NEAR(sum, 0.0F, 1e-6F);
  }
}

TEST(Loss, RejectsBadLabels) {
  Tensor logits({2, 3});
  EXPECT_THROW(
      nn::SoftmaxCrossEntropy(logits, std::vector<int>{0, 3}), CheckError);
  EXPECT_THROW(
      nn::SoftmaxCrossEntropy(logits, std::vector<int>{0}), CheckError);
}

TEST(Initializers, GlorotBounds) {
  Rng rng(23);
  auto w = nn::GlorotUniform({100, 100}, 100, 100, rng);
  const float limit = std::sqrt(6.0F / 200.0F);
  EXPECT_LE(w.Max(), limit);
  EXPECT_GE(w.Min(), -limit);
  EXPECT_NEAR(w.Mean(), 0.0F, 0.01F);
}

// The textbook modified Gram–Schmidt that nn::Orthogonal must match
// byte for byte: the same standard-normal draw, then, vector by vector,
// float products summed in double with the index ascending, the float
// update, and the double norm.
Tensor TextbookOrthogonal(std::int64_t rows, std::int64_t cols, Rng& rng) {
  Tensor m = Tensor::RandomNormal({rows, cols}, rng, 0.0F, 1.0F);
  float* mp = m.data().data();
  // Vector v's element t: columns when rows >= cols, otherwise rows.
  const bool by_cols = rows >= cols;
  const std::int64_t count = by_cols ? cols : rows;
  const std::int64_t len = by_cols ? rows : cols;
  const auto at = [&](std::int64_t v, std::int64_t t) -> float& {
    return by_cols ? mp[t * cols + v] : mp[v * cols + t];
  };
  for (std::int64_t v = 0; v < count; ++v) {
    for (std::int64_t p = 0; p < v; ++p) {
      double dot = 0.0;
      for (std::int64_t t = 0; t < len; ++t) dot += at(v, t) * at(p, t);
      for (std::int64_t t = 0; t < len; ++t) {
        at(v, t) -= static_cast<float>(dot) * at(p, t);
      }
    }
    double norm = 0.0;
    for (std::int64_t t = 0; t < len; ++t) {
      norm += static_cast<double>(at(v, t)) * at(v, t);
    }
    norm = std::sqrt(norm);
    const float inv = norm > 1e-12 ? static_cast<float>(1.0 / norm) : 0.0F;
    for (std::int64_t t = 0; t < len; ++t) at(v, t) *= inv;
  }
  return m;
}

// Both branches (rows >= cols orthonormalizes columns, rows < cols
// rows), 1×1, square sizes on and off the eight-vector block, and tall
// and wide shapes, at three seeds each.
TEST(Initializers, OrthogonalMatchesTextbookGramSchmidtByteForByte) {
  const std::int64_t shapes[][2] = {
      {1, 1},   {3, 1},   {1, 3},                            // tiny
      {7, 7},   {8, 8},   {9, 9},  {37, 37}, {64, 64}, {121, 121},
      {50, 7},  {200, 17}, {16, 15},                         // tall
      {7, 50},  {17, 200}, {15, 16}};                        // wide
  for (const auto& s : shapes) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      Rng want_rng(seed), got_rng(seed);
      const Tensor want = TextbookOrthogonal(s[0], s[1], want_rng);
      const Tensor got = nn::Orthogonal(s[0], s[1], got_rng);
      ASSERT_EQ(got.shape(), want.shape());
      EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                            static_cast<std::size_t>(want.size()) *
                                sizeof(float)),
                0)
          << s[0] << "x" << s[1] << " seed " << seed;
    }
  }
}

TEST(Initializers, OrthogonalColumnsAreOrthonormal) {
  Rng rng(24);
  auto q = nn::Orthogonal(8, 8, rng);
  for (std::int64_t a = 0; a < 8; ++a) {
    for (std::int64_t b = a; b < 8; ++b) {
      double dot = 0.0;
      for (std::int64_t i = 0; i < 8; ++i) dot += q.At(i, a) * q.At(i, b);
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-4);
    }
  }
}

}  // namespace
}  // namespace pelican
