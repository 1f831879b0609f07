// Behavioural unit tests for the nn layers: output shapes, forward
// semantics (padding, pooling rules, normalization statistics, dropout
// masks, recurrent state handling), parameter plumbing, and Score
// against the scalar oracle in score_oracle.h.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "models/pelican.h"
#include "nn/nn.h"
#include "optim/optimizer.h"
#include "score_oracle.h"
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

TEST(MaxPool, BackwardRoutesToArgmaxOnly) {
  nn::MaxPool1D pool(2);
  auto x = Tensor::FromVector({1, 4, 1}, {1, 8, 5, 2});
  pool.Forward(x, true);
  auto dy = Tensor::FromVector({1, 2, 1}, {10, 20});
  auto dx = pool.Backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0F);
  EXPECT_FLOAT_EQ(dx[1], 10.0F);
  EXPECT_FLOAT_EQ(dx[2], 20.0F);
  EXPECT_FLOAT_EQ(dx[3], 0.0F);
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
