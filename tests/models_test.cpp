// Model-builder tests: block topology, the paper's parameter-layer
// arithmetic (5 blocks → 21, 10 blocks → 41), end-to-end shapes for all
// Table V architectures, trainability smoke checks, and the no-draw
// build that Load fills from a weight file.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/model_io.h"
#include "models/pelican.h"
#include "models/zoo.h"

namespace pelican::models {
namespace {

TEST(Blocks, PlainBlockPreservesPaperShape) {
  Rng rng(1);
  BlockConfig config;
  config.channels = 8;
  auto block = MakePlainBlock(config, rng);
  auto y = block->Forward(Tensor::RandomNormal({4, 1, 8}, rng, 0, 1), false);
  EXPECT_EQ(y.shape(), (Tensor::Shape{4, 1, 8}));
}

TEST(Blocks, PlainBlockCountsFourParameterLayers) {
  Rng rng(2);
  BlockConfig config;
  config.channels = 4;
  auto block = MakePlainBlock(config, rng);
  EXPECT_EQ(block->ParameterLayerCount(), 4);  // BN, Conv, BN, GRU
}

TEST(Blocks, ResidualBlockCountsFourParameterLayers) {
  Rng rng(3);
  BlockConfig config;
  config.channels = 4;
  auto block = MakeResidualBlock(config, rng);
  EXPECT_EQ(block->ParameterLayerCount(), 4);
}

TEST(Blocks, ResidualIdentityRequiresShapePreservingBody) {
  Rng rng(4);
  BlockConfig config;
  config.channels = 4;
  config.input_len = 8;  // pooling halves it → identity add impossible
  EXPECT_THROW(MakeResidualBlock(config, rng, ShortcutKind::kIdentity),
               CheckError);
}

TEST(Blocks, ProjectionShortcutHandlesPooling) {
  Rng rng(5);
  BlockConfig config;
  config.channels = 4;
  config.input_len = 8;
  auto block = MakeResidualBlock(config, rng, ShortcutKind::kProjection);
  auto y = block->Forward(Tensor::RandomNormal({2, 8, 4}, rng, 0, 1), false);
  EXPECT_EQ(y.shape(), (Tensor::Shape{2, 4, 4}));
}

TEST(Blocks, LstmVariantBuilds) {
  Rng rng(6);
  BlockConfig config;
  config.channels = 4;
  config.recurrent = RecurrentKind::kLstm;
  auto block = MakeResidualBlock(config, rng);
  auto y = block->Forward(Tensor::RandomNormal({2, 1, 4}, rng, 0, 1), false);
  EXPECT_EQ(y.shape(), (Tensor::Shape{2, 1, 4}));
}

TEST(Blocks, ShortcutTapAblationBuilds) {
  Rng rng(7);
  BlockConfig config;
  config.channels = 4;
  auto block =
      MakeResidualBlock(config, rng, ShortcutKind::kIdentity,
                        ShortcutTap::kBlockInput);
  auto y = block->Forward(Tensor::RandomNormal({2, 1, 4}, rng, 0, 1), false);
  EXPECT_EQ(y.shape(), (Tensor::Shape{2, 1, 4}));
}

TEST(Networks, PaperDepthArithmetic) {
  // 5 blocks · 4 layers + dense = 21 ; 10 blocks → 41 (Section V-C).
  Rng rng(8);
  auto plain21 = BuildPlain21(12, 5, rng);
  EXPECT_EQ(plain21->ParameterLayerCount(), 21);
  auto residual21 = BuildResidual21(12, 5, rng);
  EXPECT_EQ(residual21->ParameterLayerCount(), 21);
  auto plain41 = BuildPlain41(12, 5, rng);
  EXPECT_EQ(plain41->ParameterLayerCount(), 41);
  auto pelican = BuildPelican(12, 5, rng);
  EXPECT_EQ(pelican->ParameterLayerCount(), 41);
}

TEST(Networks, ParameterLayersForMatchesBuiltNetworks) {
  NetworkConfig config;
  config.features = 12;
  config.n_classes = 5;
  config.n_blocks = 5;
  config.residual = true;
  Rng rng(9);
  auto net = BuildNetwork(config, rng);
  EXPECT_EQ(net->ParameterLayerCount(), ParameterLayersFor(config));

  config.channels = 6;  // adds the projection stem
  Rng rng2(9);
  auto narrow = BuildNetwork(config, rng2);
  EXPECT_EQ(narrow->ParameterLayerCount(), ParameterLayersFor(config));
}

TEST(Networks, OutputShapeIsLogits) {
  Rng rng(10);
  auto net = BuildResidual21(10, 4, rng);
  auto y = net->Forward(Tensor::RandomNormal({6, 10}, rng, 0, 1), false);
  EXPECT_EQ(y.shape(), (Tensor::Shape{6, 4}));
}

TEST(Networks, ChannelReductionShrinksParameterCount) {
  Rng rng(11);
  auto wide = BuildPelican(64, 5, rng);
  Rng rng2(11);
  auto narrow = BuildPelican(64, 5, rng2, /*channels=*/8);
  EXPECT_LT(narrow->ParameterCount(), wide->ParameterCount() / 10);
}

TEST(Networks, LuNetDepthFollowsBlockCount) {
  Rng rng(12);
  for (int blocks : {1, 3, 10}) {
    auto net = BuildLuNet(12, 5, blocks, rng);
    EXPECT_EQ(net->ParameterLayerCount(), 4 * blocks + 1);
  }
}

TEST(Networks, ResidualHasSameParamCountAsPlain) {
  // The identity shortcut adds no parameters — the comparison in
  // Tables II–IV is apples-to-apples.
  Rng rng(13);
  auto plain = BuildPlain21(16, 5, rng);
  Rng rng2(13);
  auto residual = BuildResidual21(16, 5, rng2);
  EXPECT_EQ(plain->ParameterCount(), residual->ParameterCount());
}

TEST(Zoo, ChunkShapeFactorizations) {
  EXPECT_EQ(ChunkShape(121), (std::pair<std::int64_t, std::int64_t>{11, 11}));
  EXPECT_EQ(ChunkShape(196), (std::pair<std::int64_t, std::int64_t>{14, 14}));
  EXPECT_EQ(ChunkShape(12), (std::pair<std::int64_t, std::int64_t>{4, 3}));
  EXPECT_EQ(ChunkShape(13), (std::pair<std::int64_t, std::int64_t>{13, 1}));
  EXPECT_EQ(ChunkShape(1), (std::pair<std::int64_t, std::int64_t>{1, 1}));
}

TEST(Zoo, AllBaselinesProduceLogits) {
  Rng rng(14);
  const std::int64_t features = 24, classes = 5, batch = 3;
  auto x = Tensor::RandomNormal({batch, features}, rng, 0, 1);
  for (auto& net :
       {BuildMlp(features, classes, rng), BuildCnn(features, classes, rng),
        BuildLstmNet(features, classes, rng),
        BuildHastIds(features, classes, rng)}) {
    auto y = net->Forward(x, false);
    EXPECT_EQ(y.shape(), (Tensor::Shape{batch, classes}));
  }
}

TEST(Zoo, BaselinesBackpropagate) {
  Rng rng(15);
  const std::int64_t features = 24, classes = 3;
  auto x = Tensor::RandomNormal({2, features}, rng, 0, 1);
  for (auto& net :
       {BuildMlp(features, classes, rng), BuildCnn(features, classes, rng),
        BuildLstmNet(features, classes, rng),
        BuildHastIds(features, classes, rng)}) {
    auto y = net->Forward(x, true);
    auto dx = net->Backward(Tensor::Full(y.shape(), 0.1F));
    EXPECT_EQ(dx.shape(), x.shape());
    // At least one parameter received gradient signal.
    float grad_mag = 0.0F;
    for (auto& p : net->Params()) grad_mag += p.grad->AbsMax();
    EXPECT_GT(grad_mag, 0.0F);
  }
}

TEST(Networks, PelicanBackpropagatesThroughAllBlocks) {
  Rng rng(16);
  auto net = BuildPelican(10, 3, rng);
  auto x = Tensor::RandomNormal({2, 10}, rng, 0, 1);
  auto y = net->Forward(x, true);
  net->Backward(Tensor::Full(y.shape(), 0.1F));
  // With the paper's one-time-step input the GRU's recurrent kernels
  // and reset gate act on h_{t-1} = 0, so they are *structurally* dead
  // (this matches the Keras original). Every other tensor in every
  // block must receive gradient — the residual shortcut cannot starve
  // the early blocks.
  auto is_structurally_dead = [](const std::string& name) {
    return name == "gru.uz" || name == "gru.ur" || name == "gru.uh" ||
           name == "gru.wr" || name == "gru.br";
  };
  for (auto& p : net->Params()) {
    if (is_structurally_dead(p.name)) {
      EXPECT_EQ(p.grad->AbsMax(), 0.0F) << p.name;
    } else {
      EXPECT_GT(p.grad->AbsMax(), 0.0F) << p.name;
    }
  }
}

// ---- the no-draw build ------------------------------------------------------

// The paper-shape networks a weight file may fill: GRU and LSTM,
// residual and plain, one flow and a window of three, at the scaled
// width 24 and at full width (NSL's 121 features).
std::vector<NetworkConfig> NoDrawConfigs() {
  std::vector<NetworkConfig> configs;
  for (const auto recurrent : {RecurrentKind::kGru, RecurrentKind::kLstm}) {
    for (const bool residual : {true, false}) {
      for (const std::int64_t seq : {1, 3}) {
        for (const std::int64_t channels : {24, 0}) {
          NetworkConfig c;
          c.features = 121;
          c.n_classes = 5;
          c.residual = residual;
          c.channels = channels;
          c.recurrent = recurrent;
          c.sequence_length = seq;
          configs.push_back(c);
        }
      }
    }
  }
  return configs;
}

std::string ConfigName(const NetworkConfig& c) {
  return std::string(c.recurrent == RecurrentKind::kGru ? "gru" : "lstm") +
         (c.residual ? " residual" : " plain") + " seq " +
         std::to_string(c.sequence_length) + " width " +
         std::to_string(c.channels > 0 ? c.channels : c.features);
}

bool AllZero(const Tensor& t) {
  for (const float v : t.data()) {
    if (std::bit_cast<std::uint32_t>(v) != 0) return false;
  }
  return true;
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) ==
             0;
}

// Checks the no-draw network's tensors `none` (its Params() or
// Buffers()) against those of two networks seeded differently, `a` and
// `b`, as the test below says; returns how many of them a seed draws.
template <typename Refs>
std::size_t CheckNoDraw(const Refs& a, const Refs& b, const Refs& none) {
  EXPECT_EQ(none.size(), a.size());
  std::size_t drawn = 0;
  for (std::size_t i = 0; i < std::min(none.size(), a.size()); ++i) {
    EXPECT_EQ(none[i].name, a[i].name) << i;
    EXPECT_EQ(none[i].value->shape(), a[i].value->shape()) << none[i].name;
    if (SameBytes(*a[i].value, *b[i].value)) {
      EXPECT_TRUE(SameBytes(*none[i].value, *a[i].value)) << none[i].name;
    } else {
      ++drawn;
      EXPECT_TRUE(AllZero(*none[i].value)) << none[i].name;
    }
  }
  return drawn;
}

// Every parameter and buffer of the no-draw network has the seeded
// network's name and shape. Each one a seed draws (it differs between
// two seeds) is +0.0 throughout; the rest, constants of the architecture
// such as BatchNorm's γ = 1 or the LSTM's forget bias, equal the seeded
// network's.
TEST(NoDrawBuild, ZeroWhereDrawnSameNamesAndShapes) {
  for (const auto& config : NoDrawConfigs()) {
    SCOPED_TRACE(ConfigName(config));
    Rng rng_a(1), rng_b(2);
    const auto a = BuildNetwork(config, rng_a);
    const auto b = BuildNetwork(config, rng_b);
    const auto none = BuildNetwork(config, nn::Init::kNoDraw);
    // Every Conv1D, recurrent and Dense kernel is drawn; no buffer is.
    EXPECT_GT(CheckNoDraw(a->Params(), b->Params(), none->Params()), 0U);
    EXPECT_EQ(CheckNoDraw(a->Buffers(), b->Buffers(), none->Buffers()), 0U);
  }
}

// One weight file loaded into a seeded network and into a no-draw one
// gives the same Score, byte for byte: every tensor that reaches a
// verdict comes from the file.
TEST(NoDrawBuild, LoadedScoresMatchSeededNetworkByteForByte) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "pelican_nodraw.bin")
          .string();
  for (const auto& config : NoDrawConfigs()) {
    SCOPED_TRACE(ConfigName(config));
    Rng rng_file(3), rng_seeded(4), rng_x(5);
    const auto source = BuildNetwork(config, rng_file);
    // Non-trivial running statistics, so the buffers are read too.
    for (auto& buffer : source->Buffers()) {
      for (float& v : buffer.value->data()) v += 0.25F;
    }
    core::SaveWeights(*source, path);
    const auto seeded = BuildNetwork(config, rng_seeded);
    const auto none = BuildNetwork(config, nn::Init::kNoDraw);
    core::LoadWeights(*seeded, path);
    core::LoadWeights(*none, path);
    const Tensor x = Tensor::RandomNormal(
        {7, config.sequence_length * config.features}, rng_x, 0.0F, 1.0F);
    const Tensor want = seeded->Forward(x, /*training=*/false);
    EXPECT_TRUE(SameBytes(none->Forward(x, /*training=*/false), want));
    EXPECT_TRUE(SameBytes(source->Forward(x, /*training=*/false), want));
  }
}

}  // namespace
}  // namespace pelican::models
