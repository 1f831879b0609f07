#include "models/pelican.h"

namespace pelican::models {

std::unique_ptr<nn::Sequential> BuildNetwork(const NetworkConfig& config,
                                             nn::Init init) {
  PELICAN_CHECK(config.features > 0 && config.n_classes >= 2);
  PELICAN_CHECK(config.n_blocks >= 1);
  PELICAN_CHECK(config.sequence_length >= 1);
  const std::int64_t channels =
      config.channels > 0 ? config.channels : config.features;
  const std::int64_t seq = config.sequence_length;

  auto net = std::make_unique<nn::Sequential>();
  // (N, L·D) → (N, L, D): L time steps whose channels are the features.
  // L = 1 is the paper's input shape "(1, 196)" / "(1, 121)".
  net->Add(std::make_unique<nn::Reshape>(
      Tensor::Shape{seq, config.features}));
  if (channels != config.features) {
    // Width-reduction stem for CPU-scaled runs.
    net->Add(std::make_unique<nn::Conv1D>(config.features, channels,
                                          /*kernel_size=*/1, init));
  }

  BlockConfig block;
  block.channels = channels;
  block.kernel_size = config.kernel_size;
  block.dropout = config.dropout;
  block.recurrent = config.recurrent;
  block.pool = config.pool;
  std::int64_t length = seq;
  for (int b = 0; b < config.n_blocks; ++b) {
    block.input_len = length;
    const std::int64_t out_len = BlockOutputLength(block);
    if (config.residual) {
      // Where pooling changes the window length the identity add cannot
      // type-check; fall back to the projection shortcut per block.
      const ShortcutKind shortcut = out_len == length
                                        ? config.shortcut
                                        : ShortcutKind::kProjection;
      net->Add(MakeResidualBlock(block, init, shortcut, config.tap));
    } else {
      net->Add(MakePlainBlock(block, init));
    }
    length = out_len;
  }

  net->Add(std::make_unique<nn::GlobalAvgPool1D>());
  net->Add(std::make_unique<nn::Dense>(channels, config.n_classes, init));
  return net;
}

namespace {
NetworkConfig MakeConfig(std::int64_t features, std::int64_t n_classes,
                         int n_blocks, bool residual, std::int64_t channels) {
  NetworkConfig config;
  config.features = features;
  config.n_classes = n_classes;
  config.n_blocks = n_blocks;
  config.residual = residual;
  config.channels = channels;
  return config;
}
}  // namespace

std::unique_ptr<nn::Sequential> BuildPlain21(std::int64_t features,
                                             std::int64_t n_classes, Rng& rng,
                                             std::int64_t channels) {
  return BuildNetwork(MakeConfig(features, n_classes, 5, false, channels),
                      rng);
}

std::unique_ptr<nn::Sequential> BuildResidual21(std::int64_t features,
                                                std::int64_t n_classes,
                                                Rng& rng,
                                                std::int64_t channels) {
  return BuildNetwork(MakeConfig(features, n_classes, 5, true, channels),
                      rng);
}

std::unique_ptr<nn::Sequential> BuildPlain41(std::int64_t features,
                                             std::int64_t n_classes, Rng& rng,
                                             std::int64_t channels) {
  return BuildNetwork(MakeConfig(features, n_classes, 10, false, channels),
                      rng);
}

std::unique_ptr<nn::Sequential> BuildPelican(std::int64_t features,
                                             std::int64_t n_classes, Rng& rng,
                                             std::int64_t channels) {
  return BuildNetwork(MakeConfig(features, n_classes, 10, true, channels),
                      rng);
}

std::unique_ptr<nn::Sequential> BuildLuNet(std::int64_t features,
                                           std::int64_t n_classes,
                                           int n_blocks, Rng& rng,
                                           std::int64_t channels) {
  return BuildNetwork(
      MakeConfig(features, n_classes, n_blocks, false, channels), rng);
}

int ParameterLayersFor(const NetworkConfig& config) {
  const std::int64_t channels =
      config.channels > 0 ? config.channels : config.features;
  int layers = 4 * config.n_blocks + 1;  // blocks + dense
  if (channels != config.features) ++layers;  // projection stem
  if (config.residual && config.shortcut == ShortcutKind::kProjection) {
    layers += config.n_blocks;  // per-block projection conv
  }
  return layers;
}

}  // namespace pelican::models
