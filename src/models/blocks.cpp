#include "models/blocks.h"

namespace pelican::models {

namespace {

void CheckConfig(const BlockConfig& config) {
  PELICAN_CHECK(config.channels > 0, "block channels must be set");
  PELICAN_CHECK(config.input_len > 0);
  PELICAN_CHECK(config.kernel_size > 0);
  PELICAN_CHECK(config.pool_size > 0);
}

// The Conv→…→Dropout chain shared by both block kinds. Starts *after*
// the leading BN. The final ReLU of the plain block lives here; the
// residual block instead applies ReLU after the add (post layer).
std::unique_ptr<nn::Sequential> MakeBody(const BlockConfig& config,
                                         nn::Init init, bool relu_after_conv) {
  auto body = std::make_unique<nn::Sequential>();
  body->Add(std::make_unique<nn::Conv1D>(config.channels, config.channels,
                                         config.kernel_size, init));
  if (relu_after_conv) body->Add(nn::Relu());
  if (config.pool == PoolKind::kMax) {
    body->Add(std::make_unique<nn::MaxPool1D>(config.pool_size));
  } else {
    body->Add(std::make_unique<nn::AvgPool1D>(config.pool_size));
  }
  body->Add(std::make_unique<nn::BatchNorm>(config.channels));
  const std::int64_t out_len = BlockOutputLength(config);
  if (config.recurrent == RecurrentKind::kGru) {
    body->Add(std::make_unique<nn::Gru>(config.channels, config.channels, init,
                                        /*return_sequences=*/true));
  } else {
    body->Add(std::make_unique<nn::Lstm>(config.channels, config.channels,
                                         init, /*return_sequences=*/true));
  }
  body->Add(std::make_unique<nn::Reshape>(
      Tensor::Shape{out_len, config.channels}));
  body->Add(std::make_unique<nn::Dropout>(config.dropout));
  return body;
}

}  // namespace

std::int64_t BlockOutputLength(const BlockConfig& config) {
  nn::MaxPool1D pool(config.pool_size);
  return pool.OutputLength(config.input_len);
}

nn::LayerPtr MakePlainBlock(const BlockConfig& config, nn::Init init) {
  CheckConfig(config);
  auto block = std::make_unique<nn::Sequential>();
  block->Add(std::make_unique<nn::BatchNorm>(config.channels));
  auto body = MakeBody(config, init, /*relu_after_conv=*/true);
  // Inline the body layers so summaries read flat, matching Fig. 4(a).
  block->Add(std::move(body));
  return block;
}

nn::LayerPtr MakeResidualBlock(const BlockConfig& config, nn::Init init,
                               ShortcutKind shortcut, ShortcutTap tap) {
  CheckConfig(config);
  // ReLU after conv stays inside the body (the paper keeps it); the
  // block's *final* ReLU moves after the add.
  auto body = MakeBody(config, init, /*relu_after_conv=*/true);

  nn::LayerPtr shortcut_layer;
  const std::int64_t out_len = BlockOutputLength(config);
  if (shortcut == ShortcutKind::kIdentity) {
    PELICAN_CHECK(out_len == config.input_len,
                  "identity shortcut requires a shape-preserving body "
                  "(input_len < pool_size); use kProjection");
  } else {
    auto projection = std::make_unique<nn::Sequential>();
    if (out_len != config.input_len) {
      projection->Add(std::make_unique<nn::MaxPool1D>(config.pool_size));
    }
    projection->Add(
        std::make_unique<nn::Conv1D>(config.channels, config.channels,
                                     /*kernel_size=*/1, init));
    shortcut_layer = std::move(projection);
  }

  nn::LayerPtr pre = std::make_unique<nn::BatchNorm>(config.channels);
  if (tap == ShortcutTap::kBlockInput) {
    // Ablation variant: the shortcut taps the raw block input, so BN
    // moves inside the body instead of acting as the shared stem.
    auto wrapped = std::make_unique<nn::Sequential>();
    wrapped->Add(std::move(pre));
    wrapped->Add(std::move(body));
    return std::make_unique<nn::ResidualWrap>(nullptr, std::move(wrapped),
                                              std::move(shortcut_layer),
                                              nn::Relu());
  }
  return std::make_unique<nn::ResidualWrap>(std::move(pre), std::move(body),
                                            std::move(shortcut_layer),
                                            nn::Relu());
}

}  // namespace pelican::models
