// The paper's building blocks (Fig. 4).
//
// Plain block (a):  BN → Conv1D → ReLU → MaxPool → BN → GRU → Reshape →
//                   Dropout
// Residual block (b): the same chain, with a shortcut tapped at the
//                   first BN's output, added to the block output, then a
//                   final ReLU.
//
// The paper feeds the network records shaped (1, F) — one time step
// whose channel vector is the encoded feature vector — and sets
// filters = recurrent units = F so the identity shortcut type-checks
// ("the output dimension of filters and recurrent units must be equal
// to the input shape"). We keep that as the default and additionally
// support a projection shortcut (MaxPool + 1×1 Conv) for configurations
// where the body changes the sample shape (ablated in bench/ablation).
#pragma once

#include "nn/nn.h"

namespace pelican::models {

enum class ShortcutKind { kIdentity, kProjection };
enum class RecurrentKind { kGru, kLstm };
enum class PoolKind { kMax, kAvg };  // ablation: paper uses max pooling
// Ablation: where the shortcut taps (paper uses the BN output).
enum class ShortcutTap { kAfterBn, kBlockInput };

struct BlockConfig {
  std::int64_t channels = 0;     // C_in = filters = recurrent units
  std::int64_t input_len = 1;    // L (paper: 1)
  std::int64_t kernel_size = 10;
  std::int64_t pool_size = 2;    // identity when input_len < pool_size
  float dropout = 0.6F;
  RecurrentKind recurrent = RecurrentKind::kGru;
  PoolKind pool = PoolKind::kMax;
};

// Sequence length after the block's MaxPool.
std::int64_t BlockOutputLength(const BlockConfig& config);

// Fig. 4 (a).
nn::LayerPtr MakePlainBlock(const BlockConfig& config, nn::Init init);

// Fig. 4 (b). With kIdentity the block must preserve the sample shape
// (input_len < pool_size), as in the paper's configuration.
nn::LayerPtr MakeResidualBlock(const BlockConfig& config, nn::Init init,
                               ShortcutKind shortcut = ShortcutKind::kIdentity,
                               ShortcutTap tap = ShortcutTap::kAfterBn);

}  // namespace pelican::models
