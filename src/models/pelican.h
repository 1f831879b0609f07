// Network builders for the four evaluated architectures (Section V-C):
// Plain-21, Residual-21, Plain-41 and Residual-41 (= Pelican), plus the
// depth-parameterized LuNet used in the Fig. 2 motivation sweep.
//
// Depth counting follows the paper: each block contributes 4 parameter
// layers (BN, Conv, BN, GRU) and the classifier Dense contributes 1, so
// 5 blocks → 21 and 10 blocks → 41.
//
// Networks consume flat encoded records (N, D): the first layer
// reshapes to the paper's (1, D) input — one time step whose channels
// are the features. `channels` (default = D) may be reduced for
// CPU-budget runs; a 1×1 convolution then projects D → channels first
// (documented deviation, see EXPERIMENTS.md).
#pragma once

#include <memory>

#include "models/blocks.h"

namespace pelican::models {

struct NetworkConfig {
  std::int64_t features = 0;    // encoded width D per record (121 / 196)
  std::int64_t n_classes = 0;
  int n_blocks = 10;            // 5 → "-21", 10 → "-41"
  bool residual = true;
  std::int64_t channels = 0;    // 0 → features (paper-faithful)
  std::int64_t kernel_size = 10;
  float dropout = 0.6F;
  RecurrentKind recurrent = RecurrentKind::kGru;
  ShortcutKind shortcut = ShortcutKind::kIdentity;
  ShortcutTap tap = ShortcutTap::kAfterBn;
  PoolKind pool = PoolKind::kMax;

  // Temporal extension: classify a window of `sequence_length` flows
  // (flat input width = sequence_length · features, un-flattened by the
  // input Reshape). 1 = the paper's per-flow configuration. When > 1,
  // pooling shortens the window through the blocks and residual blocks
  // automatically use projection shortcuts where the shape changes.
  std::int64_t sequence_length = 1;
};

// Builds blocks + GlobalAvgPool + Dense per the config, its weights
// drawn from the Rng that `init` holds, or left zero for a weight file
// to fill (nn::Init::kNoDraw).
std::unique_ptr<nn::Sequential> BuildNetwork(const NetworkConfig& config,
                                             nn::Init init);

// The four networks of Tables II–IV.
std::unique_ptr<nn::Sequential> BuildPlain21(std::int64_t features,
                                             std::int64_t n_classes, Rng& rng,
                                             std::int64_t channels = 0);
std::unique_ptr<nn::Sequential> BuildResidual21(std::int64_t features,
                                                std::int64_t n_classes,
                                                Rng& rng,
                                                std::int64_t channels = 0);
std::unique_ptr<nn::Sequential> BuildPlain41(std::int64_t features,
                                             std::int64_t n_classes, Rng& rng,
                                             std::int64_t channels = 0);
// Residual-41 — Pelican itself.
std::unique_ptr<nn::Sequential> BuildPelican(std::int64_t features,
                                             std::int64_t n_classes, Rng& rng,
                                             std::int64_t channels = 0);

// LuNet (Wu & Guo 2019): the plain-block network the paper deepens in
// Fig. 2; `n_blocks` controls depth (parameter layers = 4·blocks + 1).
std::unique_ptr<nn::Sequential> BuildLuNet(std::int64_t features,
                                           std::int64_t n_classes,
                                           int n_blocks, Rng& rng,
                                           std::int64_t channels = 0);

// Parameter-layer count of a network built from `config` (paper's
// convention), without constructing it.
int ParameterLayersFor(const NetworkConfig& config);

}  // namespace pelican::models
