// Weight initialization schemes (Keras-compatible defaults).
#pragma once

#include "common/rng.h"
#include "tensor/tensor.h"

namespace pelican::nn {

// Where a layer's weights come from. An `Rng` converts to an Init
// implicitly, so a call site passes its generator as it is, and the
// weights are drawn from it in the layer's member order.
// `Init::kNoDraw` draws nothing and leaves the weights zero, for a
// network whose every parameter a weight file is about to overwrite
// (PelicanIds::Load). Constants that are part of the architecture
// rather than drawn (BatchNorm's γ = 1, the LSTM's forget bias 1) are
// set either way.
class Init {
 public:
  Init(Rng& rng) : rng_(&rng) {}

  static const Init kNoDraw;

  // The generator to draw from; nullptr for kNoDraw.
  [[nodiscard]] Rng* rng() const { return rng_; }

 private:
  constexpr Init() = default;

  Rng* rng_ = nullptr;
};

inline constexpr Init Init::kNoDraw{};

// Glorot/Xavier uniform: U(-limit, limit), limit = sqrt(6/(fan_in+fan_out)).
// Zeros for Init::kNoDraw.
Tensor GlorotUniform(Tensor::Shape shape, std::int64_t fan_in,
                     std::int64_t fan_out, Init init);

// Orthogonal init for recurrent kernels: modified Gram–Schmidt over the
// columns (rows >= cols) or the rows (rows < cols) of a standard-normal
// matrix. Zeros for Init::kNoDraw.
Tensor Orthogonal(std::int64_t rows, std::int64_t cols, Init init);

}  // namespace pelican::nn
