#include "nn/initializers.h"

#include <cmath>

namespace pelican::nn {

Tensor GlorotUniform(Tensor::Shape shape, std::int64_t fan_in,
                     std::int64_t fan_out, Rng& rng) {
  PELICAN_CHECK(fan_in > 0 && fan_out > 0);
  const float limit =
      std::sqrt(6.0F / static_cast<float>(fan_in + fan_out));
  return Tensor::RandomUniform(std::move(shape), rng, -limit, limit);
}

Tensor HeUniform(Tensor::Shape shape, std::int64_t fan_in, Rng& rng) {
  PELICAN_CHECK(fan_in > 0);
  const float limit = std::sqrt(6.0F / static_cast<float>(fan_in));
  return Tensor::RandomUniform(std::move(shape), rng, -limit, limit);
}

Tensor Orthogonal(std::int64_t rows, std::int64_t cols, Rng& rng) {
  Tensor m = Tensor::RandomNormal({rows, cols}, rng, 0.0F, 1.0F);
  // Element (i, j) of the row-major (rows, cols) matrix. Raw indexing
  // keeps the O(n³) loops free of out-of-line calls; the arithmetic and
  // its order are those of the textbook loops.
  float* mp = m.data().data();
  const auto at = [mp, cols](std::int64_t i, std::int64_t j) -> float& {
    return mp[i * cols + j];
  };
  // Modified Gram–Schmidt over rows (or columns, whichever is fewer).
  // For rows >= cols we orthonormalize columns; otherwise rows.
  if (rows >= cols) {
    for (std::int64_t j = 0; j < cols; ++j) {
      // Subtract projections onto previous columns.
      for (std::int64_t p = 0; p < j; ++p) {
        double dot = 0.0;
        for (std::int64_t i = 0; i < rows; ++i) dot += at(i, j) * at(i, p);
        for (std::int64_t i = 0; i < rows; ++i) {
          at(i, j) -= static_cast<float>(dot) * at(i, p);
        }
      }
      double norm = 0.0;
      for (std::int64_t i = 0; i < rows; ++i) {
        norm += static_cast<double>(at(i, j)) * at(i, j);
      }
      norm = std::sqrt(norm);
      const float inv = norm > 1e-12 ? static_cast<float>(1.0 / norm) : 0.0F;
      for (std::int64_t i = 0; i < rows; ++i) at(i, j) *= inv;
    }
  } else {
    for (std::int64_t i = 0; i < rows; ++i) {
      for (std::int64_t p = 0; p < i; ++p) {
        double dot = 0.0;
        for (std::int64_t j = 0; j < cols; ++j) dot += at(i, j) * at(p, j);
        for (std::int64_t j = 0; j < cols; ++j) {
          at(i, j) -= static_cast<float>(dot) * at(p, j);
        }
      }
      double norm = 0.0;
      for (std::int64_t j = 0; j < cols; ++j) {
        norm += static_cast<double>(at(i, j)) * at(i, j);
      }
      norm = std::sqrt(norm);
      const float inv = norm > 1e-12 ? static_cast<float>(1.0 / norm) : 0.0F;
      for (std::int64_t j = 0; j < cols; ++j) at(i, j) *= inv;
    }
  }
  return m;
}

}  // namespace pelican::nn
