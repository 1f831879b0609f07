#include "nn/initializers.h"

#include <algorithm>
#include <cmath>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace pelican::nn {

namespace {

// Vectors orthonormalized side by side, one per vector lane.
constexpr std::int64_t kBlock = 8;
static_assert(kBlock == 8, "BlockDots's SSE2 path holds eight lanes");

// dot[b] = Σ_t (double)(x_t[b] · q[t]) for each lane b of an interleaved
// block, t ascending: a float product, widened, then a double add, as
// the textbook loop does per vector. GCC does not vectorize the widening
// accumulation by itself, so SSE2 hosts spell it out, two lanes per
// register.
void BlockDots(const float* blk, const float* q, std::int64_t len,
               double* dot) {
#if defined(__SSE2__)
  __m128d d01 = _mm_setzero_pd();
  __m128d d23 = _mm_setzero_pd();
  __m128d d45 = _mm_setzero_pd();
  __m128d d67 = _mm_setzero_pd();
  for (std::int64_t t = 0; t < len; ++t) {
    const __m128 qt = _mm_set1_ps(q[t]);
    const __m128 lo = _mm_mul_ps(_mm_loadu_ps(blk + t * kBlock), qt);
    const __m128 hi = _mm_mul_ps(_mm_loadu_ps(blk + t * kBlock + 4), qt);
    d01 = _mm_add_pd(d01, _mm_cvtps_pd(lo));
    d23 = _mm_add_pd(d23, _mm_cvtps_pd(_mm_movehl_ps(lo, lo)));
    d45 = _mm_add_pd(d45, _mm_cvtps_pd(hi));
    d67 = _mm_add_pd(d67, _mm_cvtps_pd(_mm_movehl_ps(hi, hi)));
  }
  _mm_storeu_pd(dot, d01);
  _mm_storeu_pd(dot + 2, d23);
  _mm_storeu_pd(dot + 4, d45);
  _mm_storeu_pd(dot + 6, d67);
#else
  for (std::int64_t b = 0; b < kBlock; ++b) dot[b] = 0.0;
  for (std::int64_t t = 0; t < len; ++t) {
    for (std::int64_t b = 0; b < kBlock; ++b) {
      dot[b] += blk[t * kBlock + b] * q[t];
    }
  }
#endif
}

// Modified Gram–Schmidt over `count` vectors of `len` floats, element t
// of vector v at m[v * vs + t * ts], in place.
//
// Each vector's arithmetic and its order are the textbook loop's: for
// each earlier vector p ascending, dot = Σ_t (double)(float)(x_t · q_t)
// with t ascending, then x_t -= (float)dot · q_t in float; then the
// norm Σ_t (double)x_t · x_t, and x_t *= (float)(1 / √norm). Only the
// schedule differs. A block of kBlock vectors is projected against each
// finished vector together, stored interleaved (blk[t * kBlock + b]) so
// the block's independent dot chains run in vector lanes; then each
// vector of the block is finished in turn against the block's earlier
// ones. Lanes past `count` hold zeros and are never written back.
void GramSchmidt(float* m, std::int64_t count, std::int64_t len,
                 std::int64_t vs, std::int64_t ts) {
  const auto n = static_cast<std::size_t>(len);
  std::vector<float> done(static_cast<std::size_t>(count) * n);
  std::vector<float> blk(n * kBlock);
  for (std::int64_t v0 = 0; v0 < count; v0 += kBlock) {
    const std::int64_t live = std::min(kBlock, count - v0);
    for (std::int64_t t = 0; t < len; ++t) {
      for (std::int64_t b = 0; b < kBlock; ++b) {
        blk[t * kBlock + b] = b < live ? m[(v0 + b) * vs + t * ts] : 0.0F;
      }
    }
    for (std::int64_t p = 0; p < v0; ++p) {
      const float* q = done.data() + p * len;
      double dot[kBlock];
      BlockDots(blk.data(), q, len, dot);
      float scale[kBlock];
      for (std::int64_t b = 0; b < kBlock; ++b) {
        scale[b] = static_cast<float>(dot[b]);
      }
      for (std::int64_t t = 0; t < len; ++t) {
        float* x = blk.data() + t * kBlock;
        for (std::int64_t b = 0; b < kBlock; ++b) x[b] -= scale[b] * q[t];
      }
    }
    for (std::int64_t b = 0; b < live; ++b) {
      float* x = blk.data() + b;
      for (std::int64_t p = v0; p < v0 + b; ++p) {
        const float* q = done.data() + p * len;
        double dot = 0.0;
        for (std::int64_t t = 0; t < len; ++t) dot += x[t * kBlock] * q[t];
        for (std::int64_t t = 0; t < len; ++t) {
          x[t * kBlock] -= static_cast<float>(dot) * q[t];
        }
      }
      double norm = 0.0;
      for (std::int64_t t = 0; t < len; ++t) {
        norm += static_cast<double>(x[t * kBlock]) * x[t * kBlock];
      }
      norm = std::sqrt(norm);
      const float inv = norm > 1e-12 ? static_cast<float>(1.0 / norm) : 0.0F;
      float* out = done.data() + (v0 + b) * len;
      for (std::int64_t t = 0; t < len; ++t) out[t] = x[t * kBlock] * inv;
    }
  }
  for (std::int64_t v = 0; v < count; ++v) {
    for (std::int64_t t = 0; t < len; ++t) {
      m[v * vs + t * ts] = done[static_cast<std::size_t>(v * len + t)];
    }
  }
}

}  // namespace

Tensor GlorotUniform(Tensor::Shape shape, std::int64_t fan_in,
                     std::int64_t fan_out, Init init) {
  PELICAN_CHECK(fan_in > 0 && fan_out > 0);
  if (init.rng() == nullptr) return Tensor(std::move(shape));
  const float limit =
      std::sqrt(6.0F / static_cast<float>(fan_in + fan_out));
  return Tensor::RandomUniform(std::move(shape), *init.rng(), -limit, limit);
}

Tensor Orthogonal(std::int64_t rows, std::int64_t cols, Init init) {
  if (init.rng() == nullptr) return Tensor({rows, cols});
  Tensor m = Tensor::RandomNormal({rows, cols}, *init.rng(), 0.0F, 1.0F);
  // Orthonormalize the columns when rows >= cols, otherwise the rows
  // (of the row-major matrix: column j's element i is at i·cols + j).
  if (rows >= cols) {
    GramSchmidt(m.data().data(), cols, rows, /*vs=*/1, /*ts=*/cols);
  } else {
    GramSchmidt(m.data().data(), rows, cols, /*vs=*/cols, /*ts=*/1);
  }
  return m;
}

}  // namespace pelican::nn
