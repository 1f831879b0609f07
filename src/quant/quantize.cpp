#include "quant/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/check.h"
#include "common/workspace.h"
#include "tensor/kernels.h"

namespace pelican::quant {

void Observer::Observe(const float* x, std::int64_t n) {
  float m = max_abs_;
  for (std::int64_t i = 0; i < n; ++i) {
    const float av = std::fabs(x[i]);
    if (std::isfinite(av) && av > m) m = av;
  }
  max_abs_ = m;
  seen_ = true;
}

void QuantizeSymmetric(const float* x, std::int64_t count, float inv_scale,
                       std::int8_t* out) {
  std::int64_t i = 0;
#if defined(__SSE2__)
  // This runs per predict call on every activation row, so it is the
  // hot half of the quantized path alongside the int8 GEMM. cvtps uses
  // the default round-to-nearest-even mode — the same result lrintf
  // gives — and both clamps put the limit in the blendable operand so
  // NaN collapses to -127 exactly like the scalar min/max chain.
  const __m128 inv = _mm_set1_ps(inv_scale);
  const __m128 lo = _mm_set1_ps(-127.0F);
  const __m128 hi = _mm_set1_ps(127.0F);
  for (; i + 8 <= count; i += 8) {
    __m128 v0 = _mm_mul_ps(_mm_loadu_ps(x + i), inv);
    __m128 v1 = _mm_mul_ps(_mm_loadu_ps(x + i + 4), inv);
    v0 = _mm_min_ps(_mm_max_ps(v0, lo), hi);
    v1 = _mm_min_ps(_mm_max_ps(v1, lo), hi);
    const __m128i w =
        _mm_packs_epi32(_mm_cvtps_epi32(v0), _mm_cvtps_epi32(v1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                     _mm_packs_epi16(w, w));
  }
#endif
  for (; i < count; ++i) {
    // Clamp before lrintf so ±inf (and NaN, which both min/max drop)
    // can't reach the float→int conversion.
    const float v =
        std::min(127.0F, std::max(-127.0F, x[i] * inv_scale));
    out[i] = static_cast<std::int8_t>(std::lrintf(v));
  }
}

void QuantizeWeightsPerChannel(LinearQuant& q, const float* w,
                               std::int64_t k, std::int64_t n) {
  PELICAN_CHECK(k > 0 && n > 0, "quantize: empty weight");
  q.k = k;
  q.n = n;
  q.scales.assign(static_cast<std::size_t>(n), 0.0F);
  q.data.assign(static_cast<std::size_t>(k * n), 0);
  for (std::int64_t j = 0; j < n; ++j) {
    float m = 0.0F;
    for (std::int64_t i = 0; i < k; ++i) {
      const float av = std::fabs(w[i * n + j]);
      if (std::isfinite(av) && av > m) m = av;
    }
    q.scales[static_cast<std::size_t>(j)] = std::max(m, 1e-8F) / 127.0F;
  }
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const float inv = 1.0F / q.scales[static_cast<std::size_t>(j)];
      const float v =
          std::min(127.0F, std::max(-127.0F, w[i * n + j] * inv));
      q.data[static_cast<std::size_t>(i * n + j)] =
          static_cast<std::int8_t>(std::lrintf(v));
    }
  }
}

void FreezeActivationScale(LinearQuant& q) {
  q.act_scale = std::max(q.observer.max_abs(), 1e-8F) / 127.0F;
}

namespace {

// QuantizedMatMul over a given int8 GEMM and windows of q's output
// columns: quantize x once, then per window one int32 GEMM and the
// dequantize y = (act_scale · scale_j) · acc. The per-column products
// are formed once per call; each is the same rounded float the
// left-to-right `act_scale * scale_j * acc` forms first, so y keeps
// that expression's bytes, and the loop over j vectorizes (this file
// builds at -O3; no -ffast-math, no contraction).
template <typename GemmInt8Fn>
void QuantizedMatMulOn(GemmInt8Fn&& gemm, const float* x, std::int64_t m,
                       std::int64_t k, const LinearQuant& q,
                       std::int64_t row_offset,
                       std::span<const Columns> windows, float* y,
                       std::int64_t ldy) {
  PELICAN_CHECK(q.Ready(), "quantized matmul on unfrozen op " + q.name);
  PELICAN_CHECK(row_offset >= 0 && row_offset + k <= q.k,
                "quantized matmul row window out of range for " + q.name);
  const std::int64_t n = q.n;
  for (const Columns& w : windows) {
    PELICAN_CHECK(w.begin >= 0 && w.count >= 0 && w.begin + w.count <= n,
                  "quantized matmul column window out of range for " +
                      q.name);
  }
  if (m <= 0) return;
  Workspace::Scope scope;
  Workspace& ws = Workspace::Tls();
  // int8/int32 scratch carved from the float arena (same byte widths).
  auto* xq = reinterpret_cast<std::int8_t*>(
      ws.Alloc(static_cast<std::size_t>((m * k + 3) / 4)));
  QuantizeSymmetric(x, m * k, 1.0F / q.act_scale, xq);
  auto* acc = reinterpret_cast<std::int32_t*>(
      ws.Alloc(static_cast<std::size_t>(m * n)));
  float* col_scale = ws.Alloc(static_cast<std::size_t>(n));
  const float act_scale = q.act_scale;
  const float* scales = q.scales.data();
  for (const Columns& w : windows) {
    const std::int64_t j0 = w.begin, j1 = w.begin + w.count;
    gemm(m, w.count, k, xq, k, q.data.data() + row_offset * n + j0, n,
         acc + j0, n, false);
    for (std::int64_t j = j0; j < j1; ++j) {
      col_scale[j] = act_scale * scales[j];
    }
    for (std::int64_t i = 0; i < m; ++i) {
      const std::int32_t* arow = acc + i * n;
      float* yrow = y + i * ldy;
      for (std::int64_t j = j0; j < j1; ++j) {
        yrow[j] = col_scale[j] * static_cast<float>(arow[j]);
      }
    }
  }
}

}  // namespace

void QuantizedMatMul(const float* x, std::int64_t m, std::int64_t k,
                     const LinearQuant& q, std::int64_t row_offset, float* y,
                     std::int64_t ldy) {
  const Columns all[] = {{0, q.n}};
  QuantizedMatMulOn(kernels::GemmInt8, x, m, k, q, row_offset, all, y, ldy);
}

void QuantizedMatMulColumns(const float* x, std::int64_t m, std::int64_t k,
                            const LinearQuant& q,
                            std::span<const Columns> windows, float* y,
                            std::int64_t ldy) {
  QuantizedMatMulOn(kernels::GemmInt8, x, m, k, q, 0, windows, y, ldy);
}

void QuantizedMatMulWith(kernels::Isa isa, const float* x, std::int64_t m,
                         std::int64_t k, const LinearQuant& q,
                         std::int64_t row_offset, float* y,
                         std::int64_t ldy) {
  const Columns all[] = {{0, q.n}};
  QuantizedMatMulOn(
      [isa](auto... args) { kernels::GemmInt8With(isa, args...); }, x, m, k,
      q, row_offset, all, y, ldy);
}

}  // namespace pelican::quant
