// pelican::quant — post-training int8 quantization for inference.
//
// Scheme (DESIGN.md §12): symmetric per-output-channel weights — one
// fp32 scale per output column, zero-point 0, values saturated to
// [-127, 127] — plus one per-tensor activation scale per linear op,
// frozen from a max-|x| observer during a calibration pass over held-out
// rows. A quantized matmul then computes
//
//   y[i,j] = act_scale · w_scale[j] · Σₚ q(x)[i,p] · q(w)[p,j]
//
// with the integer product running through kernels::GemmInt8 (exact
// int32 accumulation → bit-identical for any thread count) and the
// dequantization applied per element. Each output row depends only on
// its own input row, so results are independent of batch composition —
// the serve-vs-batch byte-equality contract survives quantization.
//
// Training never touches this module; fp32 master weights stay the
// source of truth and quantized tensors are derived artifacts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/kernels.h"

namespace pelican::quant {

// Layer-side quantization state.
//  kOff  — plain fp32 forward (training and default inference).
//  kInt8 — quantized forward using frozen scales (inference only).
// Calibration is not a mode: it is an nn::CalibrationSink attached to
// the context of an fp32 Score call.
enum class Mode { kOff, kInt8 };

// Running max-|x| over everything shown to it. Non-finite values are
// ignored (they would otherwise poison the scale).
class Observer {
 public:
  void Observe(const float* x, std::int64_t n);
  [[nodiscard]] bool Seen() const { return seen_; }
  [[nodiscard]] float max_abs() const { return max_abs_; }
  void Reset() {
    seen_ = false;
    max_abs_ = 0.0F;
  }

 private:
  bool seen_ = false;
  float max_abs_ = 0.0F;
};

// One quantized linear op: a (k,n) row-major int8 weight with
// per-column scales, plus the per-tensor activation scale. `name` is
// the stable identifier used by the `.quant` sidecar ("dense.w", …).
struct LinearQuant {
  std::string name;
  Observer observer;
  std::int64_t k = 0;
  std::int64_t n = 0;
  std::vector<std::int8_t> data;  // k×n row-major quantized weights
  std::vector<float> scales;      // n per-column weight scales
  float act_scale = 0.0F;

  [[nodiscard]] bool Ready() const {
    return !data.empty() && act_scale > 0.0F;
  }
};

// Saturating round-to-nearest int8 quantization: out[i] =
// clamp(round(x[i]·inv_scale), -127, 127).
void QuantizeSymmetric(const float* x, std::int64_t count, float inv_scale,
                       std::int8_t* out);

// Quantizes the fp32 weight (k rows × n output columns, row-major) into
// q.data / q.scales: scale_j = max(maxᵢ|w[i,j]|, 1e-8) / 127.
void QuantizeWeightsPerChannel(LinearQuant& q, const float* w,
                               std::int64_t k, std::int64_t n);

// Freezes q.act_scale from its observer: max(max_abs, 1e-8) / 127, so
// even an all-zero calibration slice yields a usable (tiny) scale.
void FreezeActivationScale(LinearQuant& q);

// y(m, q.n) = dequant( quant(x) · q.data[row_offset…row_offset+k, :] ).
// `x` is row-major m×k with leading dimension k, quantized on the fly
// with q.act_scale. `row_offset` selects a row sub-block of the weight
// (valid because scales are per-column), which is how Conv1D reuses one
// quantized (K·Cin, F) tensor for edge-clipped taps. Writes y with
// leading dimension ldy; requires q.Ready().
void QuantizedMatMul(const float* x, std::int64_t m, std::int64_t k,
                     const LinearQuant& q, std::int64_t row_offset, float* y,
                     std::int64_t ldy);

// A window of an op's output columns: [begin, begin + count).
struct Columns {
  std::int64_t begin = 0;
  std::int64_t count = 0;
};

// QuantizedMatMul (row_offset 0) over some of q's output columns only:
// x is quantized once, the integer GEMM runs once per window on that
// window's columns of q.data in place, and y is written at the
// windows' columns and nowhere else. Each element it writes has
// QuantizedMatMul's bytes: the integer sums are exact, and the
// dequantize is per element. The GRU's Score reads the z and h windows
// of its fused [Wz|Wr|Wh] op this way.
void QuantizedMatMulColumns(const float* x, std::int64_t m, std::int64_t k,
                            const LinearQuant& q,
                            std::span<const Columns> windows, float* y,
                            std::int64_t ldy);

// Test and bench seam, not a user option: QuantizedMatMul with its
// integer GEMM on a given tier, which must be in
// kernels::SupportedIsas(true). Every tier writes the same bytes.
void QuantizedMatMulWith(kernels::Isa isa, const float* x, std::int64_t m,
                         std::int64_t k, const LinearQuant& q,
                         std::int64_t row_offset, float* y, std::int64_t ldy);

}  // namespace pelican::quant
