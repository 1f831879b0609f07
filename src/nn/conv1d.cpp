#include "nn/conv1d.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "common/workspace.h"
#include "nn/initializers.h"
#include "obs/trace.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace pelican::nn {

namespace {
// Work (elements) of one shard at the least.
constexpr std::int64_t kMinShardWork = 1 << 15;

// Lowers x (N, L, C_in) to the im2col matrix (N·L, K_eff·C_in): row
// (i, t) is the receptive field [x(i, t-pad+kk_lo, :), …] for the
// kernel taps [kk_lo, kk_lo+k), with zeros outside the sequence. Taps
// that fall outside the sequence for *every* t (short sequences, e.g.
// L=1 under the paper's K=10) are clipped by the caller — their im2col
// columns would be all-zero, matching the seed's padding semantics
// while skipping the dead FLOPs. Batch items write disjoint rows.
void Im2Col(const float* x, std::int64_t n, std::int64_t len,
            std::int64_t cin, std::int64_t k, std::int64_t kk_lo,
            std::int64_t pad_left, float* col) {
  const std::int64_t kc = k * cin;
  ParallelFor(
      0, static_cast<std::size_t>(n),
      [&](std::size_t uin) {
        const auto in = static_cast<std::int64_t>(uin);
        const float* xs = x + in * len * cin;
        float* cs = col + in * len * kc;
        for (std::int64_t t = 0; t < len; ++t) {
          float* crow = cs + t * kc;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            const std::int64_t s = t + kk_lo + kk - pad_left;
            float* dst = crow + kk * cin;
            if (s < 0 || s >= len) {
              std::fill(dst, dst + cin, 0.0F);
            } else {
              const float* src = xs + s * cin;
              std::copy(src, src + cin, dst);
            }
          }
        }
      },
      ShardGrain(len * kc, kMinShardWork));
}
}  // namespace

Conv1D::Conv1D(std::int64_t in_channels, std::int64_t filters,
               std::int64_t kernel_size, Init init)
    : in_channels_(in_channels),
      filters_(filters),
      kernel_(kernel_size),
      pad_left_((kernel_size - 1) / 2),
      w_(GlorotUniform({kernel_size, in_channels, filters},
                       kernel_size * in_channels, filters, init)),
      b_({filters}) {
  PELICAN_CHECK(in_channels > 0 && filters > 0 && kernel_size > 0);
  qop_.name = "conv1d.w";
}

// The kernel taps that can land inside the sequence for at least one
// output position t. Taps outside [lo, hi] only ever multiply padding
// zeros (e.g. 9 of the paper's K=10 taps when L=1), so the GEMM
// lowering drops them — exact, and a pure function of shapes.
struct TapRange {
  std::int64_t lo;
  std::int64_t count;
};
TapRange ValidTaps(std::int64_t k, std::int64_t len, std::int64_t pad_left) {
  const std::int64_t lo = std::max<std::int64_t>(0, pad_left - (len - 1));
  const std::int64_t hi = std::min<std::int64_t>(k - 1, pad_left + len - 1);
  return {lo, hi - lo + 1};
}

Tensor Conv1D::TrainForward(const Tensor& x) {
  PELICAN_CHECK(quant_mode_ != quant::Mode::kInt8,
                "int8 forward is inference-only");
  Tensor y = Score(x, InferenceContext::ThisThread());
  x_ = x;
  return y;
}

// Score lowers to one wide GEMM over the valid taps:
//   y(N·L, F) = im2col(x)(N·L, K_eff·C_in) · W[kk_lo:](K_eff·C_in, F)
// — the weight tensor (K, C_in, F) is already the GEMM operand in
// row-major, and a tap sub-range is a contiguous row block of it. The
// im2col scratch lives in the context's arena, so steady-state scoring
// and training reallocate nothing. int8 runs the same lowering through
// QuantizedMatMul on the same row block of the quantized weight.
Tensor Conv1D::Score(const Tensor& x, InferenceContext& ctx) const {
  PELICAN_CHECK(x.rank() == 3 && x.dim(2) == in_channels_,
                "Conv1D expects (N, L, C_in)");
  const std::int64_t n = x.dim(0), len = x.dim(1);
  const std::int64_t cin = in_channels_, f = filters_;
  const auto [kk_lo, keff] = ValidTaps(kernel_, len, pad_left_);
  const std::int64_t rows = n * len, kc = keff * cin;
  // im2col entries are a subset of x plus padding zeros (which quantize
  // to exactly 0), so recording the raw input bounds the GEMM operand
  // exactly.
  ctx.Record(qop_, x.data().data(), x.size());

  Tensor y({n, len, f});
  Workspace::Scope scope(ctx.workspace());
  // With one valid tap (L = 1 under "same" padding, and every kernel-1
  // Conv1D) that tap is pad_left, which maps step t to step t: im2col(x)
  // is x itself, and in Backward col2im(dcol) is +0 + dcol, so the
  // GEMMs read x and write dx directly. A GEMM output is never −0 (its
  // sums start at +0.0F), so +0 + dcol = dcol bit for bit.
  const float* col = x.data().data();
  if (keff > 1) {
    float* lowered = ctx.Alloc(static_cast<std::size_t>(rows * kc));
    obs::TraceSpan span("conv1d_im2col", "kernel");
    Im2Col(x.data().data(), n, len, cin, keff, kk_lo, pad_left_, lowered);
    col = lowered;
  }
  if (quant_mode_ == quant::Mode::kInt8) {
    obs::TraceSpan span("conv1d_gemm_int8_fwd", "kernel");
    quant::QuantizedMatMul(col, rows, kc, qop_, kk_lo * cin, y.data().data(),
                           f);
  } else {
    obs::TraceSpan span("conv1d_gemm_fwd", "kernel");
    kernels::Gemm(false, false, rows, f, kc, col, kc,
                  w_.data().data() + kk_lo * cin * f, f, y.data().data(), f,
                  /*accumulate=*/false);
  }
  AddRowBias(y.data().data(), rows, f, b_.data().data());
  return y;
}

// Backward is three GEMMs over the same im2col lowering:
//   dW(K·C_in, F) += colᵀ · dy      db += Σ rows(dy)
//   dcol(N·L, K·C_in) = dy · Wᵀ     dx = col2im(dcol)
// (with one valid tap, col is x and dcol is dx).
// The old per-shard dW/db partial buffers are gone: the reduction over
// the batch now happens inside the GEMM k-loop, whose accumulation
// order is fixed by shapes and block sizes — still bit-identical for
// any thread count.
Tensor Conv1D::Backward(const Tensor& dy) {
  const std::int64_t n = x_.dim(0), len = x_.dim(1);
  const std::int64_t cin = in_channels_, f = filters_;
  PELICAN_CHECK(dy.rank() == 3 && dy.dim(0) == n && dy.dim(1) == len &&
                    dy.dim(2) == f,
                "Conv1D backward shape mismatch");
  AllocateGrads(Params());
  const auto [kk_lo, keff] = ValidTaps(kernel_, len, pad_left_);
  const std::int64_t rows = n * len, kc = keff * cin;
  Tensor dx({n, len, cin});
  const float* dyp = dy.data().data();
  // Taps outside the valid range only ever saw padding zeros, so their
  // weight gradient is exactly zero; the GEMMs address the valid row
  // block of W / dW and leave the rest of dW untouched.
  float* dwp = dw_.data().data() + kk_lo * cin * f;
  const float* wp = w_.data().data() + kk_lo * cin * f;

  dw_written_.Add(kk_lo * cin * f, (kk_lo + keff) * cin * f);
  const bool identity = keff == 1;

  Workspace::Scope scope;
  const float* col = x_.data().data();
  if (!identity) {
    float* lowered =
        Workspace::Tls().Alloc(static_cast<std::size_t>(rows * kc));
    obs::TraceSpan span("conv1d_im2col", "kernel");
    Im2Col(x_.data().data(), n, len, cin, keff, kk_lo, pad_left_, lowered);
    col = lowered;
  }

  SumRowsInto(dyp, rows, f, db_.data().data());
  float* dcol = identity ? dx.data().data()
                         : Workspace::Tls().Alloc(
                               static_cast<std::size_t>(rows * kc));
  {
    obs::TraceSpan span("conv1d_gemm_bwd", "kernel");
    kernels::Gemm(true, false, kc, f, rows, col, kc, dyp, f, dwp, f,
                  /*accumulate=*/true);
    kernels::Gemm(false, true, rows, kc, f, dyp, f, wp, f, dcol, kc,
                  /*accumulate=*/false);
  }
  if (identity) return dx;

  // col2im: batch items touch disjoint dx rows; within an item the
  // (t, kk) scatter order is fixed, so threading cannot reorder it.
  float* dxp = dx.data().data();
  ParallelFor(
      0, static_cast<std::size_t>(n),
      [&](std::size_t uin) {
        const auto in = static_cast<std::int64_t>(uin);
        const float* cs = dcol + in * len * kc;
        float* dxs = dxp + in * len * cin;
        for (std::int64_t t = 0; t < len; ++t) {
          const float* crow = cs + t * kc;
          for (std::int64_t kk = 0; kk < keff; ++kk) {
            const std::int64_t s = t + kk_lo + kk - pad_left_;
            if (s < 0 || s >= len) continue;
            float* dst = dxs + s * cin;
            const float* src = crow + kk * cin;
            for (std::int64_t c = 0; c < cin; ++c) dst[c] += src[c];
          }
        }
      },
      ShardGrain(len * kc, kMinShardWork));
  return dx;
}

std::vector<ParamRef> Conv1D::Params() {
  return {{"conv1d.w", &w_, &dw_, &dw_written_}, {"conv1d.b", &b_, &db_}};
}

void Conv1D::SetQuantMode(quant::Mode mode) {
  if (mode == quant::Mode::kInt8 && !qop_.Ready()) {
    PELICAN_CHECK(qop_.observer.Seen(),
                  "int8 mode requires calibration or a loaded sidecar");
    quant::QuantizeWeightsPerChannel(qop_, w_.data().data(),
                                     kernel_ * in_channels_, filters_);
    quant::FreezeActivationScale(qop_);
  }
  quant_mode_ = mode;
}

void Conv1D::CollectQuantOps(std::vector<quant::LinearQuant*>& ops) {
  ops.push_back(&qop_);
}

}  // namespace pelican::nn
