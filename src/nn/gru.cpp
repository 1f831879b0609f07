#include "nn/gru.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>

#include "common/thread_pool.h"
#include "common/workspace.h"
#include "nn/activations.h"
#include "nn/initializers.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace pelican::nn {

namespace {
// Runs fn(i) for each row i in [0, n) of `width` elements, sharded by
// rows of about 2^14 elements (a function of the shape only). Rows are
// independent, so the split cannot change a byte.
template <typename Fn>
void ParallelRows(std::int64_t n, std::int64_t width, Fn&& fn) {
  const std::int64_t grain =
      std::max<std::int64_t>(1, (1 << 14) / std::max<std::int64_t>(1, width));
  ParallelFor(
      0, static_cast<std::size_t>(n),
      [&](std::size_t i) { fn(static_cast<std::int64_t>(i)); },
      static_cast<std::size_t>(grain));
}

// kernels::MaxAbsBits below kInfBits: every value finite.
constexpr std::int32_t kInfBits = 0x7f800000;
std::int32_t MaxAbsBits(const Tensor& t) {
  return kernels::MaxAbsBits(t.data().data(), t.size());
}
float BitsToFloat(std::int32_t bits) { return std::bit_cast<float>(bits); }

// Whether a GEMM element summing k products, each |a|·|b| with
// |a| ≤ a_max and |b| ≤ b_max, plus a bias |c| ≤ c_max, stays far below
// FLT_MAX: then no partial sum, rounded or not, can overflow.
bool FarBelowOverflow(float a_max, float b_max, std::int64_t k,
                      float c_max) {
  return static_cast<double>(a_max) * b_max * static_cast<double>(k) +
             c_max <
         0x1.0p100;
}
}  // namespace

Gru::Gru(std::int64_t input_size, std::int64_t units, Init init,
         bool return_sequences)
    : input_size_(input_size),
      units_(units),
      return_sequences_(return_sequences),
      wz_(GlorotUniform({input_size, units}, input_size, units, init)),
      wr_(GlorotUniform({input_size, units}, input_size, units, init)),
      wh_(GlorotUniform({input_size, units}, input_size, units, init)),
      uz_(Orthogonal(units, units, init)),
      ur_(Orthogonal(units, units, init)),
      uh_(Orthogonal(units, units, init)),
      bz_({units}),
      br_({units}),
      bh_({units}) {
  PELICAN_CHECK(input_size > 0 && units > 0);
  qop_.name = "gru.w_zrh";
}

namespace {
// Writes the gate tensors side by side, [a | b | …] (rows × k·h, each
// part rows × h), into `panel`, allocating it on first use.
void FusePanel(std::initializer_list<const Tensor*> parts, std::int64_t rows,
               std::int64_t h, Tensor& panel) {
  const auto k = static_cast<std::int64_t>(parts.size());
  if (panel.empty()) panel = Tensor({rows, k * h});
  float* dst = panel.data().data();
  for (std::int64_t i = 0; i < rows; ++i) {
    for (const Tensor* part : parts) {
      dst = std::copy_n(part->data().data() + i * h, h, dst);
    }
  }
}
}  // namespace

const float* Gru::RecurrentPanel() {
  if (!u_zr_current_) {
    FusePanel({&uz_, &ur_}, units_, units_, u_zr_);
    u_zr_current_ = true;
  }
  return u_zr_.data().data();
}

// The training pass runs two fused GEMMs per call plus two skinny ones
// per step: the z/r/h input projections for *all* timesteps go through
// a single (N·L, C)·(C, 3H) GEMM against the packed [Wz|Wr|Wh] panel,
// and per step the z/r recurrent terms use the packed [Uz|Ur] panel.
// The per-step projections live as a strided sub-view of the workspace
// `proj` buffer (leading dimension L·3H), which the GEMM addresses
// directly — no per-step gate copies. It keeps its own code rather
// than calling Score because Backward reads the fused panels and every
// step's gates.
//
// It skips the work that h₀ = 0 makes dead, when the call's inputs
// prove the skip exact (DESIGN.md §8); otherwise it runs in full:
//   - at t = 0, both recurrent GEMMs, when U is finite and r₁ holds no
//     NaN. h₀·[Uz|Ur] and (r₁ ⊙ h₀)·Uh are then sums of ±0 products,
//     which start at +0.0F and so are +0; adding +0 to a GEMM output
//     plus bias (never −0) changes no bit;
//   - at L = 1, also the reset-gate projection, when in addition x, Wr
//     and br are finite and |x|·|Wr|·C + |br| stays far below FLT_MAX:
//     then pre_r is finite, r₁ lies in [0, 1], and nothing else reads
//     it. The z and h columns are the same GEMM's columns: the kernel's
//     per-element order depends on k alone.
Tensor Gru::TrainForward(const Tensor& x) {
  PELICAN_CHECK(quant_mode_ != quant::Mode::kInt8,
                "int8 forward is inference-only");
  PELICAN_CHECK(x.rank() == 3 && x.dim(2) == input_size_,
                "GRU expects (N, L, C_in)");
  const std::int64_t n = x.dim(0), len = x.dim(1);
  const std::int64_t c = input_size_, h = units_, h3 = 3 * units_;
  x_ = x;
  // The masters may have changed since the last pass: rebuild the input
  // panels now, [Uz|Ur] on its first read.
  FusePanel({&wz_, &wr_, &wh_}, c, h, w_zrh_);
  FusePanel({&bz_, &br_, &bh_}, 1, h, b_zrh_);
  u_zr_current_ = false;

  hs_.clear();
  zs_.clear();
  rs_.clear();
  hcands_.clear();
  rhs_.clear();
  hs_.push_back(Tensor({n, h}));  // h_0 = 0

  const std::int32_t u_bits =
      std::max({MaxAbsBits(uz_), MaxAbsBits(ur_), MaxAbsBits(uh_)});
  first_step_fast_ = u_bits < kInfBits;
  u_abs_max_ = BitsToFloat(u_bits);
  reset_gate_skipped_ = false;
  if (first_step_fast_ && len == 1) {
    const std::int32_t x_bits = MaxAbsBits(x);
    const std::int32_t wr_bits = MaxAbsBits(wr_);
    const std::int32_t br_bits = MaxAbsBits(br_);
    reset_gate_skipped_ =
        std::max({x_bits, wr_bits, br_bits}) < kInfBits &&
        FarBelowOverflow(BitsToFloat(x_bits), BitsToFloat(wr_bits), c,
                         BitsToFloat(br_bits));
  }

  Workspace::Scope scope;
  float* proj = Workspace::Tls().Alloc(static_cast<std::size_t>(n * len * h3));
  if (reset_gate_skipped_) {
    // The z and h columns only; the r columns stay unwritten.
    for (const std::int64_t col : {std::int64_t{0}, 2 * h}) {
      kernels::Gemm(false, false, n, h, c, x.data().data(), c,
                    w_zrh_.data().data() + col, h3, proj + col, h3,
                    /*accumulate=*/false);
    }
    const float* bp = b_zrh_.data().data();
    ParallelRows(n, h, [&](std::int64_t i) {
      float* row = proj + i * h3;
      for (std::int64_t j = 0; j < h; ++j) {
        row[j] += bp[j];
        row[2 * h + j] += bp[2 * h + j];
      }
    });
  } else {
    kernels::Gemm(false, false, n * len, h3, c, x.data().data(), c,
                  w_zrh_.data().data(), h3, proj, h3, /*accumulate=*/false);
    AddRowBias(proj, n * len, h3, b_zrh_.data().data());
  }

  const std::int64_t ld = len * h3;  // row stride of one step's sub-view
  for (std::int64_t t = 0; t < len; ++t) {
    const Tensor& hprev = hs_.back();
    const float* hpv = hprev.data().data();
    float* pt = proj + t * h3;

    // pre_z/pre_r += h_{t-1} · [Uz|Ur] in one GEMM.
    if (t > 0 || !first_step_fast_) {
      kernels::Gemm(false, false, n, 2 * h, h, hpv, h, RecurrentPanel(),
                    2 * h, pt, ld, /*accumulate=*/true);
    }

    Tensor z({n, h}), r, rh;
    if (reset_gate_skipped_) {
      float* zp = z.data().data();
      ParallelRows(n, h, [&](std::int64_t i) {
        const float* row = pt + i * ld;
        float* zrow = zp + i * h;
        for (std::int64_t j = 0; j < h; ++j) zrow[j] = HardSigmoidF(row[j]);
      });
    } else {
      r = Tensor({n, h});
      rh = Tensor({n, h});
      float* zp = z.data().data();
      float* rp = r.data().data();
      float* rhp = rh.data().data();
      ParallelRows(n, h, [&](std::int64_t i) {
        const float* row = pt + i * ld;
        const float* hrow = hpv + i * h;
        float* zrow = zp + i * h;
        float* rrow = rp + i * h;
        float* rhrow = rhp + i * h;
        for (std::int64_t j = 0; j < h; ++j) {
          zrow[j] = HardSigmoidF(row[j]);
          const float rv = HardSigmoidF(row[h + j]);
          rrow[j] = rv;
          rhrow[j] = rv * hrow[j];
        }
      });
      // r₁ ∈ [0, 1] unless pre_r is NaN.
      if (t == 0 && first_step_fast_) {
        first_step_fast_ = MaxAbsBits(r) < kInfBits;
      }
    }

    // pre_h += (r ⊙ h_{t-1}) · Uh, then tanh.
    if (t > 0 || !first_step_fast_) {
      kernels::Gemm(false, false, n, h, h, rh.data().data(), h,
                    uh_.data().data(), h, pt + 2 * h, ld,
                    /*accumulate=*/true);
    }

    Tensor hc({n, h}), hnew({n, h});
    {
      float* hcp = hc.data().data();
      float* hn = hnew.data().data();
      const float* zp = z.data().data();
      ParallelRows(n, h, [&](std::int64_t i) {
        float* cand = hcp + i * h;
        kernels::Tanh(pt + i * ld + 2 * h, cand, h);
        const float* zrow = zp + i * h;
        const float* hrow = hpv + i * h;
        float* out = hn + i * h;
        for (std::int64_t j = 0; j < h; ++j) {
          out[j] = zrow[j] * hrow[j] + (1.0F - zrow[j]) * cand[j];
        }
      });
    }

    zs_.push_back(std::move(z));
    rs_.push_back(std::move(r));
    rhs_.push_back(std::move(rh));
    hcands_.push_back(std::move(hc));
    hs_.push_back(std::move(hnew));
  }

  if (!return_sequences_) return hs_.back();

  Tensor y({n, len, h});
  float* yp = y.data().data();
  ParallelRows(n, len * h, [&](std::int64_t i) {
    for (std::int64_t t = 0; t < len; ++t) {
      const float* hp = hs_[static_cast<std::size_t>(t + 1)].data().data();
      std::copy(hp + i * h, hp + (i + 1) * h, yp + (i * len + t) * h);
    }
  });
  return y;
}

// Score computes the bytes the fp32 training pass computes, minus work
// that cannot change them, with every mutable member replaced by
// context scratch (so it stays const and reentrant).
//
// No fused panel is built: the fp32 projections run one GEMM per gate
// straight from the per-gate masters into that gate's columns of the
// strided `proj` buffer. The kernel's per-element order depends on k
// alone, so each column gets the bits the fused [Wz|Wr|Wh] GEMM gives
// it. The int8 projection reads the quantized fused panel.
//
// At t = 0, h₀ = 0, so both recurrent GEMMs are skipped. With finite U
// (LoadWeights rejects non-finite weights) the skipped products are +0
// in every element, and adding +0 changes no output byte: it can only
// turn a -0 pre-activation into +0, which hard_sigmoid maps to the
// same 0.5 and which h₁ = z·0 + (1 - z)·tanh(·) sums to the same +0.
// The exception is a row whose r holds a NaN: there the full
// (r ⊙ h₀)·Uh is NaN across the row, so Score writes NaN into that row
// of pre_h itself. Same elementwise formulas otherwise; the tanh runs
// in place on each row's pre_h span, which is scratch here.
Tensor Gru::Score(const Tensor& x, InferenceContext& ctx) const {
  PELICAN_CHECK(x.rank() == 3 && x.dim(2) == input_size_,
                "GRU expects (N, L, C_in)");
  const std::int64_t n = x.dim(0), len = x.dim(1);
  const std::int64_t h = units_, h3 = 3 * units_;
  const Tensor* gate_w[3] = {&wz_, &wr_, &wh_};
  const Tensor* gate_b[3] = {&bz_, &br_, &bh_};
  ctx.Record(qop_, x.data().data(), x.size());

  Workspace::Scope scope(ctx.workspace());
  float* proj = ctx.Alloc(static_cast<std::size_t>(n * len * h3));
  if (quant_mode_ == quant::Mode::kInt8) {
    quant::QuantizedMatMul(x.data().data(), n * len, input_size_, qop_, 0,
                           proj, h3);
  } else {
    for (int g = 0; g < 3; ++g) {
      kernels::Gemm(false, false, n * len, h, input_size_, x.data().data(),
                    input_size_, gate_w[g]->data().data(), h, proj + g * h,
                    h3, /*accumulate=*/false);
    }
  }
  for (std::int64_t i = 0; i < n * len; ++i) {
    float* row = proj + i * h3;
    for (int g = 0; g < 3; ++g) {
      const float* bias = gate_b[g]->data().data();
      for (std::int64_t j = 0; j < h; ++j) row[g * h + j] += bias[j];
    }
  }

  Tensor y = return_sequences_ ? Tensor({n, len, h}) : Tensor({n, h});
  Tensor hprev({n, h});  // h_0 = 0
  const std::int64_t ld = len * h3;  // row stride of one step's sub-view
  for (std::int64_t t = 0; t < len; ++t) {
    const float* hpv = hprev.data().data();
    float* pt = proj + t * h3;

    // pre_z += h_{t-1} · Uz, pre_r += h_{t-1} · Ur.
    if (t > 0) {
      kernels::Gemm(false, false, n, h, h, hpv, h, uz_.data().data(), h, pt,
                    ld, /*accumulate=*/true);
      kernels::Gemm(false, false, n, h, h, hpv, h, ur_.data().data(), h,
                    pt + h, ld, /*accumulate=*/true);
    }

    Tensor z({n, h}), rh({n, h});
    {
      float* zp = z.data().data();
      float* rhp = rh.data().data();
      ParallelRows(n, h, [&](std::int64_t i) {
        const float* row = pt + i * ld;
        const float* hrow = hpv + i * h;
        float* zrow = zp + i * h;
        float* rhrow = rhp + i * h;
        for (std::int64_t j = 0; j < h; ++j) {
          zrow[j] = HardSigmoidF(row[j]);
          rhrow[j] = HardSigmoidF(row[h + j]) * hrow[j];
        }
      });
    }

    // pre_h += (r ⊙ h_{t-1}) · Uh, then tanh.
    if (t > 0) {
      kernels::Gemm(false, false, n, h, h, rh.data().data(), h,
                    uh_.data().data(), h, pt + 2 * h, ld,
                    /*accumulate=*/true);
    } else {
      // A branch-free OR over the row rather than std::any_of, whose
      // early exit keeps GCC from vectorizing the scan.
      const float* rhp = rh.data().data();
      for (std::int64_t i = 0; i < n; ++i) {
        const float* rh_row = rhp + i * h;
        int row_has_nan = 0;
        for (std::int64_t j = 0; j < h; ++j) {
          row_has_nan |= static_cast<int>(std::isnan(rh_row[j]));
        }
        if (row_has_nan != 0) {
          std::fill_n(pt + i * ld + 2 * h, h,
                      std::numeric_limits<float>::quiet_NaN());
        }
      }
    }

    Tensor hnew({n, h});
    {
      float* hn = hnew.data().data();
      const float* zp = z.data().data();
      ParallelRows(n, h, [&](std::int64_t i) {
        float* cand = pt + i * ld + 2 * h;
        kernels::Tanh(cand, cand, h);  // in place: proj is scratch
        const float* zrow = zp + i * h;
        const float* hrow = hpv + i * h;
        float* out = hn + i * h;
        for (std::int64_t j = 0; j < h; ++j) {
          out[j] = zrow[j] * hrow[j] + (1.0F - zrow[j]) * cand[j];
        }
      });
    }

    if (return_sequences_) {
      float* yp = y.data().data();
      const float* hp = hnew.data().data();
      for (std::int64_t i = 0; i < n; ++i) {
        std::copy(hp + i * h, hp + (i + 1) * h, yp + (i * len + t) * h);
      }
    }
    hprev = std::move(hnew);
  }
  if (!return_sequences_) return hprev;
  return y;
}

// Recomputes r₁ and r₁ ⊙ h₀ for a Backward that cannot take the fast
// first step after a forward that skipped the reset gate: the same
// GEMM column, bias and formulas, so the same bytes (the skipped
// h₀·Ur added +0).
void Gru::ComputeSkippedResetGate() {
  const std::int64_t n = x_.dim(0), c = input_size_, h = units_;
  Tensor r({n, h}), rh({n, h});
  float* rp = r.data().data();
  kernels::Gemm(false, false, n, h, c, x_.data().data(), c,
                w_zrh_.data().data() + h, 3 * h, rp, h, /*accumulate=*/false);
  AddRowBias(rp, n, h, b_zrh_.data().data() + h);
  const float* hpv = hs_[0].data().data();
  float* rhp = rh.data().data();
  for (std::int64_t i = 0; i < n * h; ++i) {
    rp[i] = HardSigmoidF(rp[i]);
    rhp[i] = rp[i] * hpv[i];
  }
  rs_[0] = std::move(r);
  rhs_[0] = std::move(rh);
}

// Backward mirrors the fused training pass: per step the three gate
// pre-activation gradients are assembled into one (N, 3H) panel `g` =
// [da_z | da_r | da_h], so the weight-gradient GEMMs against x/h_{t-1}
// and the input/recurrent gradient GEMMs against the fused panels each
// run once wide instead of three times skinny. Weight gradients
// accumulate into fused scratch across all steps and scatter into the
// per-gate masters once at the end.
//
// After a forward that took the fast first step, the first step here
// is fast too when g is finite and |g|·|Uh|·H stays far below FLT_MAX
// (so drh = da_h·Uhᵀ is finite). Then everything h₀ = 0 feeds is
// exact to skip: da_r = drh·h₀·σ′(r) is ±0, so +0 is written instead;
// the dU GEMMs multiply h₀ or r₁ ⊙ h₀ (±0) by finite g, adding +0; and
// dh₀ is discarded. +0 and −0 in da_r give the same dW and dx bytes:
// their sums start at +0.0F and never become −0, and ±0·w is ±0, or the
// same NaN for a non-finite w. With the reset gate skipped (L = 1),
// the r columns of dW are x·(+0) sums, +0 for finite x, and the
// dWr/dbr scatter adds nothing. The dx GEMM keeps the r columns: its
// 256-wide k-panels would otherwise shift and round differently.
Tensor Gru::Backward(const Tensor& dy) {
  PELICAN_CHECK(!zs_.empty(), "Backward before Forward");
  AllocateGrads(Params());
  const auto len = static_cast<std::int64_t>(zs_.size());
  const std::int64_t n = x_.dim(0);
  const std::int64_t c = input_size_;
  const std::int64_t h = units_, h2 = 2 * units_, h3 = 3 * units_;
  if (return_sequences_) {
    PELICAN_CHECK(dy.rank() == 3 && dy.dim(0) == n && dy.dim(1) == len &&
                      dy.dim(2) == h,
                  "GRU backward shape mismatch");
  } else {
    PELICAN_CHECK(dy.rank() == 2 && dy.dim(0) == n && dy.dim(1) == h,
                  "GRU backward shape mismatch");
  }

  Tensor dx({n, len, c});
  Tensor dh({n, h});  // gradient flowing into h_t across steps

  Workspace::Scope scope;
  Workspace& ws = Workspace::Tls();
  float* g = ws.Alloc(static_cast<std::size_t>(n * h3));
  float* dw_zrh = ws.Alloc(static_cast<std::size_t>(c * h3));
  float* du_zr = ws.Alloc(static_cast<std::size_t>(h * h2));
  float* db_zrh = ws.Alloc(static_cast<std::size_t>(h3));
  std::fill(dw_zrh, dw_zrh + c * h3, 0.0F);
  std::fill(du_zr, du_zr + h * h2, 0.0F);
  std::fill(db_zrh, db_zrh + h3, 0.0F);

  bool wrote_u = false, wrote_r = false;
  for (std::int64_t t = len - 1; t >= 0; --t) {
    const auto ut = static_cast<std::size_t>(t);
    // Add the output gradient for this step.
    if (return_sequences_) {
      const float* dyp = dy.data().data();
      float* dhp = dh.data().data();
      for (std::int64_t i = 0; i < n; ++i) {
        const float* src = dyp + (i * len + t) * h;
        for (std::int64_t j = 0; j < h; ++j) dhp[i * h + j] += src[j];
      }
    } else if (t == len - 1) {
      dh.Add(dy);
    }

    if (t == 0 && first_step_fast_ && FastFirstStepGates(dh, g)) {
      // dW += x₀ᵀ·g (z and h columns only when the reset gate was
      // skipped), db += Σ g, dx₀ = g·[Wz|Wr|Wh]ᵀ; nothing else.
      const float* x0 = x_.data().data();
      if (reset_gate_skipped_) {
        for (const std::int64_t col : {std::int64_t{0}, 2 * h}) {
          kernels::Gemm(true, false, c, h, n, x0, len * c, g + col, h3,
                        dw_zrh + col, h3, /*accumulate=*/true);
        }
      } else {
        kernels::Gemm(true, false, c, h3, n, x0, len * c, g, h3, dw_zrh, h3,
                      /*accumulate=*/true);
        wrote_r = true;
      }
      SumRowsInto(g, n, h3, db_zrh);
      kernels::Gemm(false, true, n, c, h3, g, h3, w_zrh_.data().data(), h3,
                    dx.data().data(), len * c, /*accumulate=*/false);
      break;
    }
    if (t == 0 && reset_gate_skipped_) ComputeSkippedResetGate();
    wrote_u = wrote_r = true;

    const Tensor& hprev = hs_[ut];
    const float* hpv = hprev.data().data();
    const float* zp = zs_[ut].data().data();
    const float* rp = rs_[ut].data().data();
    const float* hcp = hcands_[ut].data().data();
    const Tensor& rh = rhs_[ut];

    Tensor dh_prev({n, h});
    float* dhpp = dh_prev.data().data();
    const float* dhp = dh.data().data();

    // Pass 1: dz into g[:,0:h) (scaled to da_z in pass 2), da_h into
    // g[:,2h:3h), and the z-path contribution to dh_prev.
    ParallelRows(n, h, [&](std::int64_t i) {
      float* grow = g + i * h3;
      const float* dhrow = dhp + i * h;
      const float* hrow = hpv + i * h;
      const float* zrow = zp + i * h;
      const float* hcrow = hcp + i * h;
      float* dhprow = dhpp + i * h;
      for (std::int64_t j = 0; j < h; ++j) {
        grow[j] = dhrow[j] * (hrow[j] - hcrow[j]);
        grow[2 * h + j] =
            dhrow[j] * (1.0F - zrow[j]) * TanhGradFromY(hcrow[j]);
        dhprow[j] = dhrow[j] * zrow[j];
      }
    });

    // drh = da_h · Uhᵀ.
    Tensor drh({n, h});
    kernels::Gemm(false, true, n, h, h, g + 2 * h, h3, uh_.data().data(), h,
                  drh.data().data(), h, /*accumulate=*/false);

    // Pass 2: da_r into g[:,h:2h), finish da_z, r-path into dh_prev.
    {
      const float* drhp = drh.data().data();
      ParallelRows(n, h, [&](std::int64_t i) {
        float* grow = g + i * h3;
        const float* drhrow = drhp + i * h;
        const float* hrow = hpv + i * h;
        const float* rrow = rp + i * h;
        const float* zrow = zp + i * h;
        float* dhprow = dhpp + i * h;
        for (std::int64_t j = 0; j < h; ++j) {
          grow[h + j] =
              drhrow[j] * hrow[j] * HardSigmoidGradFromY(rrow[j]);
          grow[j] *= HardSigmoidGradFromY(zrow[j]);
          dhprow[j] += drhrow[j] * rrow[j];
        }
      });
    }

    // Weight gradients, fused where the panel spans the gates:
    //   dWzrh += x_tᵀ · g     (x_t is the strided step slice of x_)
    //   dUzr  += h_{t-1}ᵀ · g[:, 0:2h)
    //   dUh   += (r ⊙ h_{t-1})ᵀ · da_h   (already a single GEMM)
    kernels::Gemm(true, false, c, h3, n, x_.data().data() + t * c, len * c,
                  g, h3, dw_zrh, h3, /*accumulate=*/true);
    kernels::Gemm(true, false, h, h2, n, hpv, h, g, h3, du_zr, h2,
                  /*accumulate=*/true);
    kernels::Gemm(true, false, h, h, n, rh.data().data(), h, g + 2 * h, h3,
                  duh_.data().data(), h, /*accumulate=*/true);
    SumRowsInto(g, n, h3, db_zrh);

    // dh_prev += g[:, 0:2h) · [Uz|Ur]ᵀ.
    kernels::Gemm(false, true, n, h, h2, g, h3, RecurrentPanel(), h2, dhpp,
                  h, /*accumulate=*/true);

    // Input gradient straight into the strided step slice of dx.
    kernels::Gemm(false, true, n, c, h3, g, h3, w_zrh_.data().data(), h3,
                  dx.data().data() + t * c, len * c, /*accumulate=*/false);

    dh = std::move(dh_prev);
  }

  // Scatter the fused gradient panels into the per-gate masters. An
  // unwritten panel holds +0, which leaves a master's bytes alone.
  float* dwz = dwz_.data().data();
  float* dwr = dwr_.data().data();
  float* dwh = dwh_.data().data();
  for (std::int64_t i = 0; i < c; ++i) {
    const float* src = dw_zrh + i * h3;
    for (std::int64_t j = 0; j < h; ++j) {
      dwz[i * h + j] += src[j];
      dwh[i * h + j] += src[2 * h + j];
    }
    if (!wrote_r) continue;
    for (std::int64_t j = 0; j < h; ++j) dwr[i * h + j] += src[h + j];
  }
  if (wrote_u) {
    float* duz = duz_.data().data();
    float* dur = dur_.data().data();
    for (std::int64_t i = 0; i < h; ++i) {
      const float* src = du_zr + i * h2;
      for (std::int64_t j = 0; j < h; ++j) {
        duz[i * h + j] += src[j];
        dur[i * h + j] += src[h + j];
      }
    }
    for (GradWritten* u : {&uz_written_, &ur_written_, &uh_written_}) {
      u->Add(0, h * h);
    }
  }
  for (std::int64_t j = 0; j < h; ++j) {
    dbz_[j] += db_zrh[j];
    dbh_[j] += db_zrh[2 * h + j];
  }
  if (wrote_r) {
    for (std::int64_t j = 0; j < h; ++j) dbr_[j] += db_zrh[h + j];
    wr_written_.Add(0, c * h);
    br_written_.Add(0, h);
  }
  return dx;
}

// The first step's gate gradients for the fast path: g = [da_z | +0 |
// da_h], the formulas of the full path's passes with h = h₀. True when
// g is finite and drh = da_h·Uhᵀ cannot overflow; otherwise the caller
// recomputes g on the full path.
bool Gru::FastFirstStepGates(const Tensor& dh, float* g) const {
  const std::int64_t n = x_.dim(0), h = units_, h3 = 3 * units_;
  const float* dhp = dh.data().data();
  const float* hpv = hs_[0].data().data();
  const float* zp = zs_[0].data().data();
  const float* hcp = hcands_[0].data().data();
  ParallelRows(n, h, [&](std::int64_t i) {
    float* grow = g + i * h3;
    const float* dhrow = dhp + i * h;
    const float* hrow = hpv + i * h;
    const float* zrow = zp + i * h;
    const float* hcrow = hcp + i * h;
    for (std::int64_t j = 0; j < h; ++j) {
      const float dz = dhrow[j] * (hrow[j] - hcrow[j]);
      grow[j] = dz * HardSigmoidGradFromY(zrow[j]);
      grow[h + j] = 0.0F;
      grow[2 * h + j] =
          dhrow[j] * (1.0F - zrow[j]) * TanhGradFromY(hcrow[j]);
    }
  });
  const std::int32_t g_bits = kernels::MaxAbsBits(g, n * h3);
  return g_bits < kInfBits &&
         FarBelowOverflow(BitsToFloat(g_bits), u_abs_max_, h, 0.0F);
}

void Gru::SetQuantMode(quant::Mode mode) {
  if (mode == quant::Mode::kInt8 && !qop_.Ready()) {
    PELICAN_CHECK(qop_.observer.Seen(),
                  "int8 mode requires calibration or a loaded sidecar");
    // Quantize the panel the int8 GEMM reads, built for this alone: a
    // scored network holds no training panel.
    Tensor w_zrh;
    FusePanel({&wz_, &wr_, &wh_}, input_size_, units_, w_zrh);
    quant::QuantizeWeightsPerChannel(qop_, w_zrh.data().data(), input_size_,
                                     3 * units_);
    quant::FreezeActivationScale(qop_);
  }
  quant_mode_ = mode;
}

void Gru::CollectQuantOps(std::vector<quant::LinearQuant*>& ops) {
  ops.push_back(&qop_);
}

std::vector<ParamRef> Gru::Params() {
  return {
      {"gru.wz", &wz_, &dwz_},
      {"gru.wr", &wr_, &dwr_, &wr_written_},
      {"gru.wh", &wh_, &dwh_},
      {"gru.uz", &uz_, &duz_, &uz_written_},
      {"gru.ur", &ur_, &dur_, &ur_written_},
      {"gru.uh", &uh_, &duh_, &uh_written_},
      {"gru.bz", &bz_, &dbz_},
      {"gru.br", &br_, &dbr_, &br_written_},
      {"gru.bh", &bh_, &dbh_},
  };
}

}  // namespace pelican::nn
