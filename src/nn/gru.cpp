#include "nn/gru.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/thread_pool.h"
#include "common/workspace.h"
#include "nn/activations.h"
#include "nn/initializers.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace pelican::nn {

namespace {
// Flat elementwise map over [0, size); iterations are independent, so
// the shard layout cannot change the arithmetic.
template <typename Fn>
void ParallelApplyFlat(std::size_t size, Fn&& fn) {
  ParallelFor(0, size, fn, 1U << 14U);
}
}  // namespace

Gru::Gru(std::int64_t input_size, std::int64_t units, Rng& rng,
         bool return_sequences)
    : input_size_(input_size),
      units_(units),
      return_sequences_(return_sequences),
      wz_(GlorotUniform({input_size, units}, input_size, units, rng)),
      wr_(GlorotUniform({input_size, units}, input_size, units, rng)),
      wh_(GlorotUniform({input_size, units}, input_size, units, rng)),
      uz_(Orthogonal(units, units, rng)),
      ur_(Orthogonal(units, units, rng)),
      uh_(Orthogonal(units, units, rng)),
      bz_({units}),
      br_({units}),
      bh_({units}),
      dwz_({input_size, units}),
      dwr_({input_size, units}),
      dwh_({input_size, units}),
      duz_({units, units}),
      dur_({units, units}),
      duh_({units, units}),
      dbz_({units}),
      dbr_({units}),
      dbh_({units}) {
  PELICAN_CHECK(input_size > 0 && units > 0);
  qop_.name = "gru.w_zrh";
}

void Gru::RefreshFusedPanels() {
  const std::int64_t c = input_size_, h = units_;
  if (w_zrh_.empty()) {  // first training pass or int8 freeze
    w_zrh_ = Tensor({c, 3 * h});
    u_zr_ = Tensor({h, 2 * h});
    b_zrh_ = Tensor({3 * h});
  }
  float* wp = w_zrh_.data().data();
  for (std::int64_t i = 0; i < c; ++i) {
    float* dst = wp + i * 3 * h;
    std::copy_n(wz_.data().data() + i * h, h, dst);
    std::copy_n(wr_.data().data() + i * h, h, dst + h);
    std::copy_n(wh_.data().data() + i * h, h, dst + 2 * h);
  }
  float* up = u_zr_.data().data();
  for (std::int64_t i = 0; i < h; ++i) {
    float* dst = up + i * 2 * h;
    std::copy_n(uz_.data().data() + i * h, h, dst);
    std::copy_n(ur_.data().data() + i * h, h, dst + h);
  }
  float* bp = b_zrh_.data().data();
  std::copy_n(bz_.data().data(), h, bp);
  std::copy_n(br_.data().data(), h, bp + h);
  std::copy_n(bh_.data().data(), h, bp + 2 * h);
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
Tensor Gru::TrainForward(const Tensor& x) {
  PELICAN_CHECK(quant_mode_ != quant::Mode::kInt8,
                "int8 forward is inference-only");
  PELICAN_CHECK(x.rank() == 3 && x.dim(2) == input_size_,
                "GRU expects (N, L, C_in)");
  const std::int64_t n = x.dim(0), len = x.dim(1);
  const std::int64_t h = units_, h3 = 3 * units_;
  x_ = x;
  RefreshFusedPanels();

  hs_.clear();
  zs_.clear();
  rs_.clear();
  hcands_.clear();
  rhs_.clear();
  hs_.push_back(Tensor({n, h}));  // h_0 = 0

  Workspace::Scope scope;
  float* proj = Workspace::Tls().Alloc(static_cast<std::size_t>(n * len * h3));
  kernels::Gemm(false, false, n * len, h3, input_size_, x.data().data(),
                input_size_, w_zrh_.data().data(), h3, proj, h3,
                /*accumulate=*/false);
  AddRowBias(proj, n * len, h3, b_zrh_.data().data());

  const std::int64_t ld = len * h3;  // row stride of one step's sub-view
  for (std::int64_t t = 0; t < len; ++t) {
    const Tensor& hprev = hs_.back();
    const float* hpv = hprev.data().data();
    float* pt = proj + t * h3;

    // pre_z/pre_r += h_{t-1} · [Uz|Ur] in one GEMM.
    kernels::Gemm(false, false, n, 2 * h, h, hpv, h, u_zr_.data().data(),
                  2 * h, pt, ld, /*accumulate=*/true);

    Tensor z({n, h}), r({n, h}), rh({n, h});
    {
      float* zp = z.data().data();
      float* rp = r.data().data();
      float* rhp = rh.data().data();
      ParallelApplyFlat(static_cast<std::size_t>(n * h), [&](std::size_t ui) {
        const auto idx = static_cast<std::int64_t>(ui);
        const std::int64_t i = idx / h, j = idx % h;
        const float* row = pt + i * ld;
        zp[idx] = HardSigmoidF(row[j]);
        const float rv = HardSigmoidF(row[h + j]);
        rp[idx] = rv;
        rhp[idx] = rv * hpv[idx];
      });
    }

    // pre_h += (r ⊙ h_{t-1}) · Uh, then tanh.
    kernels::Gemm(false, false, n, h, h, rh.data().data(), h,
                  uh_.data().data(), h, pt + 2 * h, ld, /*accumulate=*/true);

    Tensor hc({n, h}), hnew({n, h});
    {
      float* hcp = hc.data().data();
      float* hn = hnew.data().data();
      const float* zp = z.data().data();
      ParallelApplyFlat(static_cast<std::size_t>(n * h), [&](std::size_t ui) {
        const auto idx = static_cast<std::int64_t>(ui);
        const std::int64_t i = idx / h, j = idx % h;
        const float cv = TanhF(pt[i * ld + 2 * h + j]);
        hcp[idx] = cv;
        hn[idx] = zp[idx] * hpv[idx] + (1.0F - zp[idx]) * cv;
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
  ParallelFor(
      0, static_cast<std::size_t>(n),
      [&](std::size_t ui) {
        const auto i = static_cast<std::int64_t>(ui);
        for (std::int64_t t = 0; t < len; ++t) {
          const float* hp =
              hs_[static_cast<std::size_t>(t + 1)].data().data();
          std::copy(hp + i * h, hp + (i + 1) * h, yp + (i * len + t) * h);
        }
      },
      static_cast<std::size_t>(
          std::max<std::int64_t>(1, (1 << 14) / std::max<std::int64_t>(
                                        1, len * h))));
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
// of pre_h itself. Same elementwise formulas and parallel grain
// otherwise.
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
      ParallelApplyFlat(static_cast<std::size_t>(n * h), [&](std::size_t ui) {
        const auto idx = static_cast<std::int64_t>(ui);
        const std::int64_t i = idx / h, j = idx % h;
        const float* row = pt + i * ld;
        zp[idx] = HardSigmoidF(row[j]);
        const float rv = HardSigmoidF(row[h + j]);
        rhp[idx] = rv * hpv[idx];
      });
    }

    // pre_h += (r ⊙ h_{t-1}) · Uh, then tanh.
    if (t > 0) {
      kernels::Gemm(false, false, n, h, h, rh.data().data(), h,
                    uh_.data().data(), h, pt + 2 * h, ld,
                    /*accumulate=*/true);
    } else {
      const float* rhp = rh.data().data();
      for (std::int64_t i = 0; i < n; ++i) {
        const float* rh_row = rhp + i * h;
        if (std::any_of(rh_row, rh_row + h,
                        [](float v) { return std::isnan(v); })) {
          std::fill_n(pt + i * ld + 2 * h, h,
                      std::numeric_limits<float>::quiet_NaN());
        }
      }
    }

    Tensor hnew({n, h});
    {
      float* hn = hnew.data().data();
      const float* zp = z.data().data();
      ParallelApplyFlat(static_cast<std::size_t>(n * h), [&](std::size_t ui) {
        const auto idx = static_cast<std::int64_t>(ui);
        const std::int64_t i = idx / h, j = idx % h;
        const float cv = TanhF(pt[i * ld + 2 * h + j]);
        hn[idx] = zp[idx] * hpv[idx] + (1.0F - zp[idx]) * cv;
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

// Backward mirrors the fused training pass: per step the three gate
// pre-activation gradients are assembled into one (N, 3H) panel `g` =
// [da_z | da_r | da_h], so the weight-gradient GEMMs against x/h_{t-1}
// and the input/recurrent gradient GEMMs against the fused panels each
// run once wide instead of three times skinny. Weight gradients
// accumulate into fused scratch across all steps and scatter into the
// per-gate masters once at the end.
Tensor Gru::Backward(const Tensor& dy) {
  PELICAN_CHECK(!zs_.empty(), "Backward before Forward");
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
    ParallelApplyFlat(static_cast<std::size_t>(n * h), [&](std::size_t ui) {
      const auto idx = static_cast<std::int64_t>(ui);
      const std::int64_t i = idx / h, j = idx % h;
      float* grow = g + i * h3;
      grow[j] = dhp[idx] * (hpv[idx] - hcp[idx]);
      grow[2 * h + j] =
          dhp[idx] * (1.0F - zp[idx]) * TanhGradFromY(hcp[idx]);
      dhpp[idx] = dhp[idx] * zp[idx];
    });

    // drh = da_h · Uhᵀ.
    Tensor drh({n, h});
    kernels::Gemm(false, true, n, h, h, g + 2 * h, h3, uh_.data().data(), h,
                  drh.data().data(), h, /*accumulate=*/false);

    // Pass 2: da_r into g[:,h:2h), finish da_z, r-path into dh_prev.
    {
      const float* drhp = drh.data().data();
      ParallelApplyFlat(static_cast<std::size_t>(n * h), [&](std::size_t ui) {
        const auto idx = static_cast<std::int64_t>(ui);
        const std::int64_t i = idx / h, j = idx % h;
        float* grow = g + i * h3;
        grow[h + j] =
            drhp[idx] * hpv[idx] * HardSigmoidGradFromY(rp[idx]);
        grow[j] *= HardSigmoidGradFromY(zp[idx]);
        dhpp[idx] += drhp[idx] * rp[idx];
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
    kernels::Gemm(false, true, n, h, h2, g, h3, u_zr_.data().data(), h2,
                  dhpp, h, /*accumulate=*/true);

    // Input gradient straight into the strided step slice of dx.
    kernels::Gemm(false, true, n, c, h3, g, h3, w_zrh_.data().data(), h3,
                  dx.data().data() + t * c, len * c, /*accumulate=*/false);

    dh = std::move(dh_prev);
  }

  // Scatter the fused gradient panels into the per-gate masters.
  float* dwz = dwz_.data().data();
  float* dwr = dwr_.data().data();
  float* dwh = dwh_.data().data();
  for (std::int64_t i = 0; i < c; ++i) {
    const float* src = dw_zrh + i * h3;
    for (std::int64_t j = 0; j < h; ++j) {
      dwz[i * h + j] += src[j];
      dwr[i * h + j] += src[h + j];
      dwh[i * h + j] += src[2 * h + j];
    }
  }
  float* duz = duz_.data().data();
  float* dur = dur_.data().data();
  for (std::int64_t i = 0; i < h; ++i) {
    const float* src = du_zr + i * h2;
    for (std::int64_t j = 0; j < h; ++j) {
      duz[i * h + j] += src[j];
      dur[i * h + j] += src[h + j];
    }
  }
  for (std::int64_t j = 0; j < h; ++j) {
    dbz_[j] += db_zrh[j];
    dbr_[j] += db_zrh[h + j];
    dbh_[j] += db_zrh[2 * h + j];
  }
  return dx;
}

void Gru::SetQuantMode(quant::Mode mode) {
  if (mode == quant::Mode::kInt8 && !qop_.Ready()) {
    PELICAN_CHECK(qop_.observer.Seen(),
                  "int8 mode requires calibration or a loaded sidecar");
    RefreshFusedPanels();  // quantize the panel the GEMM actually reads
    quant::QuantizeWeightsPerChannel(qop_, w_zrh_.data().data(), input_size_,
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
      {"gru.wz", &wz_, &dwz_}, {"gru.wr", &wr_, &dwr_},
      {"gru.wh", &wh_, &dwh_}, {"gru.uz", &uz_, &duz_},
      {"gru.ur", &ur_, &dur_}, {"gru.uh", &uh_, &duh_},
      {"gru.bz", &bz_, &dbz_}, {"gru.br", &br_, &dbr_},
      {"gru.bh", &bh_, &dbh_},
  };
}

}  // namespace pelican::nn
