// References for nn::Gru that skip nothing h₀ = 0 makes dead, each
// the layer's own code as it stood before a skip, which the layer must
// equal byte for byte: the same kernels::Gemm calls on the same
// operands, the same bias and row-sum helpers and the same elementwise
// formulas in the same order, written as plain loops (the layer's row
// sharding cannot change a byte).
//   ReferenceGru: the training pass without any skip, with every GEMM
//     at every step, the t = 0 recurrent ones on h₀ = 0 included, the
//     reset gate at any L and the full dh₀.
//   ReferenceScore: Score with the reset gate at every step, including
//     t = 0 at L = 1, and the t = 0 NaN-row scan.
#pragma once

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "nn/activations.h"
#include "nn/gru.h"
#include "quant/quantize.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

namespace pelican::reference {

// Gru::Score as it stood before it skipped the reset gate at L = 1: one
// GEMM per gate from the per-gate masters (int8: the whole fused op),
// every gate's bias, and per step z, r ⊙ h and the candidate. At t = 0
// the recurrent GEMMs are left out (h₀ = 0, finite U), and a row whose
// r ⊙ h₀ holds a NaN has its pre_h set to NaN, as the full (r ⊙ h₀)·Uh
// would. `int8` says which engine `gru` is in.
inline Tensor ReferenceScore(nn::Gru& gru, const Tensor& x, bool int8) {
  std::map<std::string, const Tensor*> p;
  for (auto& ref : gru.Params()) p[ref.name] = ref.value;
  const std::int64_t n = x.dim(0), len = x.dim(1), c = x.dim(2);
  const std::int64_t h = p.at("gru.wz")->dim(1), h3 = 3 * h;
  std::vector<float> proj(static_cast<std::size_t>(n * len * h3));
  if (int8) {
    std::vector<quant::LinearQuant*> ops;
    gru.CollectQuantOps(ops);
    quant::QuantizedMatMul(x.data().data(), n * len, c, *ops.at(0), 0,
                           proj.data(), h3);
  } else {
    const char* w[3] = {"gru.wz", "gru.wr", "gru.wh"};
    for (int g = 0; g < 3; ++g) {
      kernels::Gemm(false, false, n * len, h, c, x.data().data(), c,
                    p.at(w[g])->data().data(), h, proj.data() + g * h, h3,
                    false);
    }
  }
  const char* b[3] = {"gru.bz", "gru.br", "gru.bh"};
  for (std::int64_t i = 0; i < n * len; ++i) {
    for (int g = 0; g < 3; ++g) {
      for (std::int64_t j = 0; j < h; ++j) {
        proj[static_cast<std::size_t>(i * h3 + g * h + j)] +=
            p.at(b[g])->At(j);
      }
    }
  }

  const bool sequences = gru.return_sequences();
  Tensor y = sequences ? Tensor({n, len, h}) : Tensor({n, h});
  Tensor hprev({n, h});
  const std::int64_t ld = len * h3;
  for (std::int64_t t = 0; t < len; ++t) {
    const float* hpv = hprev.data().data();
    float* pt = proj.data() + t * h3;
    if (t > 0) {
      kernels::Gemm(false, false, n, h, h, hpv, h,
                    p.at("gru.uz")->data().data(), h, pt, ld, true);
      kernels::Gemm(false, false, n, h, h, hpv, h,
                    p.at("gru.ur")->data().data(), h, pt + h, ld, true);
    }
    Tensor z({n, h}), rh({n, h});
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < h; ++j) {
        z.At(i, j) = nn::HardSigmoidF(pt[i * ld + j]);
        rh.At(i, j) = nn::HardSigmoidF(pt[i * ld + h + j]) * hpv[i * h + j];
      }
    }
    if (t > 0) {
      kernels::Gemm(false, false, n, h, h, rh.data().data(), h,
                    p.at("gru.uh")->data().data(), h, pt + 2 * h, ld, true);
    } else {
      for (std::int64_t i = 0; i < n; ++i) {
        bool row_has_nan = false;
        for (std::int64_t j = 0; j < h; ++j) {
          row_has_nan = row_has_nan || std::isnan(rh.At(i, j));
        }
        if (row_has_nan) {
          std::fill_n(pt + i * ld + 2 * h, h,
                      std::numeric_limits<float>::quiet_NaN());
        }
      }
    }
    Tensor hnew({n, h});
    for (std::int64_t i = 0; i < n; ++i) {
      float* cand = pt + i * ld + 2 * h;
      kernels::Tanh(cand, cand, h);
      for (std::int64_t j = 0; j < h; ++j) {
        const float zv = z.At(i, j);
        hnew.At(i, j) = zv * hpv[i * h + j] + (1.0F - zv) * cand[j];
      }
    }
    if (sequences) {
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < h; ++j) y.At(i, t, j) = hnew.At(i, j);
      }
    }
    hprev = std::move(hnew);
  }
  return sequences ? y : hprev;
}

class ReferenceGru {
 public:
  // Reads gru's weights (by parameter name) at construction.
  explicit ReferenceGru(nn::Gru& gru) : return_sequences_(gru.return_sequences()) {
    std::map<std::string, const Tensor*> p;
    for (auto& ref : gru.Params()) p[ref.name] = ref.value;
    c_ = p.at("gru.wz")->dim(0);
    h_ = p.at("gru.wz")->dim(1);
    const std::int64_t c = c_, h = h_;
    w_zrh_ = Tensor({c, 3 * h});
    u_zr_ = Tensor({h, 2 * h});
    b_zrh_ = Tensor({3 * h});
    uh_ = *p.at("gru.uh");
    const char* w[3] = {"gru.wz", "gru.wr", "gru.wh"};
    const char* b[3] = {"gru.bz", "gru.br", "gru.bh"};
    for (int g = 0; g < 3; ++g) {
      for (std::int64_t i = 0; i < c; ++i) {
        for (std::int64_t j = 0; j < h; ++j) {
          w_zrh_.At(i, g * h + j) = p.at(w[g])->At(i, j);
        }
      }
      for (std::int64_t j = 0; j < h; ++j) b_zrh_[g * h + j] = p.at(b[g])->At(j);
    }
    for (std::int64_t i = 0; i < h; ++i) {
      for (std::int64_t j = 0; j < h; ++j) {
        u_zr_.At(i, j) = p.at("gru.uz")->At(i, j);
        u_zr_.At(i, h + j) = p.at("gru.ur")->At(i, j);
      }
    }
    for (const char* name : {"gru.wz", "gru.wr", "gru.wh", "gru.uz", "gru.ur",
                             "gru.uh", "gru.bz", "gru.br", "gru.bh"}) {
      grads[name] = Tensor(p.at(name)->shape());
    }
  }

  Tensor Forward(const Tensor& x) {
    const std::int64_t n = x.dim(0), len = x.dim(1);
    const std::int64_t c = c_, h = h_, h3 = 3 * h_;
    x_ = x;
    hs_.assign(1, Tensor({n, h}));
    zs_.clear();
    rs_.clear();
    hcands_.clear();
    rhs_.clear();
    std::vector<float> proj(static_cast<std::size_t>(n * len * h3));
    kernels::Gemm(false, false, n * len, h3, c, x.data().data(), c,
                  w_zrh_.data().data(), h3, proj.data(), h3, false);
    AddRowBias(proj.data(), n * len, h3, b_zrh_.data().data());
    const std::int64_t ld = len * h3;
    for (std::int64_t t = 0; t < len; ++t) {
      const float* hpv = hs_.back().data().data();
      float* pt = proj.data() + t * h3;
      kernels::Gemm(false, false, n, 2 * h, h, hpv, h, u_zr_.data().data(),
                    2 * h, pt, ld, true);
      Tensor z({n, h}), r({n, h}), rh({n, h});
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < h; ++j) {
          z.At(i, j) = nn::HardSigmoidF(pt[i * ld + j]);
          const float rv = nn::HardSigmoidF(pt[i * ld + h + j]);
          r.At(i, j) = rv;
          rh.At(i, j) = rv * hpv[i * h + j];
        }
      }
      kernels::Gemm(false, false, n, h, h, rh.data().data(), h,
                    uh_.data().data(), h, pt + 2 * h, ld, true);
      Tensor hc({n, h}), hnew({n, h});
      for (std::int64_t i = 0; i < n; ++i) {
        kernels::Tanh(pt + i * ld + 2 * h, hc.data().data() + i * h, h);
        for (std::int64_t j = 0; j < h; ++j) {
          const float zv = z.At(i, j);
          hnew.At(i, j) = zv * hpv[i * h + j] + (1.0F - zv) * hc.At(i, j);
        }
      }
      zs_.push_back(std::move(z));
      rs_.push_back(std::move(r));
      rhs_.push_back(std::move(rh));
      hcands_.push_back(std::move(hc));
      hs_.push_back(std::move(hnew));
    }
    if (!return_sequences_) return hs_.back();
    Tensor y({n, len, h});
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t t = 0; t < len; ++t) {
        for (std::int64_t j = 0; j < h; ++j) {
          y.At(i, t, j) = hs_[static_cast<std::size_t>(t + 1)].At(i, j);
        }
      }
    }
    return y;
  }

  // Returns dx and adds the parameter gradients into `grads`.
  Tensor Backward(const Tensor& dy) {
    const auto len = static_cast<std::int64_t>(zs_.size());
    const std::int64_t n = x_.dim(0), c = c_, h = h_, h2 = 2 * h_,
                       h3 = 3 * h_;
    Tensor dx({n, len, c});
    Tensor dh({n, h});
    std::vector<float> g(static_cast<std::size_t>(n * h3));
    std::vector<float> dw_zrh(static_cast<std::size_t>(c * h3), 0.0F);
    std::vector<float> du_zr(static_cast<std::size_t>(h * h2), 0.0F);
    std::vector<float> db_zrh(static_cast<std::size_t>(h3), 0.0F);
    for (std::int64_t t = len - 1; t >= 0; --t) {
      const auto ut = static_cast<std::size_t>(t);
      if (return_sequences_) {
        for (std::int64_t i = 0; i < n; ++i) {
          for (std::int64_t j = 0; j < h; ++j) dh.At(i, j) += dy.At(i, t, j);
        }
      } else if (t == len - 1) {
        dh.Add(dy);
      }
      const float* hpv = hs_[ut].data().data();
      const Tensor& z = zs_[ut];
      const Tensor& r = rs_[ut];
      const Tensor& hc = hcands_[ut];
      Tensor dh_prev({n, h});
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < h; ++j) {
          const float d = dh.At(i, j);
          g[i * h3 + j] = d * (hpv[i * h + j] - hc.At(i, j));
          g[i * h3 + 2 * h + j] =
              d * (1.0F - z.At(i, j)) * nn::TanhGradFromY(hc.At(i, j));
          dh_prev.At(i, j) = d * z.At(i, j);
        }
      }
      Tensor drh({n, h});
      kernels::Gemm(false, true, n, h, h, g.data() + 2 * h, h3,
                    uh_.data().data(), h, drh.data().data(), h, false);
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < h; ++j) {
          g[i * h3 + h + j] = drh.At(i, j) * hpv[i * h + j] *
                              nn::HardSigmoidGradFromY(r.At(i, j));
          g[i * h3 + j] *= nn::HardSigmoidGradFromY(z.At(i, j));
          dh_prev.At(i, j) += drh.At(i, j) * r.At(i, j);
        }
      }
      kernels::Gemm(true, false, c, h3, n, x_.data().data() + t * c, len * c,
                    g.data(), h3, dw_zrh.data(), h3, true);
      kernels::Gemm(true, false, h, h2, n, hpv, h, g.data(), h3, du_zr.data(),
                    h2, true);
      kernels::Gemm(true, false, h, h, n, rhs_[ut].data().data(), h,
                    g.data() + 2 * h, h3, grads["gru.uh"].data().data(), h,
                    true);
      SumRowsInto(g.data(), n, h3, db_zrh.data());
      kernels::Gemm(false, true, n, h, h2, g.data(), h3, u_zr_.data().data(),
                    h2, dh_prev.data().data(), h, true);
      kernels::Gemm(false, true, n, c, h3, g.data(), h3, w_zrh_.data().data(),
                    h3, dx.data().data() + t * c, len * c, false);
      dh = std::move(dh_prev);
    }
    for (std::int64_t i = 0; i < c; ++i) {
      for (std::int64_t j = 0; j < h; ++j) {
        grads["gru.wz"].At(i, j) += dw_zrh[i * h3 + j];
        grads["gru.wr"].At(i, j) += dw_zrh[i * h3 + h + j];
        grads["gru.wh"].At(i, j) += dw_zrh[i * h3 + 2 * h + j];
      }
    }
    for (std::int64_t i = 0; i < h; ++i) {
      for (std::int64_t j = 0; j < h; ++j) {
        grads["gru.uz"].At(i, j) += du_zr[i * h2 + j];
        grads["gru.ur"].At(i, j) += du_zr[i * h2 + h + j];
      }
    }
    for (std::int64_t j = 0; j < h; ++j) {
      grads["gru.bz"].At(j) += db_zrh[j];
      grads["gru.br"].At(j) += db_zrh[h + j];
      grads["gru.bh"].At(j) += db_zrh[2 * h + j];
    }
    return dx;
  }

  std::map<std::string, Tensor> grads;  // accumulated, by parameter name

 private:
  bool return_sequences_;
  std::int64_t c_ = 0, h_ = 0;
  Tensor w_zrh_, u_zr_, b_zrh_, uh_;
  Tensor x_;
  std::vector<Tensor> hs_, zs_, rs_, hcands_, rhs_;
};

}  // namespace pelican::reference
