#include "nn/lstm.h"

#include "nn/activations.h"
#include "nn/initializers.h"
#include "tensor/ops.h"

namespace pelican::nn {

Lstm::Lstm(std::int64_t input_size, std::int64_t units, Init init,
           bool return_sequences)
    : input_size_(input_size),
      units_(units),
      return_sequences_(return_sequences),
      wi_(GlorotUniform({input_size, units}, input_size, units, init)),
      wf_(GlorotUniform({input_size, units}, input_size, units, init)),
      wg_(GlorotUniform({input_size, units}, input_size, units, init)),
      wo_(GlorotUniform({input_size, units}, input_size, units, init)),
      ui_(Orthogonal(units, units, init)),
      uf_(Orthogonal(units, units, init)),
      ug_(Orthogonal(units, units, init)),
      uo_(Orthogonal(units, units, init)),
      bi_({units}),
      bf_(Tensor::Full({units}, 1.0F)),
      bg_({units}),
      bo_({units}),
      dwi_({input_size, units}),
      dwf_({input_size, units}),
      dwg_({input_size, units}),
      dwo_({input_size, units}),
      dui_({units, units}),
      duf_({units, units}),
      dug_({units, units}),
      duo_({units, units}),
      dbi_({units}),
      dbf_({units}),
      dbg_({units}),
      dbo_({units}) {
  PELICAN_CHECK(input_size > 0 && units > 0);
}

namespace {
Tensor SliceStep(const Tensor& x, std::int64_t t) {
  const std::int64_t n = x.dim(0), len = x.dim(1), c = x.dim(2);
  Tensor out({n, c});
  const float* xp = x.data().data();
  float* op = out.data().data();
  for (std::int64_t i = 0; i < n; ++i) {
    const float* src = xp + (i * len + t) * c;
    std::copy(src, src + c, op + i * c);
  }
  return out;
}

Tensor Gate(const Tensor& xt, const Tensor& w, const Tensor& hprev,
            const Tensor& u, const Tensor& b, Activation act) {
  Tensor g = MatMul(xt, w);
  MatMulAccum(hprev, u, g);
  AddRowBias(g, b);
  ApplyMap(act, g.data().data(), g.data().data(), g.size());
  return g;
}
}  // namespace

Tensor Lstm::TrainForward(const Tensor& x) {
  PELICAN_CHECK(x.rank() == 3 && x.dim(2) == input_size_,
                "LSTM expects (N, L, C_in)");
  const std::int64_t n = x.dim(0), len = x.dim(1), h = units_;

  xs_.clear();
  hs_.clear();
  cs_.clear();
  is_.clear();
  fs_.clear();
  gs_.clear();
  os_.clear();
  tanh_cs_.clear();
  hs_.push_back(Tensor({n, h}));
  cs_.push_back(Tensor({n, h}));

  for (std::int64_t t = 0; t < len; ++t) {
    Tensor xt = SliceStep(x, t);
    const Tensor& hprev = hs_.back();
    const Tensor& cprev = cs_.back();

    Tensor ig = Gate(xt, wi_, hprev, ui_, bi_, Activation::kHardSigmoid);
    Tensor fg = Gate(xt, wf_, hprev, uf_, bf_, Activation::kHardSigmoid);
    Tensor gg = Gate(xt, wg_, hprev, ug_, bg_, Activation::kTanh);
    Tensor og = Gate(xt, wo_, hprev, uo_, bo_, Activation::kHardSigmoid);

    Tensor cnew({n, h});
    Tensor tanh_c({n, h});
    Tensor hnew({n, h});
    for (std::int64_t i = 0; i < cnew.size(); ++i) {
      cnew[i] = fg[i] * cprev[i] + ig[i] * gg[i];
      tanh_c[i] = TanhF(cnew[i]);
      hnew[i] = og[i] * tanh_c[i];
    }

    xs_.push_back(std::move(xt));
    is_.push_back(std::move(ig));
    fs_.push_back(std::move(fg));
    gs_.push_back(std::move(gg));
    os_.push_back(std::move(og));
    tanh_cs_.push_back(std::move(tanh_c));
    cs_.push_back(std::move(cnew));
    hs_.push_back(std::move(hnew));
  }

  if (!return_sequences_) return hs_.back();

  Tensor y({n, len, h});
  float* yp = y.data().data();
  for (std::int64_t t = 0; t < len; ++t) {
    const float* hp = hs_[static_cast<std::size_t>(t + 1)].data().data();
    for (std::int64_t i = 0; i < n; ++i) {
      std::copy(hp + i * h, hp + (i + 1) * h, yp + (i * len + t) * h);
    }
  }
  return y;
}

// The training pass with rotating local h/c states instead of the
// cached state vectors — same SliceStep/Gate helpers, same elementwise
// recurrence, so outputs match TrainForward's byte for byte.
Tensor Lstm::Score(const Tensor& x, InferenceContext& /*ctx*/) const {
  PELICAN_CHECK(x.rank() == 3 && x.dim(2) == input_size_,
                "LSTM expects (N, L, C_in)");
  const std::int64_t n = x.dim(0), len = x.dim(1), h = units_;

  Tensor y = return_sequences_ ? Tensor({n, len, h}) : Tensor({n, h});
  Tensor hprev({n, h});
  Tensor cprev({n, h});
  for (std::int64_t t = 0; t < len; ++t) {
    Tensor xt = SliceStep(x, t);

    Tensor ig = Gate(xt, wi_, hprev, ui_, bi_, Activation::kHardSigmoid);
    Tensor fg = Gate(xt, wf_, hprev, uf_, bf_, Activation::kHardSigmoid);
    Tensor gg = Gate(xt, wg_, hprev, ug_, bg_, Activation::kTanh);
    Tensor og = Gate(xt, wo_, hprev, uo_, bo_, Activation::kHardSigmoid);

    Tensor cnew({n, h});
    Tensor hnew({n, h});
    for (std::int64_t i = 0; i < cnew.size(); ++i) {
      cnew[i] = fg[i] * cprev[i] + ig[i] * gg[i];
      hnew[i] = og[i] * TanhF(cnew[i]);
    }

    if (return_sequences_) {
      float* yp = y.data().data();
      const float* hp = hnew.data().data();
      for (std::int64_t i = 0; i < n; ++i) {
        std::copy(hp + i * h, hp + (i + 1) * h, yp + (i * len + t) * h);
      }
    }
    hprev = std::move(hnew);
    cprev = std::move(cnew);
  }
  if (!return_sequences_) return hprev;
  return y;
}

Tensor Lstm::Backward(const Tensor& dy) {
  PELICAN_CHECK(!xs_.empty(), "Backward before Forward");
  const auto len = static_cast<std::int64_t>(xs_.size());
  const std::int64_t n = xs_[0].dim(0), h = units_;
  if (return_sequences_) {
    PELICAN_CHECK(dy.rank() == 3 && dy.dim(0) == n && dy.dim(1) == len &&
                      dy.dim(2) == h,
                  "LSTM backward shape mismatch");
  } else {
    PELICAN_CHECK(dy.rank() == 2 && dy.dim(0) == n && dy.dim(1) == h,
                  "LSTM backward shape mismatch");
  }

  Tensor dx({n, len, input_size_});
  Tensor dh({n, h});
  Tensor dc({n, h});

  for (std::int64_t t = len - 1; t >= 0; --t) {
    const auto ut = static_cast<std::size_t>(t);
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

    const Tensor& ig = is_[ut];
    const Tensor& fg = fs_[ut];
    const Tensor& gg = gs_[ut];
    const Tensor& og = os_[ut];
    const Tensor& tanh_c = tanh_cs_[ut];
    const Tensor& cprev = cs_[ut];
    const Tensor& hprev = hs_[ut];
    const Tensor& xt = xs_[ut];

    Tensor da_i({n, h}), da_f({n, h}), da_g({n, h}), da_o({n, h});
    Tensor dc_prev({n, h});
    for (std::int64_t i = 0; i < dh.size(); ++i) {
      const float do_ = dh[i] * tanh_c[i];
      const float dct = dc[i] + dh[i] * og[i] * TanhGradFromY(tanh_c[i]);
      da_o[i] = do_ * HardSigmoidGradFromY(og[i]);
      da_i[i] = dct * gg[i] * HardSigmoidGradFromY(ig[i]);
      da_f[i] = dct * cprev[i] * HardSigmoidGradFromY(fg[i]);
      da_g[i] = dct * ig[i] * TanhGradFromY(gg[i]);
      dc_prev[i] = dct * fg[i];
    }

    MatMulTransAAccum(xt, da_i, dwi_);
    MatMulTransAAccum(xt, da_f, dwf_);
    MatMulTransAAccum(xt, da_g, dwg_);
    MatMulTransAAccum(xt, da_o, dwo_);
    MatMulTransAAccum(hprev, da_i, dui_);
    MatMulTransAAccum(hprev, da_f, duf_);
    MatMulTransAAccum(hprev, da_g, dug_);
    MatMulTransAAccum(hprev, da_o, duo_);
    SumRowsInto(da_i, dbi_);
    SumRowsInto(da_f, dbf_);
    SumRowsInto(da_g, dbg_);
    SumRowsInto(da_o, dbo_);

    Tensor dh_prev = MatMulTransB(da_i, ui_);
    dh_prev.Add(MatMulTransB(da_f, uf_));
    dh_prev.Add(MatMulTransB(da_g, ug_));
    dh_prev.Add(MatMulTransB(da_o, uo_));

    Tensor dxt = MatMulTransB(da_i, wi_);
    dxt.Add(MatMulTransB(da_f, wf_));
    dxt.Add(MatMulTransB(da_g, wg_));
    dxt.Add(MatMulTransB(da_o, wo_));
    float* dxp = dx.data().data();
    const float* sp = dxt.data().data();
    for (std::int64_t i = 0; i < n; ++i) {
      const float* src = sp + i * input_size_;
      float* dst = dxp + (i * len + t) * input_size_;
      for (std::int64_t j = 0; j < input_size_; ++j) dst[j] += src[j];
    }

    dh = std::move(dh_prev);
    dc = std::move(dc_prev);
  }
  return dx;
}

std::vector<ParamRef> Lstm::Params() {
  return {
      {"lstm.wi", &wi_, &dwi_}, {"lstm.wf", &wf_, &dwf_},
      {"lstm.wg", &wg_, &dwg_}, {"lstm.wo", &wo_, &dwo_},
      {"lstm.ui", &ui_, &dui_}, {"lstm.uf", &uf_, &duf_},
      {"lstm.ug", &ug_, &dug_}, {"lstm.uo", &uo_, &duo_},
      {"lstm.bi", &bi_, &dbi_}, {"lstm.bf", &bf_, &dbf_},
      {"lstm.bg", &bg_, &dbg_}, {"lstm.bo", &bo_, &dbo_},
  };
}

}  // namespace pelican::nn
