// Scalar, GEMM-free reference for nn::Layer::Score, in double
// precision, written from the layers' documented formulas rather than
// from their code: no kernels, no im2col, no workspace. It walks a
// network through the public layer API (Sequential::LayerAt, the
// ResidualWrap children, Params/Buffers and shape accessors) and
// fails the running test on a layer kind it has no formula for.
//
// Score runs in fp32 with blocked accumulation, so agreement is within
// a tolerance (ExpectNearOracle), not byte for byte.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/nn.h"

namespace pelican::oracle {

// A row-major double tensor.
struct Ref {
  Tensor::Shape shape;
  std::vector<double> v;
};

inline Ref FromTensor(const Tensor& t) {
  Ref r{t.shape(), {}};
  r.v.assign(t.data().begin(), t.data().end());
  return r;
}

inline Ref Zeros(Tensor::Shape shape) {
  Ref r{std::move(shape), {}};
  r.v.assign(static_cast<std::size_t>(NumElements(r.shape)), 0.0);
  return r;
}

// The parameter named `name` among layer.Params() (or, failing that,
// layer.Buffers()) as doubles.
inline std::vector<double> Param(nn::Layer& layer, const std::string& name) {
  for (const auto& p : layer.Params()) {
    if (p.name == name) {
      return {p.value->data().begin(), p.value->data().end()};
    }
  }
  for (const auto& b : layer.Buffers()) {
    if (b.name == name) {
      return {b.value->data().begin(), b.value->data().end()};
    }
  }
  ADD_FAILURE() << layer.Name() << " has no parameter " << name;
  return {};
}

inline double HardSigmoid(double x) {
  return std::clamp(0.2 * x + 0.5, 0.0, 1.0);
}

// y = x·W + b, x (N, D_in), W (D_in, D_out).
inline Ref DenseRef(nn::Dense& d, const Ref& x) {
  const auto w = Param(d, "dense.w"), b = Param(d, "dense.b");
  const std::int64_t n = x.shape[0], in = d.in_features(),
                     out = d.out_features();
  Ref y = Zeros({n, out});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < out; ++j) {
      double acc = b[j];
      for (std::int64_t p = 0; p < in; ++p) {
        acc += x.v[i * in + p] * w[p * out + j];
      }
      y.v[i * out + j] = acc;
    }
  }
  return y;
}

// Keras 'same' padding, stride 1: pad_left = (K-1)/2, taps outside the
// sequence read zero. W is (K, C_in, F).
inline Ref Conv1DRef(nn::Conv1D& conv, const Ref& x) {
  const auto w = Param(conv, "conv1d.w"), b = Param(conv, "conv1d.b");
  const std::int64_t n = x.shape[0], len = x.shape[1];
  const std::int64_t cin = conv.in_channels(), f = conv.filters(),
                     k = conv.kernel_size(), pad = (k - 1) / 2;
  Ref y = Zeros({n, len, f});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t t = 0; t < len; ++t) {
      for (std::int64_t o = 0; o < f; ++o) {
        double acc = b[o];
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const std::int64_t s = t + kk - pad;
          if (s < 0 || s >= len) continue;
          for (std::int64_t c = 0; c < cin; ++c) {
            acc += x.v[(i * len + s) * cin + c] * w[(kk * cin + c) * f + o];
          }
        }
        y.v[(i * len + t) * f + o] = acc;
      }
    }
  }
  return y;
}

// Running statistics over the last axis.
inline Ref BatchNormRef(nn::BatchNorm& bn, const Ref& x) {
  const auto gamma = Param(bn, "bn.gamma"), beta = Param(bn, "bn.beta");
  const auto mean = Param(bn, "bn.running_mean"),
             var = Param(bn, "bn.running_var");
  const std::int64_t c = bn.channels();
  const double eps = bn.epsilon();
  Ref y = x;
  for (std::size_t i = 0; i < y.v.size(); ++i) {
    const auto j = static_cast<std::size_t>(static_cast<std::int64_t>(i) % c);
    y.v[i] =
        gamma[j] * (x.v[i] - mean[j]) / std::sqrt(var[j] + eps) + beta[j];
  }
  return y;
}

// Keras GRU (hard-sigmoid gates, tanh candidate, h₀ = 0). When `proj`
// is given it replaces x_t·[Wz|Wr|Wh] (row (i·L + t), 3H columns), so
// an int8 layer can be checked from its own quantized projection.
inline Ref GruRef(nn::Gru& gru, const Ref& x,
                  const std::vector<float>* proj = nullptr) {
  const auto wz = Param(gru, "gru.wz"), wr = Param(gru, "gru.wr"),
             wh = Param(gru, "gru.wh"), uz = Param(gru, "gru.uz"),
             ur = Param(gru, "gru.ur"), uh = Param(gru, "gru.uh"),
             bz = Param(gru, "gru.bz"), br = Param(gru, "gru.br"),
             bh = Param(gru, "gru.bh");
  const std::int64_t n = x.shape[0], len = x.shape[1], c = x.shape[2],
                     h = gru.units();
  Ref y = gru.return_sequences() ? Zeros({n, len, h}) : Zeros({n, h});
  for (std::int64_t i = 0; i < n; ++i) {
    std::vector<double> hv(static_cast<std::size_t>(h), 0.0), rh(hv);
    std::vector<double> z(hv), pre_h(hv);
    for (std::int64_t t = 0; t < len; ++t) {
      const double* xt = x.v.data() + (i * len + t) * c;
      // x_t·W for gate g, column j.
      auto input = [&](const std::vector<double>& w, int g, std::int64_t j) {
        if (proj != nullptr) {
          const std::int64_t row = i * len + t;
          return static_cast<double>((*proj)[row * 3 * h + g * h + j]);
        }
        double acc = 0.0;
        for (std::int64_t p = 0; p < c; ++p) acc += xt[p] * w[p * h + j];
        return acc;
      };
      for (std::int64_t j = 0; j < h; ++j) {
        double pz = bz[j] + input(wz, 0, j), pr = br[j] + input(wr, 1, j);
        for (std::int64_t p = 0; p < h; ++p) {
          pz += hv[p] * uz[p * h + j];
          pr += hv[p] * ur[p * h + j];
        }
        z[j] = HardSigmoid(pz);
        rh[j] = HardSigmoid(pr) * hv[j];
        pre_h[j] = bh[j] + input(wh, 2, j);
      }
      for (std::int64_t j = 0; j < h; ++j) {
        double ph = pre_h[j];
        for (std::int64_t p = 0; p < h; ++p) ph += rh[p] * uh[p * h + j];
        pre_h[j] = std::tanh(ph);
      }
      for (std::int64_t j = 0; j < h; ++j) {
        hv[j] = z[j] * hv[j] + (1.0 - z[j]) * pre_h[j];
        if (gru.return_sequences()) y.v[(i * len + t) * h + j] = hv[j];
      }
    }
    if (!gru.return_sequences()) {
      std::copy(hv.begin(), hv.end(), y.v.begin() + i * h);
    }
  }
  return y;
}

// Keras pooling rules: window = L when L < pool, else pool; output
// length floor(L / window); the remainder is dropped.
inline Ref MaxPoolRef(const nn::MaxPool1D& pool, const Ref& x) {
  const std::int64_t n = x.shape[0], len = x.shape[1], c = x.shape[2];
  const std::int64_t window = std::min(len, pool.pool_size()),
                     out_len = len / window;
  Ref y = Zeros({n, out_len, c});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t t = 0; t < out_len; ++t) {
      for (std::int64_t ch = 0; ch < c; ++ch) {
        double best = x.v[(i * len + t * window) * c + ch];
        for (std::int64_t k = 1; k < window; ++k) {
          best = std::max(best, x.v[(i * len + t * window + k) * c + ch]);
        }
        y.v[(i * out_len + t) * c + ch] = best;
      }
    }
  }
  return y;
}

inline Ref GlobalAvgPoolRef(const Ref& x) {
  const std::int64_t n = x.shape[0], len = x.shape[1], c = x.shape[2];
  Ref y = Zeros({n, c});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      double sum = 0.0;
      for (std::int64_t t = 0; t < len; ++t) {
        sum += x.v[(i * len + t) * c + ch];
      }
      y.v[i * c + ch] = sum / static_cast<double>(len);
    }
  }
  return y;
}

inline Ref ActivationRef(const nn::Layer& act, const Ref& x) {
  Ref y = x;
  const std::string name = act.Name();
  for (double& v : y.v) {
    if (name == "ReLU") {
      v = std::max(v, 0.0);
    } else if (name == "Tanh") {
      v = std::tanh(v);
    } else if (name == "Sigmoid") {
      v = 1.0 / (1.0 + std::exp(-v));
    } else if (name == "HardSigmoid") {
      v = HardSigmoid(v);
    } else {
      ADD_FAILURE() << "no oracle for activation " << name;
    }
  }
  return y;
}

// Score's definition, layer by layer.
inline Ref Score(nn::Layer& layer, const Ref& x) {
  if (auto* seq = dynamic_cast<nn::Sequential*>(&layer)) {
    Ref y = x;
    for (std::size_t i = 0; i < seq->LayerCount(); ++i) {
      y = Score(seq->LayerAt(i), y);
    }
    return y;
  }
  if (auto* res = dynamic_cast<nn::ResidualWrap*>(&layer)) {
    const Ref u = res->pre() != nullptr ? Score(*res->pre(), x) : x;
    Ref v = Score(res->body(), u);
    const Ref s = res->shortcut() != nullptr ? Score(*res->shortcut(), u) : u;
    EXPECT_EQ(v.shape, s.shape);
    for (std::size_t i = 0; i < v.v.size(); ++i) v.v[i] += s.v[i];
    return res->post() != nullptr ? Score(*res->post(), v) : v;
  }
  if (auto* d = dynamic_cast<nn::Dense*>(&layer)) return DenseRef(*d, x);
  if (auto* c = dynamic_cast<nn::Conv1D*>(&layer)) return Conv1DRef(*c, x);
  if (auto* bn = dynamic_cast<nn::BatchNorm*>(&layer)) {
    return BatchNormRef(*bn, x);
  }
  if (auto* g = dynamic_cast<nn::Gru*>(&layer)) return GruRef(*g, x);
  if (auto* p = dynamic_cast<nn::MaxPool1D*>(&layer)) {
    return MaxPoolRef(*p, x);
  }
  if (dynamic_cast<nn::GlobalAvgPool1D*>(&layer) != nullptr) {
    return GlobalAvgPoolRef(x);
  }
  if (dynamic_cast<nn::ActivationLayer*>(&layer) != nullptr) {
    return ActivationRef(layer, x);
  }
  if (dynamic_cast<nn::Dropout*>(&layer) != nullptr) return x;  // identity
  if (auto* r = dynamic_cast<nn::Reshape*>(&layer)) {
    Ref y = x;
    y.shape = {x.shape[0]};
    y.shape.insert(y.shape.end(), r->target().begin(), r->target().end());
    return y;
  }
  ADD_FAILURE() << "no oracle for layer " << layer.Name();
  return x;
}

// Every element of `got` within 1e-5 relative of the oracle, with a
// 1e-6 absolute floor for outputs near zero.
inline void ExpectNearOracle(const Tensor& got, const Ref& want) {
  ASSERT_EQ(got.shape(), want.shape);
  int reported = 0;
  for (std::int64_t i = 0; i < got.size(); ++i) {
    const double w = want.v[static_cast<std::size_t>(i)];
    const double tol = std::max(1e-5 * std::abs(w), 1e-6);
    if (!(std::abs(static_cast<double>(got[i]) - w) <= tol)) {
      if (++reported <= 5) {
        ADD_FAILURE() << "flat index " << i << ": Score " << got[i]
                      << ", oracle " << w;
      }
    }
  }
  EXPECT_EQ(reported, 0) << "elements outside the oracle's tolerance";
}

}  // namespace pelican::oracle
