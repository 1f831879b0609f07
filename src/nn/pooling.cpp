#include "nn/pooling.h"

#include <algorithm>

namespace pelican::nn {

MaxPool1D::MaxPool1D(std::int64_t pool_size) : pool_(pool_size) {
  PELICAN_CHECK(pool_size >= 1, "pool size must be >= 1");
}

std::int64_t MaxPool1D::OutputLength(std::int64_t input_length) const {
  if (input_length < pool_) return 1;
  return input_length / pool_;
}

Tensor MaxPool1D::TrainForward(const Tensor& x) {
  Tensor y = Pool(x, &argmax_);
  in_shape_ = x.shape();
  return y;
}

Tensor MaxPool1D::Score(const Tensor& x, InferenceContext& /*ctx*/) const {
  return Pool(x, nullptr);
}

Tensor MaxPool1D::Pool(const Tensor& x,
                       std::vector<std::int64_t>* argmax) const {
  PELICAN_CHECK(x.rank() == 3, "MaxPool1D expects (N, L, C)");
  const std::int64_t n = x.dim(0), len = x.dim(1), c = x.dim(2);
  const std::int64_t out_len = OutputLength(len);
  const std::int64_t window = (len < pool_) ? len : pool_;
  Tensor y({n, out_len, c});
  std::int64_t* am = nullptr;
  if (argmax != nullptr) {
    argmax->assign(static_cast<std::size_t>(y.size()), 0);
    am = argmax->data();
  }
  const float* xp = x.data().data();
  float* yp = y.data().data();
  // Row-wise channel maxima: the window's first row, then each later
  // row replaces a value (and its argmax) only where it is strictly
  // greater, so ties keep the first row and a NaN never wins, nor loses
  // once it is held. At L = 1 this is a row copy.
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t t = 0; t < out_len; ++t) {
      const std::int64_t first = (in * len + t * window) * c;
      const std::int64_t out = (in * out_len + t) * c;
      float* dst = yp + out;
      std::copy_n(xp + first, c, dst);
      if (am != nullptr) {
        for (std::int64_t ch = 0; ch < c; ++ch) am[out + ch] = first + ch;
      }
      for (std::int64_t k = 1; k < window; ++k) {
        const std::int64_t base = first + k * c;
        const float* row = xp + base;
        for (std::int64_t ch = 0; ch < c; ++ch) {
          if (row[ch] > dst[ch]) {
            dst[ch] = row[ch];
            if (am != nullptr) am[out + ch] = base + ch;
          }
        }
      }
    }
  }
  return y;
}

Tensor MaxPool1D::Backward(const Tensor& dy) {
  PELICAN_CHECK(!in_shape_.empty(), "Backward before Forward");
  PELICAN_CHECK(dy.size() == static_cast<std::int64_t>(argmax_.size()),
                "MaxPool1D backward shape mismatch");
  Tensor dx(in_shape_);
  float* dxp = dx.data().data();
  const float* dyp = dy.data().data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    dxp[argmax_[i]] += dyp[i];
  }
  return dx;
}

AvgPool1D::AvgPool1D(std::int64_t pool_size) : pool_(pool_size) {
  PELICAN_CHECK(pool_size >= 1, "pool size must be >= 1");
}

std::int64_t AvgPool1D::OutputLength(std::int64_t input_length) const {
  if (input_length < pool_) return 1;
  return input_length / pool_;
}

Tensor AvgPool1D::TrainForward(const Tensor& x) {
  Tensor y = Score(x, InferenceContext::ThisThread());
  in_shape_ = x.shape();
  return y;
}

Tensor AvgPool1D::Score(const Tensor& x, InferenceContext& /*ctx*/) const {
  PELICAN_CHECK(x.rank() == 3, "AvgPool1D expects (N, L, C)");
  const std::int64_t n = x.dim(0), len = x.dim(1), c = x.dim(2);
  const std::int64_t out_len = OutputLength(len);
  const std::int64_t window = (len < pool_) ? len : pool_;
  Tensor y({n, out_len, c});
  const float inv = 1.0F / static_cast<float>(window);
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t t = 0; t < out_len; ++t) {
      const std::int64_t start = t * window;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        float sum = 0.0F;
        for (std::int64_t k = 0; k < window; ++k) {
          sum += x.At(in, start + k, ch);
        }
        y.At(in, t, ch) = sum * inv;
      }
    }
  }
  return y;
}

Tensor AvgPool1D::Backward(const Tensor& dy) {
  PELICAN_CHECK(!in_shape_.empty(), "Backward before Forward");
  const std::int64_t n = in_shape_[0], len = in_shape_[1], c = in_shape_[2];
  const std::int64_t out_len = OutputLength(len);
  const std::int64_t window = (len < pool_) ? len : pool_;
  PELICAN_CHECK(dy.rank() == 3 && dy.dim(0) == n && dy.dim(1) == out_len &&
                    dy.dim(2) == c,
                "AvgPool1D backward shape mismatch");
  Tensor dx(in_shape_);
  const float inv = 1.0F / static_cast<float>(window);
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t t = 0; t < out_len; ++t) {
      const std::int64_t start = t * window;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        const float g = dy.At(in, t, ch) * inv;
        for (std::int64_t k = 0; k < window; ++k) {
          dx.At(in, start + k, ch) += g;
        }
      }
    }
  }
  return dx;
}

Tensor GlobalAvgPool1D::TrainForward(const Tensor& x) {
  Tensor y = Score(x, InferenceContext::ThisThread());
  in_shape_ = x.shape();
  return y;
}

Tensor GlobalAvgPool1D::Score(const Tensor& x,
                              InferenceContext& /*ctx*/) const {
  PELICAN_CHECK(x.rank() == 3, "GlobalAvgPool1D expects (N, L, C)");
  const std::int64_t n = x.dim(0), len = x.dim(1), c = x.dim(2);
  Tensor y({n, c});
  const float inv = 1.0F / static_cast<float>(len);
  const float* xp = x.data().data();
  float* yp = y.data().data();
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t t = 0; t < len; ++t) {
      const float* xrow = xp + (in * len + t) * c;
      for (std::int64_t ch = 0; ch < c; ++ch) {
        yp[in * c + ch] += xrow[ch] * inv;
      }
    }
  }
  return y;
}

Tensor GlobalAvgPool1D::Backward(const Tensor& dy) {
  PELICAN_CHECK(!in_shape_.empty(), "Backward before Forward");
  const std::int64_t n = in_shape_[0], len = in_shape_[1], c = in_shape_[2];
  PELICAN_CHECK(dy.rank() == 2 && dy.dim(0) == n && dy.dim(1) == c,
                "GlobalAvgPool1D backward shape mismatch");
  Tensor dx(in_shape_);
  const float inv = 1.0F / static_cast<float>(len);
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t t = 0; t < len; ++t) {
      for (std::int64_t ch = 0; ch < c; ++ch) {
        dx.At(in, t, ch) = dy.At(in, ch) * inv;
      }
    }
  }
  return dx;
}

}  // namespace pelican::nn
