#include "nn/dropout.h"

namespace pelican::nn {

Dropout::Dropout(float rate) : rate_(rate) {
  PELICAN_CHECK(rate >= 0.0F && rate < 1.0F, "dropout rate must be in [0,1)");
}

Tensor Dropout::TrainForward(const Tensor& x) {
  if (rate_ == 0.0F) return x;
  Rng& stream = rng_ != nullptr ? *rng_ : fallback_rng_;
  // Rng::Chance(rate_) per element (0 < rate_ < 1), its threshold taken
  // once, on a local copy of the generator: through a reference GCC
  // loads and stores the generator's state around every draw.
  const std::uint64_t threshold = Rng::ChanceThreshold(rate_);
  Rng rng = stream;
  const float keep_scale = 1.0F / (1.0F - rate_);
  mask_ = Tensor(x.shape());
  Tensor y = x;
  auto mp = mask_.data();
  auto yp = y.data();
  for (std::size_t i = 0; i < yp.size(); ++i) {
    const float m = rng.ChanceUnder(threshold) ? 0.0F : keep_scale;
    mp[i] = m;
    yp[i] *= m;
  }
  stream = rng;
  return y;
}

Tensor Dropout::Backward(const Tensor& dy) {
  if (rate_ == 0.0F) return dy;
  PELICAN_CHECK(dy.SameShape(mask_), "dropout backward shape mismatch");
  Tensor dx = dy;
  dx.Mul(mask_);
  return dx;
}

}  // namespace pelican::nn
