#include "nn/reshape.h"

namespace pelican::nn {

Reshape::Reshape(Tensor::Shape per_sample_shape)
    : target_(std::move(per_sample_shape)) {
  PELICAN_CHECK(!target_.empty(), "Reshape needs a per-sample shape");
}

Tensor Reshape::TrainForward(const Tensor& x) {
  Tensor y = Score(x, InferenceContext::ThisThread());
  in_shape_ = x.shape();
  return y;
}

Tensor Reshape::Score(const Tensor& x, InferenceContext& /*ctx*/) const {
  PELICAN_CHECK(x.rank() >= 1, "Reshape expects batched input");
  Tensor::Shape out{x.dim(0)};
  out.insert(out.end(), target_.begin(), target_.end());
  PELICAN_CHECK(NumElements(out) == x.size(),
                "Reshape target incompatible with input size");
  return x.Reshaped(std::move(out));
}

Tensor Reshape::Backward(const Tensor& dy) {
  PELICAN_CHECK(!in_shape_.empty(), "Backward before Forward");
  PELICAN_CHECK(dy.size() == NumElements(in_shape_),
                "Reshape backward size mismatch");
  return dy.Reshaped(in_shape_);
}

}  // namespace pelican::nn
