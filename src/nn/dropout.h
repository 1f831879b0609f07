// Inverted dropout: at train time each element is zeroed with
// probability `rate` and survivors are scaled by 1/(1-rate); inference
// is the identity. The paper uses rate 0.6 in every block.
#pragma once

#include "nn/layer.h"

namespace pelican::nn {

class Dropout final : public Layer {
 public:
  explicit Dropout(float rate);

  Tensor TrainForward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;
  // Inference dropout is the identity; nothing to cache, nothing to do.
  Tensor Score(const Tensor& x, InferenceContext& /*ctx*/) const override {
    return x;
  }
  [[nodiscard]] std::string Name() const override { return "Dropout"; }
  void SetRng(Rng* rng) override { rng_ = rng; }

  [[nodiscard]] float rate() const { return rate_; }

 private:
  float rate_;
  Rng* rng_ = nullptr;
  Rng fallback_rng_{0xd40u};
  Tensor mask_;  // scaled keep-mask from the last training pass
};

}  // namespace pelican::nn
