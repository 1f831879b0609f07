// Generic residual wrapper implementing the paper's ResBlk topology
// (Fig. 4b):
//
//         x ──► pre (BN) ──┬──► body ──► (+) ──► post-activation ──► y
//                          └── shortcut ──┘
//
// The shortcut taps the *pre output* — the paper connects it "from the
// BN output to facilitate the initialization of the overall deep
// network". `shortcut` may be null (identity; requires matching shapes)
// or any Layer (e.g. a 1×1 Conv1D projection when the body changes the
// sample shape — our extension, ablated in bench/ablation_block).
#pragma once

#include "nn/layer.h"

namespace pelican::nn {

class ResidualWrap final : public Layer {
 public:
  // Any of pre / shortcut / post may be null (identity).
  ResidualWrap(LayerPtr pre, LayerPtr body, LayerPtr shortcut, LayerPtr post);

  Tensor TrainForward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;
  Tensor Score(const Tensor& x, InferenceContext& ctx) const override;
  std::vector<ParamRef> Params() override;
  std::vector<BufferRef> Buffers() override;
  [[nodiscard]] std::string Name() const override { return "Residual"; }
  [[nodiscard]] int ParameterLayerCount() const override;
  void SetRng(Rng* rng) override;
  void SetQuantMode(quant::Mode mode) override;
  void CollectQuantOps(std::vector<quant::LinearQuant*>& ops) override;

  // The wrapped layers (pre, shortcut and post may be null = identity).
  [[nodiscard]] Layer* pre() const { return pre_.get(); }
  [[nodiscard]] Layer& body() const { return *body_; }
  [[nodiscard]] Layer* shortcut() const { return shortcut_.get(); }
  [[nodiscard]] Layer* post() const { return post_.get(); }

 private:
  LayerPtr pre_;
  LayerPtr body_;
  LayerPtr shortcut_;
  LayerPtr post_;
};

}  // namespace pelican::nn
