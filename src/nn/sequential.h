// Sequential layer container: forward chains layers in order, backward
// in reverse. Also a Layer itself, so blocks nest (a residual block's
// body is a Sequential inside a ResidualWrap inside the network).
#pragma once

#include "nn/layer.h"

namespace pelican::nn {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  // Appends a layer; returns *this for chaining.
  Sequential& Add(LayerPtr layer);

  Tensor TrainForward(const Tensor& x) override;
  Tensor Backward(const Tensor& dy) override;
  Tensor Score(const Tensor& x, InferenceContext& ctx) const override;
  std::vector<ParamRef> Params() override;
  std::vector<BufferRef> Buffers() override;
  [[nodiscard]] std::string Name() const override { return "Sequential"; }
  [[nodiscard]] int ParameterLayerCount() const override;
  void SetRng(Rng* rng) override;
  void SetQuantMode(quant::Mode mode) override;
  void CollectQuantOps(std::vector<quant::LinearQuant*>& ops) override;

  [[nodiscard]] std::size_t LayerCount() const { return layers_.size(); }
  [[nodiscard]] Layer& LayerAt(std::size_t i) { return *layers_.at(i); }

  // Multi-line human-readable structure summary.
  [[nodiscard]] std::string Summary();

 private:
  // Lazily-built per-layer instruments (trace span names + latency
  // histograms); only materialized once observability is enabled, so a
  // disabled process pays one relaxed load per TrainForward/Backward.
  struct ObsState;
  void EnsureObs();

  std::vector<LayerPtr> layers_;
  std::shared_ptr<ObsState> obs_;
};

}  // namespace pelican::nn
