#include "nn/sequential.h"

#include <chrono>
#include <optional>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pelican::nn {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

// Per-layer instruments. Span names are precomputed ("fwd 3:Conv1D")
// so the hot loop never formats strings; histograms are registered the
// first time metrics are actually enabled, never before, so a
// metrics-off run scrapes an empty registry.
struct Sequential::ObsState {
  struct PerLayer {
    std::string fwd_name;
    std::string bwd_name;
    std::optional<obs::Histogram> fwd_seconds;
    std::optional<obs::Histogram> bwd_seconds;
  };
  std::vector<PerLayer> layers;
  bool metrics_bound = false;
};

void Sequential::EnsureObs() {
  if (obs_ == nullptr) {
    auto state = std::make_shared<ObsState>();
    state->layers.reserve(layers_.size());
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      ObsState::PerLayer pl;
      const std::string name = layers_[i]->Name();
      pl.fwd_name = "fwd " + std::to_string(i) + ":" + name;
      pl.bwd_name = "bwd " + std::to_string(i) + ":" + name;
      state->layers.push_back(std::move(pl));
    }
    obs_ = std::move(state);
  }
  if (obs::MetricsEnabled() && !obs_->metrics_bound) {
    auto& reg = obs::Registry::Global();
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      auto& pl = obs_->layers[i];
      const obs::Labels labels{{"layer", layers_[i]->Name()},
                               {"index", std::to_string(i)}};
      pl.fwd_seconds = reg.GetHistogram(
          "pelican_layer_forward_seconds", "Per-layer forward wall time",
          obs::DefaultTimeBuckets(), labels);
      pl.bwd_seconds = reg.GetHistogram(
          "pelican_layer_backward_seconds", "Per-layer backward wall time",
          obs::DefaultTimeBuckets(), labels);
    }
    obs_->metrics_bound = true;
  }
}

Sequential& Sequential::Add(LayerPtr layer) {
  PELICAN_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  obs_.reset();  // layer list changed; instruments rebuild on demand
  return *this;
}

Tensor Sequential::TrainForward(const Tensor& x) {
  if (!obs::MetricsEnabled() && !obs::TracingEnabled()) {
    Tensor y = x;
    for (auto& layer : layers_) y = layer->TrainForward(y);
    return y;
  }
  EnsureObs();
  const bool metrics = obs::MetricsEnabled();
  Tensor y = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    auto& pl = obs_->layers[i];
    obs::TraceSpan span(pl.fwd_name, "layer");
    const auto t0 = std::chrono::steady_clock::now();
    y = layers_[i]->TrainForward(y);
    if (metrics && pl.fwd_seconds) pl.fwd_seconds->Observe(SecondsSince(t0));
  }
  return y;
}

// Score is the network's one inference path (Forward(x, false) and
// calibration run it too). It skips the per-layer instrumentation
// entirely: EnsureObs() mutates lazily-built state, which would race
// across scorer threads, and the serving plane has its own end-to-end
// latency metrics. The chain itself is TrainForward's uninstrumented
// fast path, except that the input is not copied: the first layer reads
// it in place.
Tensor Sequential::Score(const Tensor& x, InferenceContext& ctx) const {
  if (layers_.empty()) return x;
  Tensor y = layers_.front()->Score(x, ctx);
  for (auto it = layers_.begin() + 1; it != layers_.end(); ++it) {
    y = (*it)->Score(y, ctx);
  }
  return y;
}

Tensor Sequential::Backward(const Tensor& dy) {
  if (!obs::MetricsEnabled() && !obs::TracingEnabled()) {
    Tensor d = dy;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
      d = (*it)->Backward(d);
    }
    return d;
  }
  EnsureObs();
  const bool metrics = obs::MetricsEnabled();
  Tensor d = dy;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    auto& pl = obs_->layers[i];
    obs::TraceSpan span(pl.bwd_name, "layer");
    const auto t0 = std::chrono::steady_clock::now();
    d = layers_[i]->Backward(d);
    if (metrics && pl.bwd_seconds) pl.bwd_seconds->Observe(SecondsSince(t0));
  }
  return d;
}

std::vector<ParamRef> Sequential::Params() {
  std::vector<ParamRef> params;
  for (auto& layer : layers_) {
    auto ps = layer->Params();
    params.insert(params.end(), ps.begin(), ps.end());
  }
  return params;
}

std::vector<BufferRef> Sequential::Buffers() {
  std::vector<BufferRef> buffers;
  for (auto& layer : layers_) {
    auto bs = layer->Buffers();
    buffers.insert(buffers.end(), bs.begin(), bs.end());
  }
  return buffers;
}

int Sequential::ParameterLayerCount() const {
  int n = 0;
  for (const auto& layer : layers_) n += layer->ParameterLayerCount();
  return n;
}

void Sequential::SetRng(Rng* rng) {
  for (auto& layer : layers_) layer->SetRng(rng);
}

void Sequential::SetQuantMode(quant::Mode mode) {
  for (auto& layer : layers_) layer->SetQuantMode(mode);
}

void Sequential::CollectQuantOps(std::vector<quant::LinearQuant*>& ops) {
  for (auto& layer : layers_) layer->CollectQuantOps(ops);
}

std::string Sequential::Summary() {
  std::ostringstream os;
  std::int64_t total = 0;
  for (auto& layer : layers_) {
    const std::int64_t n = layer->ParameterCount();
    total += n;
    os << "  " << layer->Name() << "  params=" << n << '\n';
  }
  os << "total trainable parameters: " << total << '\n';
  return os.str();
}

}  // namespace pelican::nn
