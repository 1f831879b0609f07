// Layer abstraction for the neural-network substrate.
//
// Each layer implements one inference pass, Score, and one training
// pass, TrainForward, paired with Backward (hand-derived backprop, no
// tape autograd): TrainForward caches whatever Backward reads,
// Backward(dy) returns dL/dx and *accumulates* parameter gradients into
// the layers' grad tensors. Optimizers consume ParamRef views.
//
// Tensor conventions:
//   (N, D)     feature batches (Dense and friends)
//   (N, L, C)  sequence batches: N samples, L time steps, C channels
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/inference_context.h"
#include "quant/quantize.h"
#include "tensor/tensor.h"

namespace pelican::nn {

// The elements [begin, end) of a gradient tensor that Backward has
// written since the last ZeroGrad; every element outside still holds
// the +0 that ZeroGrad (or the constructor) left there. A layer whose
// Backward can leave part of a gradient untouched (Conv1D's dead
// taps, the GRU's recurrent and reset-gate tensors at the paper's
// L = 1) publishes one through ParamRef, and ZeroGrad and the
// optimizers skip the rest. Only Backward adds to it.
struct GradWritten {
  std::int64_t begin = 0;
  std::int64_t end = 0;  // begin == end: nothing written

  // Widens the range to cover [b, e).
  void Add(std::int64_t b, std::int64_t e) {
    if (b >= e) return;
    if (begin == end) {
      begin = b;
      end = e;
      return;
    }
    begin = std::min(begin, b);
    end = std::max(end, e);
  }
};

// Non-owning view of one trainable parameter and its gradient. `grad`
// is written by the layer's Backward only (gradient clipping scales
// what Backward wrote).
struct ParamRef {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  // Which gradient elements Backward has written; null means any.
  GradWritten* written = nullptr;

  // [begin, end) of the gradient elements that may not be +0.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> WrittenRange() const {
    if (written == nullptr) return {0, grad->size()};
    return {std::min(written->begin, grad->size()),
            std::min(written->end, grad->size())};
  }

  // Zeroes the gradient (the written range; the rest is +0 already)
  // and marks it unwritten.
  void ZeroGrad() const {
    const auto [b, e] = WrittenRange();
    std::fill(grad->data().begin() + b, grad->data().begin() + e, 0.0F);
    if (written != nullptr) *written = {};
  }
};

// Non-owning view of one non-trainable state tensor (e.g. batch-norm
// running statistics) that must survive model save/load.
struct BufferRef {
  std::string name;
  Tensor* value = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Training pass: batch statistics, dropout masks, and the caches
  // Backward reads. Where it computes what inference computes (Dense,
  // Conv1D, activations, Reshape, pooling) it calls Score on the
  // calling thread's context and records only what Backward reads;
  // BatchNorm, Dropout, GRU and LSTM keep their own pass. Dense, Conv1D
  // and GRU throw CheckError in int8 mode (the int8 engine is
  // inference-only).
  virtual Tensor TrainForward(const Tensor& x) = 0;

  // Backpropagates dy (gradient w.r.t. the last TrainForward output)
  // and returns the gradient w.r.t. that pass's input. Must be called
  // at most once per TrainForward.
  virtual Tensor Backward(const Tensor& dy) = 0;

  // Inference, the only implementation of it: BatchNorm reads its
  // running statistics, dropout is the identity, and kInt8 runs the
  // frozen quantized path. Reads weights only and never mutates layer
  // state, so any number of threads may Score one model concurrently,
  // each with its own context (scratch arena); Backward stays paired
  // with TrainForward, untouched. The quantizable ops (Dense, Conv1D,
  // GRU) record their fp32 input in the context's calibration sink
  // when one is attached.
  virtual Tensor Score(const Tensor& x, InferenceContext& ctx) const = 0;

  // `training` picks the pass: TrainForward, or Score on the calling
  // thread's context.
  Tensor Forward(const Tensor& x, bool training) {
    return training ? TrainForward(x)
                    : Score(x, InferenceContext::ThisThread());
  }

  // Trainable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> Params() { return {}; }

  // Non-trainable persistent state (serialized alongside Params).
  virtual std::vector<BufferRef> Buffers() { return {}; }

  // Human-readable layer name for summaries and saved models.
  [[nodiscard]] virtual std::string Name() const = 0;

  // Number of "parameter layers" this layer contributes in the paper's
  // depth-counting convention (BN, Conv, GRU, Dense each count 1;
  // stateless layers count 0). Parameterized layers override this.
  [[nodiscard]] virtual int ParameterLayerCount() const { return 0; }

  // Supplies the RNG used for stochastic behaviour (dropout). Layers
  // without randomness ignore it. The pointer must outlive the layer.
  virtual void SetRng(Rng* rng) { (void)rng; }

  // Switches the inference quantization mode. Entering kInt8 freezes
  // the layer's quantized parameters from the fp32 masters and the
  // calibration observer, unless they were already loaded from a
  // sidecar. Layers without a quantizable linear op ignore the mode;
  // containers recurse into their children.
  virtual void SetQuantMode(quant::Mode mode) { (void)mode; }

  // Appends this layer's quantized linear ops in traversal order (the
  // order the `.quant` sidecar serializes). Containers recurse.
  virtual void CollectQuantOps(std::vector<quant::LinearQuant*>& ops) {
    (void)ops;
  }

  // Zeroes all parameter gradients.
  void ZeroGrad() {
    for (const auto& p : Params()) p.ZeroGrad();
  }

  // Total trainable scalar count.
  [[nodiscard]] std::int64_t ParameterCount() {
    std::int64_t n = 0;
    for (auto& p : Params()) n += p.value->size();
    return n;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace pelican::nn
