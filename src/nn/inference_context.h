// nn::InferenceContext — per-caller activation scratchpad for
// Layer::Score, the one inference path.
//
// Score never touches layer members, so the only state a forward pass
// needs — im2col buffers, per-step GRU projections — has to live
// somewhere the caller controls. Each context owns a private Workspace
// arena (not Workspace::Tls()), so:
//
//   * N scorer threads can run Score concurrently on ONE model, each
//     with its own context — no shared mutable state anywhere;
//   * two contexts interleaved on one thread stay independent (their
//     arenas never alias), which the nn test suite asserts;
//   * steady-state scoring performs zero scratch allocations: the
//     arena's blocks are reused call after call, exactly like the
//     training path's TLS workspace.
//
// A context is NOT thread-safe: one context, one thread at a time.
// Layers open a Workspace::Scope on the context's arena per Score call,
// so all scratch is released on return and pointers never escape.
//
// Calibration rides on the context too: with a CalibrationSink
// attached, every quantizable op's Score records the max-|x| of its
// fp32 input in the sink, keyed by the op. The layers stay const; the
// caller copies the sink into each op's observer afterwards.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/workspace.h"
#include "quant/quantize.h"

namespace pelican::nn {

using CalibrationSink =
    std::unordered_map<const quant::LinearQuant*, quant::Observer>;

class InferenceContext {
 public:
  InferenceContext() = default;
  InferenceContext(const InferenceContext&) = delete;
  InferenceContext& operator=(const InferenceContext&) = delete;

  // The calling thread's context (constructed on first use). Layer::
  // Forward(x, false), the training passes that delegate to Score and
  // core::Trainer's predict loops score through it. Score calls on one
  // thread nest strictly, so sharing it among them is safe.
  static InferenceContext& ThisThread() {
    static thread_local InferenceContext ctx;
    return ctx;
  }

  [[nodiscard]] Workspace& workspace() { return ws_; }

  // Floats of scratch valid until the innermost enclosing
  // Workspace::Scope on this context's arena closes.
  float* Alloc(std::size_t n) { return ws_.Alloc(n); }

  // Attaches `sink` (nullptr detaches). It must outlive its use here.
  void set_calibration_sink(CalibrationSink* sink) { sink_ = sink; }

  // Feeds op's observer in the attached sink; a no-op without one.
  void Record(const quant::LinearQuant& op, const float* x, std::int64_t n) {
    if (sink_ != nullptr) (*sink_)[&op].Observe(x, n);
  }

 private:
  Workspace ws_;
  CalibrationSink* sink_ = nullptr;
};

}  // namespace pelican::nn
