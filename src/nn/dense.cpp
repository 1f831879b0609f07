#include "nn/dense.h"

#include "nn/initializers.h"
#include "tensor/ops.h"

namespace pelican::nn {

Dense::Dense(std::int64_t in_features, std::int64_t out_features, Init init)
    : in_(in_features),
      out_(out_features),
      w_(GlorotUniform({in_features, out_features}, in_features,
                       out_features, init)),
      b_({out_features}) {
  qop_.name = "dense.w";
}

Tensor Dense::TrainForward(const Tensor& x) {
  PELICAN_CHECK(quant_mode_ != quant::Mode::kInt8,
                "int8 forward is inference-only");
  Tensor y = Score(x, InferenceContext::ThisThread());
  x_ = x;
  return y;
}

Tensor Dense::Score(const Tensor& x, InferenceContext& ctx) const {
  PELICAN_CHECK(x.rank() == 2 && x.dim(1) == in_,
                "Dense expects (N, in_features)");
  ctx.Record(qop_, x.data().data(), x.size());
  Tensor y;
  if (quant_mode_ == quant::Mode::kInt8) {
    y = Tensor({x.dim(0), out_});
    quant::QuantizedMatMul(x.data().data(), x.dim(0), in_, qop_, 0,
                           y.data().data(), out_);
  } else {
    y = MatMul(x, w_);
  }
  AddRowBias(y, b_);
  return y;
}

void Dense::SetQuantMode(quant::Mode mode) {
  if (mode == quant::Mode::kInt8 && !qop_.Ready()) {
    PELICAN_CHECK(qop_.observer.Seen(),
                  "int8 mode requires calibration or a loaded sidecar");
    quant::QuantizeWeightsPerChannel(qop_, w_.data().data(), in_, out_);
    quant::FreezeActivationScale(qop_);
  }
  quant_mode_ = mode;
}

void Dense::CollectQuantOps(std::vector<quant::LinearQuant*>& ops) {
  ops.push_back(&qop_);
}

Tensor Dense::Backward(const Tensor& dy) {
  PELICAN_CHECK(dy.rank() == 2 && dy.dim(1) == out_ && dy.dim(0) == x_.dim(0),
                "Dense backward shape mismatch");
  AllocateGrads(Params());
  // dW += xᵀ·dy ; db += Σ rows(dy) ; dx = dy·Wᵀ.
  MatMulTransAAccum(x_, dy, dw_);
  SumRowsInto(dy, db_);
  return MatMulTransB(dy, w_);
}

std::vector<ParamRef> Dense::Params() {
  return {{"dense.w", &w_, &dw_}, {"dense.b", &b_, &db_}};
}

}  // namespace pelican::nn
