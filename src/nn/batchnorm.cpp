#include "nn/batchnorm.h"

#include <cmath>
#include <vector>

#include "common/thread_pool.h"

namespace pelican::nn {

BatchNorm::BatchNorm(std::int64_t channels, float momentum, float epsilon)
    : channels_(channels),
      momentum_(momentum),
      eps_(epsilon),
      gamma_(Tensor::Full({channels}, 1.0F)),
      beta_({channels}),
      running_mean_({channels}),
      running_var_(Tensor::Full({channels}, 1.0F)),
      inv_std_({channels}) {
  PELICAN_CHECK(channels > 0);
  PELICAN_CHECK(momentum >= 0.0F && momentum < 1.0F);
}

namespace {
// Channel index of flat element i given row width c (last-axis channels).
inline std::int64_t ChannelOf(std::int64_t i, std::int64_t c) { return i % c; }

// Rows per shard so one task touches at least ~16k elements.
std::size_t RowGrain(std::int64_t channels) {
  constexpr std::int64_t kMinShardWork = 1 << 14;
  return static_cast<std::size_t>(std::max<std::int64_t>(
      1, kMinShardWork / std::max<std::int64_t>(1, channels)));
}

// Per-channel Σ per_element(flat_index, channel) over all rows, sharded
// with per-shard partials combined in shard order — bit-identical for
// any thread count because the shard layout ignores the pool size.
template <typename PerElement>
Tensor ShardedChannelSum(std::int64_t rows, std::int64_t c,
                         PerElement&& per_element) {
  const std::size_t grain = RowGrain(c);
  const std::size_t shards =
      pelican::ShardCount(static_cast<std::size_t>(rows), grain);
  std::vector<Tensor> parts(shards, Tensor({c}));
  ParallelForShards(
      0, static_cast<std::size_t>(rows), grain,
      [&](std::size_t shard, std::size_t lo, std::size_t hi) {
        float* sums = parts[shard].data().data();
        for (std::size_t r = lo; r < hi; ++r) {
          const std::int64_t base = static_cast<std::int64_t>(r) * c;
          for (std::int64_t j = 0; j < c; ++j) {
            sums[j] += per_element(base + j, j);
          }
        }
      });
  Tensor total({c});
  for (std::size_t s = 0; s < shards; ++s) total.Add(parts[s]);
  return total;
}
}  // namespace

// The training pass normalizes with the batch statistics, folds them
// into the running averages, and caches xhat and 1/σ for Backward.
Tensor BatchNorm::TrainForward(const Tensor& x) {
  PELICAN_CHECK(x.rank() == 2 || x.rank() == 3, "BatchNorm expects rank 2/3");
  const std::int64_t c = x.dim(x.rank() - 1);
  PELICAN_CHECK(c == channels_, "BatchNorm channel mismatch");
  in_shape_ = x.shape();
  rows_ = x.size() / c;
  const float* xp = x.data().data();

  Tensor mean = ShardedChannelSum(
      rows_, c, [xp](std::int64_t i, std::int64_t) { return xp[i]; });
  mean.Scale(1.0F / static_cast<float>(rows_));
  const float* mp = mean.data().data();
  Tensor var = ShardedChannelSum(rows_, c,
                                 [xp, mp](std::int64_t i, std::int64_t j) {
                                   const float d = xp[i] - mp[j];
                                   return d * d;
                                 });
  var.Scale(1.0F / static_cast<float>(rows_));
  // Update running averages.
  for (std::int64_t j = 0; j < c; ++j) {
    running_mean_[j] = momentum_ * running_mean_[j] +
                       (1.0F - momentum_) * mean[j];
    running_var_[j] = momentum_ * running_var_[j] +
                      (1.0F - momentum_) * var[j];
  }

  for (std::int64_t j = 0; j < c; ++j) {
    inv_std_[j] = 1.0F / std::sqrt(var[j] + eps_);
  }

  xhat_ = Tensor(in_shape_);
  Tensor y(in_shape_);
  float* hp = xhat_.data().data();
  float* yp = y.data().data();
  const float* sp = inv_std_.data().data();
  const float* gp = gamma_.data().data();
  const float* betap = beta_.data().data();
  ParallelFor(
      0, static_cast<std::size_t>(rows_),
      [&](std::size_t r) {
        const std::int64_t base = static_cast<std::int64_t>(r) * c;
        for (std::int64_t j = 0; j < c; ++j) {
          hp[base + j] = (xp[base + j] - mp[j]) * sp[j];
          yp[base + j] = gp[j] * hp[base + j] + betap[j];
        }
      },
      RowGrain(c));
  return y;
}

// Inference: running statistics in, affine map out, with the training
// pass's loop shape and expression order.
Tensor BatchNorm::Score(const Tensor& x, InferenceContext& /*ctx*/) const {
  PELICAN_CHECK(x.rank() == 2 || x.rank() == 3, "BatchNorm expects rank 2/3");
  const std::int64_t c = x.dim(x.rank() - 1);
  PELICAN_CHECK(c == channels_, "BatchNorm channel mismatch");
  const std::int64_t rows = x.size() / c;
  const float* xp = x.data().data();

  Tensor inv_std({c});
  for (std::int64_t j = 0; j < c; ++j) {
    inv_std[j] = 1.0F / std::sqrt(running_var_[j] + eps_);
  }

  Tensor y(x.shape());
  float* yp = y.data().data();
  const float* mp = running_mean_.data().data();
  const float* sp = inv_std.data().data();
  const float* gp = gamma_.data().data();
  const float* betap = beta_.data().data();
  ParallelFor(
      0, static_cast<std::size_t>(rows),
      [&](std::size_t r) {
        const std::int64_t base = static_cast<std::int64_t>(r) * c;
        for (std::int64_t j = 0; j < c; ++j) {
          const float xh = (xp[base + j] - mp[j]) * sp[j];
          yp[base + j] = gp[j] * xh + betap[j];
        }
      },
      RowGrain(c));
  return y;
}

Tensor BatchNorm::Backward(const Tensor& dy) {
  PELICAN_CHECK(dy.shape() == in_shape_, "BatchNorm backward shape mismatch");
  AllocateGrads(Params());
  const std::int64_t c = channels_;
  const auto m = static_cast<float>(rows_);
  const float* dyp = dy.data().data();
  const float* hp = xhat_.data().data();

  // Per-channel reductions over the batch, sharded deterministically.
  Tensor sum_dy = ShardedChannelSum(
      rows_, c, [dyp](std::int64_t i, std::int64_t) { return dyp[i]; });
  Tensor sum_dy_xhat = ShardedChannelSum(
      rows_, c,
      [dyp, hp](std::int64_t i, std::int64_t) { return dyp[i] * hp[i]; });
  dgamma_.Add(sum_dy_xhat);
  dbeta_.Add(sum_dy);

  Tensor dx(in_shape_);
  float* dxp = dx.data().data();
  const float* gp = gamma_.data().data();
  const float* sp = inv_std_.data().data();
  const float* sdy = sum_dy.data().data();
  const float* sdyh = sum_dy_xhat.data().data();
  // Full BN gradient (batch statistics participate).
  ParallelFor(
      0, static_cast<std::size_t>(rows_),
      [&](std::size_t r) {
        const std::int64_t base = static_cast<std::int64_t>(r) * c;
        for (std::int64_t j = 0; j < c; ++j) {
          dxp[base + j] =
              gp[j] * sp[j] *
              (dyp[base + j] - sdy[j] / m - hp[base + j] * sdyh[j] / m);
        }
      },
      RowGrain(c));
  return dx;
}

std::vector<ParamRef> BatchNorm::Params() {
  return {{"bn.gamma", &gamma_, &dgamma_}, {"bn.beta", &beta_, &dbeta_}};
}

std::vector<BufferRef> BatchNorm::Buffers() {
  return {{"bn.running_mean", &running_mean_},
          {"bn.running_var", &running_var_}};
}

}  // namespace pelican::nn
