#include "ml/anomaly.h"

#include <algorithm>
#include <cmath>

#include "optim/optimizer.h"

namespace pelican::ml {

void AnomalyDetector::CalibrateThreshold(const Tensor& x_normal,
                                         double quantile) {
  PELICAN_CHECK(quantile > 0.0 && quantile <= 1.0, "quantile in (0,1]");
  PELICAN_CHECK(x_normal.rank() == 2 && x_normal.dim(0) > 0);
  std::vector<double> scores;
  scores.reserve(static_cast<std::size_t>(x_normal.dim(0)));
  for (std::int64_t i = 0; i < x_normal.dim(0); ++i) {
    scores.push_back(Score(x_normal.Row(i)));
  }
  std::sort(scores.begin(), scores.end());
  const auto rank = std::min(
      scores.size() - 1,
      static_cast<std::size_t>(quantile *
                               static_cast<double>(scores.size())));
  threshold_ = scores[rank];
}

std::vector<int> AnomalyDetector::PredictAll(const Tensor& x) const {
  PELICAN_CHECK(x.rank() == 2);
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(x.dim(0)));
  for (std::int64_t i = 0; i < x.dim(0); ++i) {
    out.push_back(IsAttack(x.Row(i)) ? 1 : 0);
  }
  return out;
}

// ---- Gaussian -----------------------------------------------------------

void GaussianAnomalyDetector::FitNormal(const Tensor& x_normal) {
  PELICAN_CHECK(x_normal.rank() == 2 && x_normal.dim(0) > 1,
                "need at least two normal records");
  const std::int64_t n = x_normal.dim(0), d = x_normal.dim(1);
  mean_.assign(static_cast<std::size_t>(d), 0.0);
  inv_std_.assign(static_cast<std::size_t>(d), 0.0);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto row = x_normal.Row(i);
    for (std::int64_t j = 0; j < d; ++j) {
      mean_[static_cast<std::size_t>(j)] += row[static_cast<std::size_t>(j)];
    }
  }
  for (auto& m : mean_) m /= static_cast<double>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto row = x_normal.Row(i);
    for (std::int64_t j = 0; j < d; ++j) {
      const double dv =
          row[static_cast<std::size_t>(j)] - mean_[static_cast<std::size_t>(j)];
      inv_std_[static_cast<std::size_t>(j)] += dv * dv;
    }
  }
  for (auto& v : inv_std_) {
    const double stddev = std::sqrt(v / static_cast<double>(n));
    v = stddev > 1e-9 ? 1.0 / stddev : 0.0;  // constant features ignored
  }
}

double GaussianAnomalyDetector::Score(std::span<const float> row) const {
  PELICAN_CHECK(!mean_.empty(), "Score before FitNormal");
  PELICAN_CHECK(row.size() == mean_.size(), "feature width mismatch");
  double acc = 0.0;
  for (std::size_t j = 0; j < row.size(); ++j) {
    const double z = (row[j] - mean_[j]) * inv_std_[j];
    acc += z * z;
  }
  return acc / static_cast<double>(row.size());
}

// ---- Autoencoder ---------------------------------------------------------

AutoencoderDetector::AutoencoderDetector() : AutoencoderDetector(Config()) {}

AutoencoderDetector::AutoencoderDetector(Config config) : config_(config) {
  PELICAN_CHECK(config_.hidden >= 2 && config_.bottleneck >= 1);
  PELICAN_CHECK(config_.epochs >= 1 && config_.batch_size >= 1);
}

void AutoencoderDetector::FitNormal(const Tensor& x_normal) {
  PELICAN_CHECK(x_normal.rank() == 2 && x_normal.dim(0) > 0);
  const std::int64_t d = x_normal.dim(1);
  Rng rng(config_.seed);

  net_ = nn::Sequential();
  net_.Add(std::make_unique<nn::Dense>(d, config_.hidden, rng));
  net_.Add(nn::Tanh());
  net_.Add(std::make_unique<nn::Dense>(config_.hidden, config_.bottleneck,
                                       rng));
  net_.Add(nn::Tanh());
  net_.Add(std::make_unique<nn::Dense>(config_.bottleneck, config_.hidden,
                                       rng));
  net_.Add(nn::Tanh());
  net_.Add(std::make_unique<nn::Dense>(config_.hidden, d, rng));

  optim::Adam optimizer(config_.learning_rate);
  optimizer.Attach(net_.Params());

  const std::int64_t n = x_normal.dim(0);
  std::vector<std::size_t> order(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(order);
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < order.size();
         start += config_.batch_size) {
      const std::size_t end =
          std::min(order.size(), start + config_.batch_size);
      Tensor batch({static_cast<std::int64_t>(end - start), d});
      for (std::size_t i = start; i < end; ++i) {
        const auto src = x_normal.Row(static_cast<std::int64_t>(order[i]));
        auto dst = batch.Row(static_cast<std::int64_t>(i - start));
        std::copy(src.begin(), src.end(), dst.begin());
      }
      optimizer.ZeroGrad();
      Tensor recon = net_.Forward(batch, /*training=*/true);
      auto mse = nn::MeanSquaredError(recon, batch);
      net_.Backward(mse.dpred);
      optimizer.Step();
      loss_sum += mse.loss;
      ++batches;
    }
    final_loss_ = static_cast<float>(loss_sum / static_cast<double>(batches));
  }
}

double AutoencoderDetector::Score(std::span<const float> row) const {
  PELICAN_CHECK(net_.LayerCount() > 0, "Score before FitNormal");
  Tensor x({1, static_cast<std::int64_t>(row.size())});
  std::copy(row.begin(), row.end(), x.data().begin());
  // Score writes no layer state, so concurrent callers are safe.
  Tensor recon = net_.Score(x, nn::InferenceContext::ThisThread());
  double acc = 0.0;
  for (std::int64_t i = 0; i < recon.size(); ++i) {
    const double d = recon[i] - x[i];
    acc += d * d;
  }
  return acc / static_cast<double>(recon.size());
}

}  // namespace pelican::ml
