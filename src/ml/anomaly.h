// Anomaly detection baselines — the alternative NIDS strategy the paper
// argues *against* in Section VI ("anomaly detection often leads to a
// high false alarm rate", Reason one). Both detectors learn a profile
// of NORMAL traffic only and flag outliers:
//
//  - GaussianAnomalyDetector: diagonal-Gaussian statistical profile;
//    score = mean squared z-score (the "statistical learning" family,
//    refs [31]-[34]).
//  - AutoencoderDetector: a Dense bottleneck autoencoder trained to
//    reconstruct normal records; score = reconstruction MSE (the
//    "unsupervised learning" family, refs [35]-[37]).
//
// Both choose their alert threshold as a percentile of the *training*
// scores (i.e. a target false-alarm budget on normal traffic), then
// classify anything above it as attack. The bench ext_anomaly runs them
// against supervised Pelican to reproduce the Section VI argument
// quantitatively.
#pragma once

#include "common/rng.h"
#include "nn/nn.h"
#include "tensor/tensor.h"

namespace pelican::ml {

// Binary verdicts from anomaly detectors: 0 = normal, 1 = attack.
class AnomalyDetector {
 public:
  virtual ~AnomalyDetector() = default;

  // Learns the normal profile. `x_normal` must contain ONLY benign
  // records — anomaly detection's defining constraint.
  virtual void FitNormal(const Tensor& x_normal) = 0;

  // Outlier score for one encoded record (higher = more anomalous).
  [[nodiscard]] virtual double Score(std::span<const float> row) const = 0;

  // Chooses the threshold so `quantile` of the normal training scores
  // fall below it (e.g. 0.99 → 1% training false-alarm budget).
  void CalibrateThreshold(const Tensor& x_normal, double quantile);

  [[nodiscard]] bool IsAttack(std::span<const float> row) const {
    return Score(row) > threshold_;
  }
  [[nodiscard]] std::vector<int> PredictAll(const Tensor& x) const;

  [[nodiscard]] double threshold() const { return threshold_; }

 protected:
  double threshold_ = 0.0;
};

// Per-feature diagonal Gaussian profile.
class GaussianAnomalyDetector final : public AnomalyDetector {
 public:
  void FitNormal(const Tensor& x_normal) override;
  [[nodiscard]] double Score(std::span<const float> row) const override;

 private:
  std::vector<double> mean_;
  std::vector<double> inv_std_;
};

// Dense bottleneck autoencoder: D → hidden → bottleneck → hidden → D.
class AutoencoderDetector final : public AnomalyDetector {
 public:
  struct Config {
    std::int64_t hidden = 64;
    std::int64_t bottleneck = 16;
    int epochs = 20;
    std::size_t batch_size = 64;
    float learning_rate = 0.001F;
    std::uint64_t seed = 99;
  };
  AutoencoderDetector();  // default Config
  explicit AutoencoderDetector(Config config);

  void FitNormal(const Tensor& x_normal) override;
  [[nodiscard]] double Score(std::span<const float> row) const override;

  [[nodiscard]] float FinalTrainLoss() const { return final_loss_; }

 private:
  Config config_;
  nn::Sequential net_;
  float final_loss_ = 0.0F;
};

}  // namespace pelican::ml
