// Tests for the imbalance-resampling utilities (Section V-G limitation
// #1) and the anomaly-detection baselines (Section VI).
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "data/data.h"
#include "ml/anomaly.h"
#include "nn/loss.h"

namespace pelican {
namespace {

// ---- MSE loss -----------------------------------------------------------

TEST(Mse, ValueAndGradient) {
  auto pred = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  auto target = Tensor::FromVector({2, 2}, {1, 0, 3, 8});
  const auto result = nn::MeanSquaredError(pred, target);
  // Squared diffs: 0, 4, 0, 16 → mean 5.
  EXPECT_FLOAT_EQ(result.loss, 5.0F);
  // d/dpred = 2(pred − target)/4.
  EXPECT_FLOAT_EQ(result.dpred.At(0, 1), 1.0F);
  EXPECT_FLOAT_EQ(result.dpred.At(1, 1), -2.0F);
  EXPECT_FLOAT_EQ(result.dpred.At(0, 0), 0.0F);
}

TEST(Mse, GradientMatchesFiniteDifferences) {
  Rng rng(1);
  Tensor pred = Tensor::RandomNormal({3, 4}, rng, 0, 1);
  const Tensor target = Tensor::RandomNormal({3, 4}, rng, 0, 1);
  const auto analytic = nn::MeanSquaredError(pred, target);
  const float eps = 1e-3F;
  for (std::int64_t i = 0; i < pred.size(); ++i) {
    const float saved = pred[i];
    pred[i] = saved + eps;
    const float up = nn::MeanSquaredError(pred, target).loss;
    pred[i] = saved - eps;
    const float down = nn::MeanSquaredError(pred, target).loss;
    pred[i] = saved;
    EXPECT_NEAR(analytic.dpred[i], (up - down) / (2 * eps), 1e-3F);
  }
}

TEST(Mse, RejectsShapeMismatch) {
  EXPECT_THROW(nn::MeanSquaredError(Tensor({2, 2}), Tensor({4})),
               CheckError);
}

// ---- oversampling -------------------------------------------------------

TEST(Oversample, RaisesMinorityToTargetRatio) {
  Rng rng(2);
  auto ds = data::GenerateNslKdd(2000, rng);
  const auto before = ds.LabelHistogram();
  const std::size_t majority =
      *std::max_element(before.begin(), before.end());

  data::OversampleConfig config;
  config.target_ratio = 0.3;
  Rng resample_rng(3);
  const auto balanced = data::RandomOversample(ds, config, resample_rng);
  const auto after = balanced.LabelHistogram();
  const auto target = static_cast<std::size_t>(
      std::ceil(0.3 * static_cast<double>(majority)));
  for (std::size_t c = 0; c < after.size(); ++c) {
    if (before[c] == 0) continue;
    EXPECT_GE(after[c], std::min(target, std::max(before[c], target)))
        << "class " << c;
  }
  // Originals are all retained.
  EXPECT_GE(balanced.Size(), ds.Size());
  for (std::size_t c = 0; c < after.size(); ++c) {
    EXPECT_GE(after[c], before[c]);
  }
}

TEST(Oversample, JitterStaysWithinObservedRange) {
  Rng rng(4);
  auto ds = data::GenerateNslKdd(500, rng);
  data::OversampleConfig config;
  config.target_ratio = 0.5;
  config.numeric_jitter = 0.5;  // aggressive
  Rng resample_rng(5);
  const auto balanced = data::RandomOversample(ds, config, resample_rng);

  // Per-column min/max of the original bound every synthesized cell.
  const std::size_t width = ds.schema().ColumnCount();
  std::vector<double> lo(width, 1e300), hi(width, -1e300);
  for (std::size_t i = 0; i < ds.Size(); ++i) {
    const auto row = ds.Row(i);
    for (std::size_t c = 0; c < width; ++c) {
      lo[c] = std::min(lo[c], row[c]);
      hi[c] = std::max(hi[c], row[c]);
    }
  }
  for (std::size_t i = ds.Size(); i < balanced.Size(); ++i) {
    const auto row = balanced.Row(i);
    for (std::size_t c = 0; c < width; ++c) {
      EXPECT_GE(row[c], lo[c] - 1e-9);
      EXPECT_LE(row[c], hi[c] + 1e-9);
    }
  }
}

TEST(Oversample, CategoricalCellsCopiedVerbatim) {
  Rng rng(6);
  auto ds = data::GenerateNslKdd(300, rng);
  data::OversampleConfig config;
  config.target_ratio = 0.4;
  config.numeric_jitter = 1.0;
  Rng resample_rng(7);
  const auto balanced = data::RandomOversample(ds, config, resample_rng);
  // Synthesized categorical cells must still be valid vocabulary
  // indices — RawDataset::Add enforces it, so reaching here suffices,
  // but double-check integrality.
  const auto& schema = ds.schema();
  for (std::size_t i = ds.Size(); i < balanced.Size(); ++i) {
    const auto row = balanced.Row(i);
    for (std::size_t c = 0; c < schema.ColumnCount(); ++c) {
      if (schema.Column(c).kind == data::ColumnKind::kCategorical) {
        EXPECT_EQ(row[c], std::floor(row[c]));
      }
    }
  }
}

TEST(Oversample, ZeroJitterDuplicatesExactly) {
  Rng rng(8);
  auto ds = data::GenerateNslKdd(200, rng);
  data::OversampleConfig config;
  config.target_ratio = 1.0;
  config.numeric_jitter = 0.0;
  Rng resample_rng(9);
  const auto balanced = data::RandomOversample(ds, config, resample_rng);
  // Every synthesized row equals some original row of the same class.
  for (std::size_t i = ds.Size(); i < std::min(balanced.Size(),
                                               ds.Size() + 20); ++i) {
    const auto row = balanced.Row(i);
    bool found = false;
    for (std::size_t j = 0; j < ds.Size() && !found; ++j) {
      if (ds.Label(j) != balanced.Label(i)) continue;
      const auto orig = ds.Row(j);
      found = std::equal(row.begin(), row.end(), orig.begin());
    }
    EXPECT_TRUE(found) << "row " << i;
  }
}

TEST(Undersample, CapsEveryClass) {
  Rng rng(10);
  auto ds = data::GenerateNslKdd(2000, rng);
  Rng resample_rng(11);
  const auto reduced = data::RandomUndersample(ds, 100, resample_rng);
  const auto hist = reduced.LabelHistogram();
  for (std::size_t c = 0; c < hist.size(); ++c) {
    EXPECT_LE(hist[c], 100u);
  }
  EXPECT_LT(reduced.Size(), ds.Size());
}

TEST(Oversample, RejectsBadConfig) {
  Rng rng(12);
  auto ds = data::GenerateNslKdd(50, rng);
  data::OversampleConfig config;
  config.target_ratio = 0.0;
  Rng r2(13);
  EXPECT_THROW(data::RandomOversample(ds, config, r2), CheckError);
}

// ---- anomaly detectors ----------------------------------------------------

// Normal cluster at origin; attacks far away on a few dims.
void MakeAnomalyProblem(Rng& rng, Tensor& x_normal, Tensor& x_test,
                        std::vector<int>& truth) {
  x_normal = Tensor::RandomNormal({300, 8}, rng, 0.0F, 1.0F);
  x_test = Tensor({200, 8});
  truth.resize(200);
  for (std::int64_t i = 0; i < 200; ++i) {
    const bool attack = i % 4 == 0;  // 25% attacks
    for (std::int64_t j = 0; j < 8; ++j) {
      x_test.At(i, j) = static_cast<float>(rng.Normal(0.0, 1.0));
    }
    if (attack) {
      x_test.At(i, 1) += 6.0F;
      x_test.At(i, 5) -= 6.0F;
    }
    truth[static_cast<std::size_t>(i)] = attack ? 1 : 0;
  }
}

double BinaryAccuracy(const std::vector<int>& truth,
                      const std::vector<int>& pred) {
  int correct = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    correct += truth[i] == pred[i];
  }
  return static_cast<double>(correct) / static_cast<double>(truth.size());
}

TEST(GaussianAnomaly, SeparatesObviousOutliers) {
  Rng rng(14);
  Tensor x_normal, x_test;
  std::vector<int> truth;
  MakeAnomalyProblem(rng, x_normal, x_test, truth);

  ml::GaussianAnomalyDetector detector;
  detector.FitNormal(x_normal);
  detector.CalibrateThreshold(x_normal, 0.99);
  EXPECT_GT(BinaryAccuracy(truth, detector.PredictAll(x_test)), 0.9);
}

TEST(GaussianAnomaly, ThresholdQuantileControlsTrainingFalseAlarms) {
  Rng rng(15);
  Tensor x_normal = Tensor::RandomNormal({1000, 4}, rng, 0, 1);
  ml::GaussianAnomalyDetector detector;
  detector.FitNormal(x_normal);
  detector.CalibrateThreshold(x_normal, 0.9);
  // ~10% of the normal training data must sit above the threshold.
  int above = 0;
  for (std::int64_t i = 0; i < x_normal.dim(0); ++i) {
    above += detector.IsAttack(x_normal.Row(i)) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(above) / 1000.0, 0.1, 0.02);
}

TEST(GaussianAnomaly, ScoreGrowsWithDeviation) {
  Rng rng(16);
  Tensor x_normal = Tensor::RandomNormal({500, 3}, rng, 0, 1);
  ml::GaussianAnomalyDetector detector;
  detector.FitNormal(x_normal);
  const std::vector<float> near = {0.1F, 0.0F, -0.1F};
  const std::vector<float> far = {5.0F, -5.0F, 5.0F};
  EXPECT_GT(detector.Score(far), detector.Score(near) * 10.0);
}

TEST(GaussianAnomaly, RequiresFitBeforeScore) {
  ml::GaussianAnomalyDetector detector;
  const std::vector<float> row = {0.0F};
  EXPECT_THROW(detector.Score(row), CheckError);
}

TEST(AutoencoderAnomaly, LearnsToReconstructNormalTraffic) {
  Rng rng(17);
  Tensor x_normal, x_test;
  std::vector<int> truth;
  MakeAnomalyProblem(rng, x_normal, x_test, truth);

  ml::AutoencoderDetector::Config config;
  config.hidden = 16;
  config.bottleneck = 4;
  config.epochs = 40;
  ml::AutoencoderDetector detector(config);
  detector.FitNormal(x_normal);
  detector.CalibrateThreshold(x_normal, 0.97);
  // Outliers 6σ away on specific dims reconstruct poorly.
  EXPECT_GT(BinaryAccuracy(truth, detector.PredictAll(x_test)), 0.8);
  EXPECT_LT(detector.FinalTrainLoss(), 1.0F);
}

TEST(AutoencoderAnomaly, AttackScoresExceedNormalScores) {
  Rng rng(18);
  Tensor x_normal, x_test;
  std::vector<int> truth;
  MakeAnomalyProblem(rng, x_normal, x_test, truth);
  ml::AutoencoderDetector::Config config;
  config.epochs = 30;
  config.hidden = 16;
  config.bottleneck = 4;
  ml::AutoencoderDetector detector(config);
  detector.FitNormal(x_normal);
  double attack_mean = 0.0, normal_mean = 0.0;
  int attacks = 0, normals = 0;
  for (std::int64_t i = 0; i < x_test.dim(0); ++i) {
    const double score = detector.Score(x_test.Row(i));
    if (truth[static_cast<std::size_t>(i)] == 1) {
      attack_mean += score;
      ++attacks;
    } else {
      normal_mean += score;
      ++normals;
    }
  }
  EXPECT_GT(attack_mean / attacks, 2.0 * normal_mean / normals);
}

// Score is const and writes no layer state, so threads scoring the same
// rows through one fitted detector must each reproduce a sequential
// pass exactly.
TEST(AutoencoderAnomaly, ConcurrentScoresMatchSequentialPass) {
  Rng rng(19);
  Tensor x_normal, x_test;
  std::vector<int> truth;
  MakeAnomalyProblem(rng, x_normal, x_test, truth);
  ml::AutoencoderDetector::Config config;
  config.epochs = 2;
  config.hidden = 16;
  config.bottleneck = 4;
  ml::AutoencoderDetector detector(config);
  detector.FitNormal(x_normal);
  std::vector<double> want;
  for (std::int64_t i = 0; i < x_test.dim(0); ++i) {
    want.push_back(detector.Score(x_test.Row(i)));
  }

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::int64_t i = 0; i < x_test.dim(0); ++i) {
        if (detector.Score(x_test.Row(i)) !=
            want[static_cast<std::size_t>(i)]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace pelican
