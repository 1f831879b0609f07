// Core-module tests: trainer convergence and history, neural-classifier
// adapter, model I/O round-trips (including batch-norm running-stat
// persistence — a regression test), experiment configs, PelicanIds API.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "core/core.h"
#include "tensor/ops.h"
#include "data/data.h"
#include "models/pelican.h"
#include "models/zoo.h"

namespace pelican::core {
namespace {

// A linearly separable 2-class problem the smallest net must crack.
void MakeBlobs(Rng& rng, std::int64_t n, Tensor& x, std::vector<int>& y) {
  x = Tensor({n, 4});
  y.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(i % 2);
    const float base = cls == 0 ? -2.0F : 2.0F;
    for (std::int64_t j = 0; j < 4; ++j) {
      x.At(i, j) = base + static_cast<float>(rng.Normal(0, 0.7));
    }
    y[static_cast<std::size_t>(i)] = cls;
  }
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Trainer, LossDecreasesAndAccuracyRises) {
  Rng rng(1);
  Tensor x;
  std::vector<int> y;
  MakeBlobs(rng, 200, x, y);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Dense>(4, 8, rng));
  net.Add(nn::Relu());
  net.Add(std::make_unique<nn::Dense>(8, 2, rng));

  TrainConfig tc;
  tc.epochs = 15;
  tc.batch_size = 32;
  tc.learning_rate = 0.01F;
  Trainer trainer(net, tc);
  const auto history = trainer.Fit(x, y);
  ASSERT_EQ(history.size(), 15u);
  EXPECT_LT(history.back().train_loss, history.front().train_loss * 0.5F);
  EXPECT_GT(history.back().train_accuracy, 0.95F);
  EXPECT_EQ(history.front().epoch, 1);
  EXPECT_FALSE(history.front().test_loss.has_value());
}

TEST(Trainer, RecordsTestSeriesWhenGiven) {
  Rng rng(2);
  Tensor x, xt;
  std::vector<int> y, yt;
  MakeBlobs(rng, 120, x, y);
  MakeBlobs(rng, 60, xt, yt);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Dense>(4, 2, rng));
  TrainConfig tc;
  tc.epochs = 5;
  Trainer trainer(net, tc);
  const auto history = trainer.Fit(x, y, &xt, yt);
  for (const auto& e : history) {
    ASSERT_TRUE(e.test_loss.has_value());
    ASSERT_TRUE(e.test_accuracy.has_value());
  }
  EXPECT_GT(*history.back().test_accuracy, 0.9F);
}

TEST(Trainer, PredictMatchesEvaluateAccuracy) {
  Rng rng(3);
  Tensor x;
  std::vector<int> y;
  MakeBlobs(rng, 100, x, y);
  nn::Sequential net;
  net.Add(std::make_unique<nn::Dense>(4, 2, rng));
  TrainConfig tc;
  tc.epochs = 10;
  Trainer trainer(net, tc);
  trainer.Fit(x, y);
  const auto pred = trainer.Predict(x);
  int correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) correct += pred[i] == y[i];
  const auto eval = trainer.Evaluate(x, y);
  EXPECT_FLOAT_EQ(eval.accuracy,
                  static_cast<float>(correct) / static_cast<float>(y.size()));
}

TEST(Trainer, DeterministicGivenSeed) {
  auto run = [] {
    Rng rng(4);
    Tensor x;
    std::vector<int> y;
    MakeBlobs(rng, 80, x, y);
    Rng net_rng(9);
    nn::Sequential net;
    net.Add(std::make_unique<nn::Dense>(4, 2, net_rng));
    TrainConfig tc;
    tc.epochs = 5;
    tc.seed = 77;
    Trainer trainer(net, tc);
    return trainer.Fit(x, y).back().train_loss;
  };
  EXPECT_EQ(run(), run());
}

TEST(NeuralClassifier, FitsAndPredictsThroughClassifierInterface) {
  Rng rng(5);
  Tensor x;
  std::vector<int> y;
  MakeBlobs(rng, 150, x, y);
  TrainConfig tc;
  tc.epochs = 10;
  NeuralClassifier clf(
      "mlp",
      [](std::int64_t f, std::int64_t k, Rng& r) {
        return models::BuildMlp(f, k, r, 16);
      },
      tc);
  clf.Fit(x, y);
  EXPECT_EQ(clf.Name(), "mlp");
  EXPECT_EQ(clf.History().size(), 10u);
  const auto pred = clf.PredictAll(x);
  int correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) correct += pred[i] == y[i];
  EXPECT_GT(correct, 140);
  // Single-row path agrees with the batched path.
  EXPECT_EQ(clf.Predict(x.Row(0)), pred[0]);
}

TEST(ModelIo, RoundTripRestoresExactWeights) {
  Rng rng(6);
  auto net = models::BuildResidual21(10, 3, rng, 8);
  const auto path = TempPath("pelican_io_test.bin");
  SaveWeights(*net, path);

  Rng rng2(999);  // different init
  auto net2 = models::BuildResidual21(10, 3, rng2, 8);
  LoadWeights(*net2, path);
  auto pa = net->Params();
  auto pb = net2->Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(*pa[i].value, *pb[i].value) << pa[i].name;
  }
  std::remove(path.c_str());
}

TEST(ModelIo, PersistsBatchNormRunningStats) {
  // Regression: v1 of the format dropped BN running statistics, so a
  // reloaded model normalized with mean 0 / var 1 and inference was
  // garbage despite identical trainable weights.
  Rng rng(7);
  nn::Sequential net;
  net.Add(std::make_unique<nn::BatchNorm>(4));
  net.Add(std::make_unique<nn::Dense>(4, 2, rng));
  // Push running stats away from their init.
  for (int i = 0; i < 20; ++i) {
    net.Forward(Tensor::RandomNormal({32, 4}, rng, 5.0F, 3.0F), true);
  }
  auto x = Tensor::RandomNormal({8, 4}, rng, 5.0F, 3.0F);
  auto expected = net.Forward(x, /*training=*/false);

  const auto path = TempPath("pelican_bn_io_test.bin");
  SaveWeights(net, path);
  Rng rng2(8);
  nn::Sequential net2;
  net2.Add(std::make_unique<nn::BatchNorm>(4));
  net2.Add(std::make_unique<nn::Dense>(4, 2, rng2));
  LoadWeights(net2, path);
  auto actual = net2.Forward(x, /*training=*/false);
  EXPECT_LT(MaxAbsDiff(expected, actual), 1e-6F);
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsArchitectureMismatch) {
  Rng rng(9);
  auto small = models::BuildMlp(6, 2, rng, 8);
  const auto path = TempPath("pelican_mismatch_test.bin");
  SaveWeights(*small, path);
  auto big = models::BuildMlp(6, 2, rng, 16);
  EXPECT_THROW(LoadWeights(*big, path), CheckError);
  std::remove(path.c_str());
}

TEST(ModelIo, RejectsGarbageFile) {
  const auto path = TempPath("pelican_garbage_test.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a weight file at all";
  }
  Rng rng(10);
  auto net = models::BuildMlp(4, 2, rng, 8);
  EXPECT_THROW(LoadWeights(*net, path), CheckError);
  std::remove(path.c_str());
  EXPECT_THROW(LoadWeights(*net, "/nonexistent/nope.bin"), CheckError);
}

TEST(ExperimentConfig, PaperValuesMatchTable1) {
  const auto unsw = PaperUnswNb15();
  EXPECT_EQ(unsw.filter_size, 196);
  EXPECT_EQ(unsw.recurrent_units, 196);
  EXPECT_EQ(unsw.kernel_size, 10);
  EXPECT_FLOAT_EQ(unsw.dropout_rate, 0.6F);
  EXPECT_EQ(unsw.epochs, 100);
  EXPECT_FLOAT_EQ(unsw.learning_rate, 0.01F);
  EXPECT_EQ(unsw.batch_size, 4000u);
  const auto nsl = PaperNslKdd();
  EXPECT_EQ(nsl.filter_size, 121);
  EXPECT_EQ(nsl.epochs, 50);
  EXPECT_EQ(nsl.records, 148516u);
}

TEST(ExperimentConfig, RenderContainsBothColumns) {
  const auto table = RenderParameterTable(PaperNslKdd(), ScaledNslKdd());
  EXPECT_NE(table.find("121"), std::string::npos);
  EXPECT_NE(table.find("24"), std::string::npos);
  EXPECT_NE(table.find("Learning rate"), std::string::npos);
}

TEST(CrossValidation, AggregatesAcrossFolds) {
  Rng rng(11);
  auto ds = data::GenerateNslKdd(600, rng);
  TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 64;
  CrossValidationConfig cv;
  cv.k = 3;
  cv.seed = 5;
  const auto result = CrossValidate(
      ds,
      [tc] {
        return std::make_unique<NeuralClassifier>(
            "mlp",
            [](std::int64_t f, std::int64_t k, Rng& r) {
              return models::BuildMlp(f, k, r, 32);
            },
            tc);
      },
      cv);
  EXPECT_EQ(result.folds.size(), 3u);
  // Every record appears exactly once across test folds.
  EXPECT_EQ(result.total_confusion.Total(),
            static_cast<std::int64_t>(ds.Size()));
  EXPECT_GT(result.accuracy, 0.7);
  const auto summary = result.Summary(ds.schema().Labels());
  EXPECT_NE(summary.find("ACC"), std::string::npos);
  EXPECT_NE(summary.find("Normal"), std::string::npos);
}

TEST(CrossValidation, MaxFoldsCapsWork) {
  Rng rng(12);
  auto ds = data::GenerateNslKdd(400, rng);
  TrainConfig tc;
  tc.epochs = 2;
  CrossValidationConfig cv;
  cv.k = 10;
  cv.max_folds = 2;
  const auto result = CrossValidate(
      ds,
      [tc] {
        return std::make_unique<NeuralClassifier>(
            "mlp",
            [](std::int64_t f, std::int64_t k, Rng& r) {
              return models::BuildMlp(f, k, r, 16);
            },
            tc);
      },
      cv);
  EXPECT_EQ(result.folds.size(), 2u);
}

TEST(PelicanIds, EndToEndTrainInspectSaveLoad) {
  Rng rng(13);
  auto train_set = data::GenerateNslKdd(500, rng);
  auto test_set = data::GenerateNslKdd(150, rng);

  IdsConfig config;
  config.n_blocks = 2;
  config.channels = 12;
  config.train.epochs = 6;
  config.train.batch_size = 32;
  PelicanIds ids(train_set.schema(), config);
  EXPECT_FALSE(ids.Trained());
  ids.Train(train_set);
  EXPECT_TRUE(ids.Trained());

  const auto eval = ids.Evaluate(test_set);
  EXPECT_GT(eval.accuracy, 0.8F);

  auto row = test_set.Row(0);
  const auto verdict =
      ids.Inspect(std::vector<double>(row.begin(), row.end()));
  EXPECT_EQ(verdict.is_attack, verdict.label != 0);
  EXPECT_EQ(verdict.class_name,
            test_set.schema().LabelName(
                static_cast<std::size_t>(verdict.label)));

  const auto path = TempPath("pelican_ids_test.bin");
  ids.Save(path);
  PelicanIds restored(train_set.schema(), config);
  restored.Load(path);
  const auto eval2 = restored.Evaluate(test_set);
  EXPECT_FLOAT_EQ(eval.accuracy, eval2.accuracy);
  // Batch classification agrees between original and restored models.
  EXPECT_EQ(ids.Classify(test_set), restored.Classify(test_set));
  std::remove(path.c_str());
  std::remove((path + ".pre").c_str());
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size_bytes()) == 0;
}

bool SameVerdict(const PelicanIds::Verdict& a, const PelicanIds::Verdict& b) {
  return a.label == b.label && a.class_name == b.class_name &&
         a.is_attack == b.is_attack &&
         std::memcmp(&a.confidence, &b.confidence, sizeof(float)) == 0;
}

// A loaded detector holds no training state: its network has no
// gradient, and no trainer or optimizer stands behind it. It still
// holds the saving detector's weights and buffers byte for byte,
// answers every query as that detector does, in fp32 and int8, and a
// Trainer on its network trains to the saving network's bytes.
TEST(PelicanIds, LoadedDetectorHoldsNoGradientsAndAnswersLikeTheSaver) {
  Rng rng(29);
  const auto train_set = data::GenerateNslKdd(300, rng);
  const auto test_set = data::GenerateNslKdd(100, rng);
  IdsConfig config;
  config.n_blocks = 2;
  config.channels = 8;
  config.train.epochs = 2;
  PelicanIds saver(train_set.schema(), config);
  saver.Train(train_set);
  const auto path = TempPath("pelican_ids_loaded_test.bin");
  saver.Save(path);
  PelicanIds loaded(train_set.schema(), config);
  loaded.Load(path);
  ASSERT_TRUE(loaded.Trained());

  auto saved_params = saver.network().Params();
  auto loaded_params = loaded.network().Params();
  ASSERT_EQ(saved_params.size(), loaded_params.size());
  for (std::size_t i = 0; i < loaded_params.size(); ++i) {
    const auto& p = loaded_params[i];
    EXPECT_TRUE(p.grad->empty()) << p.name;
    EXPECT_TRUE(SameBytes(*p.value, *saved_params[i].value)) << p.name;
  }
  auto saved_buffers = saver.network().Buffers();
  auto loaded_buffers = loaded.network().Buffers();
  ASSERT_EQ(saved_buffers.size(), loaded_buffers.size());
  for (std::size_t i = 0; i < loaded_buffers.size(); ++i) {
    EXPECT_TRUE(SameBytes(*loaded_buffers[i].value, *saved_buffers[i].value))
        << loaded_buffers[i].name;
  }

  for (const bool int8 : {false, true}) {
    SCOPED_TRACE(int8 ? "int8" : "fp32");
    saver.EnableQuantized(int8);
    loaded.EnableQuantized(int8);
    const auto want = saver.InspectAll(test_set);
    const auto got = loaded.InspectAll(test_set);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(SameVerdict(got[i], want[i])) << "InspectAll row " << i;
    }
    for (std::size_t i = 0; i < 5; ++i) {
      const auto row = test_set.Row(i);
      std::vector<float> want_features, got_features;
      EXPECT_TRUE(SameVerdict(loaded.Inspect(row, &got_features),
                              saver.Inspect(row, &want_features)))
          << "Inspect row " << i;
      EXPECT_EQ(got_features, want_features);
    }
    EXPECT_EQ(loaded.Classify(test_set), saver.Classify(test_set));
    const auto want_eval = saver.Evaluate(test_set);
    const auto got_eval = loaded.Evaluate(test_set);
    EXPECT_EQ(std::memcmp(&got_eval.loss, &want_eval.loss, sizeof(float)), 0);
    EXPECT_EQ(std::memcmp(&got_eval.accuracy, &want_eval.accuracy,
                          sizeof(float)),
              0);
  }
  saver.EnableQuantized(false);
  loaded.EnableQuantized(false);

  TrainConfig one_epoch = config.train;
  one_epoch.epochs = 1;
  const Tensor x = data::OneHotEncoder(train_set.schema()).Transform(test_set);
  Trainer(saver.network(), one_epoch).Fit(x, test_set.Labels());
  Trainer(loaded.network(), one_epoch).Fit(x, test_set.Labels());
  for (std::size_t i = 0; i < loaded_params.size(); ++i) {
    EXPECT_TRUE(SameBytes(*loaded_params[i].value, *saved_params[i].value))
        << "after one epoch: " << loaded_params[i].name;
  }
  for (const char* suffix : {"", ".pre", ".quant"}) {
    std::remove((path + suffix).c_str());
  }
}

TEST(PelicanIds, InspectBeforeTrainThrows) {
  IdsConfig config;
  PelicanIds ids(data::NslKddSchema(), config);
  const std::vector<double> row(41, 0.0);
  EXPECT_THROW(ids.Inspect(row), CheckError);
}

}  // namespace
}  // namespace pelican::core
