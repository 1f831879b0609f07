// Classical-ML baseline tests: CART splits, forest voting, SAMME
// boosting, SMO-trained RBF SVM — each on problems with a known answer
// (axis-aligned splits, XOR, concentric circles, weighted samples).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/ml.h"

namespace pelican::ml {
namespace {

// Labels: y = 1 iff x0 > 0 (axis-aligned, trivially splittable).
void MakeAxisProblem(Rng& rng, std::int64_t n, Tensor& x,
                     std::vector<int>& y) {
  x = Tensor::RandomNormal({n, 3}, rng, 0, 1);
  y.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    y[static_cast<std::size_t>(i)] = x.At(i, 0) > 0.0F ? 1 : 0;
  }
}

// XOR on the first two features — linearly inseparable.
void MakeXorProblem(Rng& rng, std::int64_t n, Tensor& x,
                    std::vector<int>& y) {
  x = Tensor::RandomUniform({n, 2}, rng, -1.0F, 1.0F);
  y.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    y[static_cast<std::size_t>(i)] =
        (x.At(i, 0) > 0.0F) != (x.At(i, 1) > 0.0F) ? 1 : 0;
  }
}

double AccuracyOf(const Classifier& clf, const Tensor& x,
                  const std::vector<int>& y) {
  const auto pred = clf.PredictAll(x);
  int correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) correct += pred[i] == y[i];
  return static_cast<double>(correct) / static_cast<double>(y.size());
}

TEST(DecisionTree, LearnsAxisAlignedSplit) {
  Rng rng(1);
  Tensor x;
  std::vector<int> y;
  MakeAxisProblem(rng, 200, x, y);
  DecisionTree tree;
  tree.Fit(x, y);
  EXPECT_GT(AccuracyOf(tree, x, y), 0.99);
  EXPECT_LE(tree.Depth(), 3);  // one split suffices
}

TEST(DecisionTree, LearnsXor) {
  Rng rng(2);
  Tensor x;
  std::vector<int> y;
  MakeXorProblem(rng, 400, x, y);
  DecisionTree tree;
  tree.Fit(x, y);
  EXPECT_GT(AccuracyOf(tree, x, y), 0.95);
}

TEST(DecisionTree, DepthLimitCapsTree) {
  Rng rng(3);
  Tensor x;
  std::vector<int> y;
  MakeXorProblem(rng, 400, x, y);
  TreeConfig config;
  config.max_depth = 1;
  DecisionTree stump(config);
  stump.Fit(x, y);
  EXPECT_LE(stump.Depth(), 2);  // root + one level of leaves
  // A stump cannot solve XOR.
  EXPECT_LT(AccuracyOf(stump, x, y), 0.7);
}

TEST(DecisionTree, WeightedFitFollowsHeavySamples) {
  // Two contradictory clusters at the same x; weights decide the label.
  Tensor x = Tensor::FromVector({4, 1}, {0.0F, 0.0F, 1.0F, 1.0F});
  const std::vector<int> y = {0, 1, 0, 1};
  DecisionTree tree;
  // Heavy weight on labels {1, 1}: the majority everywhere becomes 1.
  tree.FitWeighted(x, y, std::vector<double>{0.01, 10.0, 0.01, 10.0});
  const std::vector<float> probe = {0.5F};
  EXPECT_EQ(tree.Predict(probe), 1);
}

TEST(DecisionTree, PureNodeStopsSplitting) {
  Tensor x = Tensor::FromVector({3, 1}, {1, 2, 3});
  const std::vector<int> y = {1, 1, 1};
  DecisionTree tree;
  tree.Fit(x, y);
  EXPECT_EQ(tree.NodeCount(), 1u);
  const std::vector<float> probe = {99.0F};
  EXPECT_EQ(tree.Predict(probe), 1);
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTree tree;
  const std::vector<float> probe = {0.0F};
  EXPECT_THROW((void)tree.Predict(probe), CheckError);
}

TEST(DecisionTree, MulticlassSplits) {
  // Three bands on one feature.
  Rng rng(4);
  Tensor x = Tensor::RandomUniform({300, 1}, rng, 0.0F, 3.0F);
  std::vector<int> y(300);
  for (std::int64_t i = 0; i < 300; ++i) {
    y[static_cast<std::size_t>(i)] = static_cast<int>(x.At(i, 0));
  }
  DecisionTree tree;
  tree.Fit(x, y);
  EXPECT_GT(AccuracyOf(tree, x, y), 0.98);
  EXPECT_EQ(tree.ClassCount(), 3);
}

TEST(RandomForest, BeatsSingleShallowTreeOnXor) {
  Rng rng(5);
  Tensor x;
  std::vector<int> y;
  MakeXorProblem(rng, 600, x, y);
  // Hold out the tail for testing.
  Tensor x_train({400, 2}), x_test({200, 2});
  std::copy(x.data().begin(), x.data().begin() + 800,
            x_train.data().begin());
  std::copy(x.data().begin() + 800, x.data().end(), x_test.data().begin());
  std::vector<int> y_train(y.begin(), y.begin() + 400);
  std::vector<int> y_test(y.begin() + 400, y.end());

  ForestConfig config;
  config.n_trees = 30;
  config.max_depth = 6;
  RandomForest forest(config);
  forest.Fit(x_train, y_train);
  EXPECT_EQ(forest.TreeCount(), 30u);
  EXPECT_GT(AccuracyOf(forest, x_test, y_test), 0.9);
}

TEST(RandomForest, DeterministicForSeed) {
  Rng rng(6);
  Tensor x;
  std::vector<int> y;
  MakeAxisProblem(rng, 100, x, y);
  RandomForest a({.n_trees = 5}, 99);
  RandomForest b({.n_trees = 5}, 99);
  a.Fit(x, y);
  b.Fit(x, y);
  EXPECT_EQ(a.PredictAll(x), b.PredictAll(x));
}

TEST(AdaBoost, StumpsComposeToSolveXor) {
  Rng rng(7);
  Tensor x;
  std::vector<int> y;
  MakeXorProblem(rng, 500, x, y);
  AdaBoostConfig config;
  config.n_estimators = 60;
  config.weak_depth = 2;  // depth-2 trees can express one XOR quadrant
  AdaBoost boost(config);
  boost.Fit(x, y);
  EXPECT_GT(AccuracyOf(boost, x, y), 0.9);
}

TEST(AdaBoost, SingleStumpMatchesTreeOnEasyProblem) {
  Rng rng(8);
  Tensor x;
  std::vector<int> y;
  MakeAxisProblem(rng, 200, x, y);
  AdaBoostConfig config;
  config.n_estimators = 1;
  AdaBoost boost(config);
  boost.Fit(x, y);
  EXPECT_GT(AccuracyOf(boost, x, y), 0.99);
}

TEST(AdaBoost, HandlesMulticlassSamme) {
  Rng rng(9);
  Tensor x = Tensor::RandomUniform({400, 1}, rng, 0.0F, 3.0F);
  std::vector<int> y(400);
  for (std::int64_t i = 0; i < 400; ++i) {
    y[static_cast<std::size_t>(i)] = static_cast<int>(x.At(i, 0));
  }
  AdaBoostConfig config;
  config.n_estimators = 20;
  config.weak_depth = 1;
  AdaBoost boost(config);
  boost.Fit(x, y);
  EXPECT_GT(AccuracyOf(boost, x, y), 0.9);
}

TEST(SvmRbf, SeparatesConcentricCircles) {
  // Inner disk vs outer ring — the canonical RBF-needed problem.
  Rng rng(10);
  const std::int64_t n = 300;
  Tensor x({n, 2});
  std::vector<int> y(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const bool outer = i % 2 == 0;
    const double radius = outer ? 2.0 : 0.5;
    const double angle = rng.Uniform(0.0, 2.0 * 3.14159265);
    x.At(i, 0) = static_cast<float>(radius * std::cos(angle) +
                                    rng.Normal(0, 0.1));
    x.At(i, 1) = static_cast<float>(radius * std::sin(angle) +
                                    rng.Normal(0, 0.1));
    y[static_cast<std::size_t>(i)] = outer ? 1 : 0;
  }
  SvmConfig config;
  config.c = 5.0;
  SvmRbf svm(config);
  svm.Fit(x, y);
  EXPECT_GT(AccuracyOf(svm, x, y), 0.95);
  EXPECT_GT(svm.SupportVectorCount(), 0u);
}

TEST(SvmRbf, OneVsRestMulticlass) {
  // Three well-separated Gaussian blobs.
  Rng rng(11);
  const std::int64_t n = 240;
  Tensor x({n, 2});
  std::vector<int> y(static_cast<std::size_t>(n));
  const float centers[3][2] = {{0, 0}, {5, 5}, {-5, 5}};
  for (std::int64_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(i % 3);
    x.At(i, 0) = centers[cls][0] + static_cast<float>(rng.Normal(0, 0.5));
    x.At(i, 1) = centers[cls][1] + static_cast<float>(rng.Normal(0, 0.5));
    y[static_cast<std::size_t>(i)] = cls;
  }
  SvmRbf svm;
  svm.Fit(x, y);
  EXPECT_EQ(svm.ClassCount(), 3);
  EXPECT_GT(AccuracyOf(svm, x, y), 0.97);
}

TEST(SvmRbf, SubsamplesOversizedTrainingSets) {
  Rng rng(12);
  Tensor x;
  std::vector<int> y;
  MakeAxisProblem(rng, 500, x, y);
  SvmConfig config;
  config.max_train_samples = 100;
  SvmRbf svm(config);
  svm.Fit(x, y);  // must not blow up to a 500×500 kernel
  EXPECT_GT(AccuracyOf(svm, x, y), 0.9);
}

TEST(Knn, MemorizesTrainingSetAtKOne) {
  Rng rng(20);
  Tensor x;
  std::vector<int> y;
  MakeXorProblem(rng, 200, x, y);
  KnnConfig config;
  config.k = 1;
  KnnClassifier knn(config);
  knn.Fit(x, y);
  EXPECT_DOUBLE_EQ(AccuracyOf(knn, x, y), 1.0);
}

TEST(Knn, GeneralizesOnXorWithModerateK) {
  Rng rng(21);
  Tensor x, xt;
  std::vector<int> y, yt;
  MakeXorProblem(rng, 400, x, y);
  MakeXorProblem(rng, 200, xt, yt);
  KnnClassifier knn;
  knn.Fit(x, y);
  EXPECT_GT(AccuracyOf(knn, xt, yt), 0.9);
}

TEST(Knn, DistanceWeightingBreaksTies) {
  // Query closest to a single class-1 point but with two farther
  // class-0 points among the 3 neighbours: weighting should pick 1.
  Tensor x = Tensor::FromVector({3, 1}, {0.0F, 5.0F, 5.2F});
  const std::vector<int> y = {1, 0, 0};
  KnnConfig config;
  config.k = 3;
  config.distance_weighted = true;
  KnnClassifier knn(config);
  knn.Fit(x, y);
  const std::vector<float> probe = {0.5F};
  EXPECT_EQ(knn.Predict(probe), 1);
  KnnConfig majority = config;
  majority.distance_weighted = false;
  KnnClassifier knn2(majority);
  knn2.Fit(x, y);
  EXPECT_EQ(knn2.Predict(probe), 0);  // plain majority flips it
}

TEST(Knn, CapsTrainingSet) {
  Rng rng(22);
  Tensor x;
  std::vector<int> y;
  MakeAxisProblem(rng, 600, x, y);
  KnnConfig config;
  config.max_train_samples = 100;
  KnnClassifier knn(config);
  knn.Fit(x, y);
  EXPECT_LE(knn.StoredSamples(), 110u);  // stratified rounding slack
  EXPECT_GT(AccuracyOf(knn, x, y), 0.9);
}

TEST(GaussianNb, SeparatesGaussianBlobs) {
  Rng rng(23);
  const std::int64_t n = 300;
  Tensor x({n, 2});
  std::vector<int> y(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(i % 2);
    x.At(i, 0) = (cls == 0 ? -2.0F : 2.0F) +
                 static_cast<float>(rng.Normal(0, 1.0));
    x.At(i, 1) = static_cast<float>(rng.Normal(0, 1.0));
    y[static_cast<std::size_t>(i)] = cls;
  }
  GaussianNaiveBayes nb;
  nb.Fit(x, y);
  EXPECT_GT(AccuracyOf(nb, x, y), 0.95);
}

TEST(GaussianNb, UsesPerClassVariance) {
  // Same means, different variances: a point far from zero belongs to
  // the wide class even though both means coincide.
  Rng rng(24);
  const std::int64_t n = 400;
  Tensor x({n, 1});
  std::vector<int> y(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(i % 2);
    x.At(i, 0) =
        static_cast<float>(rng.Normal(0, cls == 0 ? 0.3 : 3.0));
    y[static_cast<std::size_t>(i)] = cls;
  }
  GaussianNaiveBayes nb;
  nb.Fit(x, y);
  const std::vector<float> far_point = {6.0F};
  EXPECT_EQ(nb.Predict(far_point), 1);
  const std::vector<float> near_point = {0.05F};
  EXPECT_EQ(nb.Predict(near_point), 0);
}

TEST(GaussianNb, PriorsMatterForAmbiguousPoints) {
  // Identical likelihoods: prediction must follow the class prior.
  Rng rng(25);
  const std::int64_t n = 300;
  Tensor x({n, 1});
  std::vector<int> y(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    x.At(i, 0) = static_cast<float>(rng.Normal(0, 1.0));
    y[static_cast<std::size_t>(i)] = i % 10 == 0 ? 1 : 0;  // 90/10 prior
  }
  GaussianNaiveBayes nb;
  nb.Fit(x, y);
  const std::vector<float> probe = {0.0F};
  EXPECT_EQ(nb.Predict(probe), 0);
  EXPECT_GT(nb.LogPosterior(probe, 0), nb.LogPosterior(probe, 1));
}

TEST(GaussianNb, HandlesConstantFeature) {
  Tensor x = Tensor::FromVector({4, 2}, {1, 7, 2, 7, -1, 7, -2, 7});
  const std::vector<int> y = {1, 1, 0, 0};
  GaussianNaiveBayes nb;
  EXPECT_NO_THROW(nb.Fit(x, y));
  const std::vector<float> probe = {1.5F, 7.0F};
  EXPECT_EQ(nb.Predict(probe), 1);
}

TEST(Classifier, PredictAllMatchesRowPredict) {
  Rng rng(13);
  Tensor x;
  std::vector<int> y;
  MakeAxisProblem(rng, 50, x, y);
  DecisionTree tree;
  tree.Fit(x, y);
  const auto all = tree.PredictAll(x);
  for (std::int64_t i = 0; i < x.dim(0); ++i) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)], tree.Predict(x.Row(i)));
  }
}

}  // namespace
}  // namespace pelican::ml
