// Unit tests for the tensor substrate: shapes, element access,
// mutation, reductions, and the linear-algebra free functions.
#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace pelican {
namespace {

TEST(Tensor, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  EXPECT_EQ(t.rank(), 2);
  for (std::int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0F);
}

TEST(Tensor, FromVectorChecksLength) {
  EXPECT_NO_THROW(Tensor::FromVector({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor::FromVector({2, 2}, {1, 2, 3}), CheckError);
}

TEST(Tensor, RowMajorIndexing) {
  auto t = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.At(0, 0), 1.0F);
  EXPECT_EQ(t.At(0, 2), 3.0F);
  EXPECT_EQ(t.At(1, 0), 4.0F);
  EXPECT_EQ(t.At(1, 2), 6.0F);
}

TEST(Tensor, Rank3Indexing) {
  Tensor t({2, 3, 4});
  t.At(1, 2, 3) = 42.0F;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 42.0F);
}

TEST(Tensor, RowView) {
  auto t = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  auto row = t.Row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], 4.0F);
  row[0] = 9.0F;
  EXPECT_EQ(t.At(1, 0), 9.0F);
}

TEST(Tensor, ReshapePreservesData) {
  auto t = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  auto r = t.Reshaped({3, 2});
  EXPECT_EQ(r.At(2, 1), 6.0F);
  EXPECT_THROW(t.Reshaped({4, 2}), CheckError);
}

TEST(Tensor, FillAndScale) {
  Tensor t({4});
  t.Fill(2.0F);
  t.Scale(3.0F);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 6.0F);
}

TEST(Tensor, AddAxpyMul) {
  auto a = Tensor::FromVector({3}, {1, 2, 3});
  auto b = Tensor::FromVector({3}, {10, 20, 30});
  a.Add(b);
  EXPECT_EQ(a.At(2), 33.0F);
  a.Axpy(-1.0F, b);
  EXPECT_EQ(a.At(1), 2.0F);
  a.Mul(b);
  EXPECT_EQ(a.At(0), 10.0F);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2, 2});
  Tensor b({4});
  EXPECT_THROW(a.Add(b), CheckError);
  EXPECT_THROW(a.Mul(b), CheckError);
}

TEST(Tensor, Reductions) {
  auto t = Tensor::FromVector({4}, {-1, 2, -3, 4});
  EXPECT_FLOAT_EQ(t.Sum(), 2.0F);
  EXPECT_FLOAT_EQ(t.Mean(), 0.5F);
  EXPECT_FLOAT_EQ(t.Min(), -3.0F);
  EXPECT_FLOAT_EQ(t.Max(), 4.0F);
  EXPECT_FLOAT_EQ(t.AbsMax(), 4.0F);
}

TEST(Tensor, ArgMaxRow) {
  auto t = Tensor::FromVector({2, 3}, {1, 5, 2, 9, 0, 3});
  EXPECT_EQ(t.ArgMaxRow(0), 1);
  EXPECT_EQ(t.ArgMaxRow(1), 0);
  auto v = Tensor::FromVector({3}, {0, 0, 7});
  EXPECT_EQ(v.ArgMaxRow(0), 2);
}

TEST(Tensor, RandomUniformBounds) {
  Rng rng(1);
  auto t = Tensor::RandomUniform({100}, rng, -0.5F, 0.5F);
  EXPECT_GE(t.Min(), -0.5F);
  EXPECT_LT(t.Max(), 0.5F);
}

TEST(Tensor, ShapeString) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.ShapeString(), "(2, 3, 4)");
}

TEST(Ops, MatMulSmall) {
  auto a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  auto b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  auto c = MatMul(a, b);
  // [ [58, 64], [139, 154] ]
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0F);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0F);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0F);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0F);
}

TEST(Ops, MatMulShapeChecks) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_THROW(MatMul(a, b), CheckError);
}

TEST(Ops, MatMulTransBMatchesExplicitTranspose) {
  Rng rng(3);
  auto a = Tensor::RandomNormal({4, 5}, rng, 0, 1);
  auto b = Tensor::RandomNormal({6, 5}, rng, 0, 1);
  auto direct = MatMulTransB(a, b);
  auto via_transpose = MatMul(a, Transpose2D(b));
  EXPECT_LT(MaxAbsDiff(direct, via_transpose), 1e-4F);
}

TEST(Ops, MatMulTransAMatchesExplicitTranspose) {
  Rng rng(4);
  auto a = Tensor::RandomNormal({5, 4}, rng, 0, 1);
  auto b = Tensor::RandomNormal({5, 6}, rng, 0, 1);
  auto direct = MatMulTransA(a, b);
  auto via_transpose = MatMul(Transpose2D(a), b);
  EXPECT_LT(MaxAbsDiff(direct, via_transpose), 1e-4F);
}

TEST(Ops, AccumulateVariantsAddIntoOutput) {
  Rng rng(5);
  auto a = Tensor::RandomNormal({3, 4}, rng, 0, 1);
  auto b = Tensor::RandomNormal({4, 2}, rng, 0, 1);
  Tensor c = Tensor::Full({3, 2}, 1.0F);
  MatMulAccum(a, b, c);
  auto expected = MatMul(a, b);
  for (std::int64_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], expected[i] + 1.0F, 1e-5F);
  }
}

TEST(Ops, TransposeRoundTrip) {
  Rng rng(6);
  auto a = Tensor::RandomNormal({3, 7}, rng, 0, 1);
  auto back = Transpose2D(Transpose2D(a));
  EXPECT_EQ(back, a);
}

TEST(Ops, AddRowBiasAndSumRows) {
  auto x = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  auto bias = Tensor::FromVector({2}, {10, 20});
  AddRowBias(x, bias);
  EXPECT_FLOAT_EQ(x.At(0, 0), 11.0F);
  EXPECT_FLOAT_EQ(x.At(1, 1), 24.0F);

  Tensor grad({2});
  SumRowsInto(x, grad);
  EXPECT_FLOAT_EQ(grad.At(0), 11.0F + 13.0F);
  EXPECT_FLOAT_EQ(grad.At(1), 22.0F + 24.0F);
}

TEST(Ops, SoftmaxRowsSumToOneAndOrder) {
  auto logits = Tensor::FromVector({2, 3}, {1, 2, 3, 10, 0, -10});
  auto p = SoftmaxRows(logits);
  for (std::int64_t i = 0; i < 2; ++i) {
    float sum = 0.0F;
    for (std::int64_t j = 0; j < 3; ++j) sum += p.At(i, j);
    EXPECT_NEAR(sum, 1.0F, 1e-5F);
  }
  EXPECT_GT(p.At(0, 2), p.At(0, 1));
  EXPECT_GT(p.At(1, 0), 0.99F);
}

TEST(Ops, SoftmaxNumericallyStableForHugeLogits) {
  auto logits = Tensor::FromVector({1, 2}, {1000.0F, 999.0F});
  auto p = SoftmaxRows(logits);
  EXPECT_NEAR(p.At(0, 0) + p.At(0, 1), 1.0F, 1e-5F);
  EXPECT_GT(p.At(0, 0), p.At(0, 1));
}

TEST(Ops, NormAndMaxAbsDiff) {
  auto a = Tensor::FromVector({2}, {3, 4});
  EXPECT_FLOAT_EQ(Norm(a), 5.0F);
  auto b = Tensor::FromVector({2}, {3, 7});
  EXPECT_FLOAT_EQ(MaxAbsDiff(a, b), 3.0F);
}

}  // namespace
}  // namespace pelican
