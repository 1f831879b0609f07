#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/thread_pool.h"
#include "tensor/kernels.h"

namespace pelican {

namespace {
void CheckRank2(const Tensor& t, const char* what) {
  PELICAN_CHECK(t.rank() == 2, what);
}

// Work (elements) of one shard at the least; small matrices stay on the
// calling thread.
constexpr std::int64_t kMinShardWork = 1 << 15;
}  // namespace

// The MatMul* family are thin wrappers over the blocked SGEMM in
// pelican::kernels; only the shape checks and the trans/accumulate
// routing live here. The kernel has no zero-skip branches, so a NaN/Inf
// weight poisons the output even when the matching activation is zero —
// the divergence guard sees corruption instead of having it masked.

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CheckRank2(a, "MatMul: a must be rank-2");
  CheckRank2(b, "MatMul: b must be rank-2");
  PELICAN_CHECK(a.dim(1) == b.dim(0), "MatMul: inner dims differ");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  kernels::Gemm(false, false, m, n, k, a.data().data(), k, b.data().data(), n,
                c.data().data(), n, /*accumulate=*/false);
  return c;
}

void MatMulAccum(const Tensor& a, const Tensor& b, Tensor& c) {
  CheckRank2(a, "MatMulAccum: a must be rank-2");
  CheckRank2(b, "MatMulAccum: b must be rank-2");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  PELICAN_CHECK(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n,
                "MatMulAccum: shape mismatch");
  kernels::Gemm(false, false, m, n, k, a.data().data(), k, b.data().data(), n,
                c.data().data(), n, /*accumulate=*/true);
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  CheckRank2(a, "MatMulTransB: a must be rank-2");
  CheckRank2(b, "MatMulTransB: b must be rank-2");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  PELICAN_CHECK(b.dim(1) == k, "MatMulTransB: inner dims differ");
  Tensor c({m, n});
  kernels::Gemm(false, true, m, n, k, a.data().data(), k, b.data().data(), k,
                c.data().data(), n, /*accumulate=*/false);
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  MatMulTransAAccum(a, b, c);
  return c;
}

void MatMulTransAAccum(const Tensor& a, const Tensor& b, Tensor& c) {
  CheckRank2(a, "MatMulTransA: a must be rank-2");
  CheckRank2(b, "MatMulTransA: b must be rank-2");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  PELICAN_CHECK(b.dim(0) == k, "MatMulTransA: inner dims differ");
  PELICAN_CHECK(c.dim(0) == m && c.dim(1) == n, "MatMulTransA: bad out shape");
  kernels::Gemm(true, false, m, n, k, a.data().data(), m, b.data().data(), n,
                c.data().data(), n, /*accumulate=*/true);
}

Tensor Transpose2D(const Tensor& x) {
  CheckRank2(x, "Transpose2D: rank-2 required");
  const std::int64_t m = x.dim(0), n = x.dim(1);
  Tensor y({n, m});
  const float* xp = x.data().data();
  float* yp = y.data().data();
  // 32×32 tiles keep both the read rows and the write columns inside
  // cache lines that stay resident for the whole tile. Row-tiles of the
  // *output* shard across the pool (disjoint writes).
  constexpr std::int64_t kTile = 32;
  const std::int64_t out_tiles = (n + kTile - 1) / kTile;
  ParallelFor(
      0, static_cast<std::size_t>(out_tiles),
      [&](std::size_t ut) {
        const std::int64_t j0 = static_cast<std::int64_t>(ut) * kTile;
        const std::int64_t j1 = std::min(n, j0 + kTile);
        for (std::int64_t i0 = 0; i0 < m; i0 += kTile) {
          const std::int64_t i1 = std::min(m, i0 + kTile);
          for (std::int64_t j = j0; j < j1; ++j) {
            float* yrow = yp + j * m;
            for (std::int64_t i = i0; i < i1; ++i) yrow[i] = xp[i * n + j];
          }
        }
      },
      ShardGrain(kTile * m, kMinShardWork));
  return y;
}

void AddRowBias(float* x, std::int64_t rows, std::int64_t d,
                const float* bias) {
  ParallelFor(
      0, static_cast<std::size_t>(rows),
      [&](std::size_t ui) {
        float* row = x + static_cast<std::int64_t>(ui) * d;
        for (std::int64_t j = 0; j < d; ++j) row[j] += bias[j];
      },
      ShardGrain(d, kMinShardWork));
}

void AddRowBias(Tensor& x, const Tensor& bias) {
  CheckRank2(x, "AddRowBias: x must be rank-2");
  PELICAN_CHECK(bias.rank() == 1 && bias.dim(0) == x.dim(1),
                "AddRowBias: bias shape");
  AddRowBias(x.data().data(), x.dim(0), x.dim(1), bias.data().data());
}

void SumRowsInto(const float* dy, std::int64_t rows, std::int64_t d,
                 float* grad_bias) {
  // Rows reduce into one vector, so shards accumulate private partials
  // that combine in shard order; the shard layout is a pure function of
  // (rows, grain), keeping the sum bit-identical for any thread count.
  const std::size_t grain = ShardGrain(d, kMinShardWork);
  const std::size_t shards =
      ShardCount(static_cast<std::size_t>(rows), grain);
  if (shards <= 1) {
    for (std::int64_t i = 0; i < rows; ++i) {
      const float* row = dy + i * d;
      for (std::int64_t j = 0; j < d; ++j) grad_bias[j] += row[j];
    }
    return;
  }
  std::vector<std::vector<float>> partials(
      shards, std::vector<float>(static_cast<std::size_t>(d), 0.0F));
  ParallelForShards(
      0, static_cast<std::size_t>(rows), grain,
      [&](std::size_t shard, std::size_t lo, std::size_t hi) {
        float* part = partials[shard].data();
        for (std::size_t i = lo; i < hi; ++i) {
          const float* row = dy + static_cast<std::int64_t>(i) * d;
          for (std::int64_t j = 0; j < d; ++j) part[j] += row[j];
        }
      });
  for (std::size_t s = 0; s < shards; ++s) {
    const float* part = partials[s].data();
    for (std::int64_t j = 0; j < d; ++j) grad_bias[j] += part[j];
  }
}

void SumRowsInto(const Tensor& dy, Tensor& grad_bias) {
  CheckRank2(dy, "SumRowsInto: dy must be rank-2");
  PELICAN_CHECK(grad_bias.rank() == 1 && grad_bias.dim(0) == dy.dim(1),
                "SumRowsInto: bias shape");
  SumRowsInto(dy.data().data(), dy.dim(0), dy.dim(1),
              grad_bias.data().data());
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  c.Add(b);
  return c;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  c.Axpy(-1.0F, b);
  return c;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  Tensor c = a;
  c.Mul(b);
  return c;
}

Tensor SoftmaxRows(const Tensor& logits) {
  CheckRank2(logits, "SoftmaxRows: rank-2 required");
  const std::int64_t n = logits.dim(0), d = logits.dim(1);
  Tensor out({n, d});
  ParallelFor(
      0, static_cast<std::size_t>(n),
      [&](std::size_t ui) {
        const auto i = static_cast<std::int64_t>(ui);
        auto row = logits.Row(i);
        float mx = row[0];
        for (float v : row) mx = std::max(mx, v);
        double denom = 0.0;
        for (std::int64_t j = 0; j < d; ++j) {
          const float e = std::exp(row[static_cast<std::size_t>(j)] - mx);
          out.At(i, j) = e;
          denom += e;
        }
        const auto inv = static_cast<float>(1.0 / denom);
        for (std::int64_t j = 0; j < d; ++j) out.At(i, j) *= inv;
      },
      ShardGrain(4 * d, kMinShardWork));
  return out;
}

float Norm(const Tensor& x) {
  double acc = 0.0;
  for (float v : x.data()) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  PELICAN_CHECK(a.SameShape(b), "MaxAbsDiff: shape mismatch");
  float m = 0.0F;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

}  // namespace pelican
