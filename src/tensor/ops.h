// Free-function linear algebra on Tensors.
//
// These are the primitives the nn layers are written against. All
// functions validate shapes with PELICAN_CHECK and write into
// caller-provided outputs where that avoids allocation in hot loops.
#pragma once

#include "tensor/tensor.h"

namespace pelican {

// C = A(M,K) · B(K,N). Returns (M,N).
Tensor MatMul(const Tensor& a, const Tensor& b);
// C += A(M,K) · B(K,N) accumulated into an existing (M,N) tensor.
void MatMulAccum(const Tensor& a, const Tensor& b, Tensor& c);
// C = A(M,K) · Bᵀ where B is (N,K). Returns (M,N).
Tensor MatMulTransB(const Tensor& a, const Tensor& b);
// C = Aᵀ · B where A is (K,M), B is (K,N). Returns (M,N).
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
// C += Aᵀ · B accumulated into an existing (M,N) tensor (A:(K,M), B:(K,N)).
void MatMulTransAAccum(const Tensor& a, const Tensor& b, Tensor& c);

// y = x(M,N)ᵀ → (N,M). Cache-blocked and row-parallel.
Tensor Transpose2D(const Tensor& x);

// Row-wise ops on (N,D):
// out[i][j] = x[i][j] + bias[j].
void AddRowBias(Tensor& x, const Tensor& bias);
// grad_bias[j] += Σ_i dy[i][j]. Accumulates per-shard partials combined
// in shard order, so the result is bit-identical for any thread count.
void SumRowsInto(const Tensor& dy, Tensor& grad_bias);
// Raw variants for callers that view higher-rank storage as (rows, d)
// — e.g. Conv1D treating (N, L, F) as (N·L, F).
void AddRowBias(float* x, std::int64_t rows, std::int64_t d,
                const float* bias);
void SumRowsInto(const float* dy, std::int64_t rows, std::int64_t d,
                 float* grad_bias);

// Elementwise binary with fresh result.
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

// Numerically-stable softmax over the last axis of a rank-2 tensor.
Tensor SoftmaxRows(const Tensor& logits);

// Frobenius / L2 norm.
float Norm(const Tensor& x);

// Max |a-b| over all elements (shape-checked).
float MaxAbsDiff(const Tensor& a, const Tensor& b);

}  // namespace pelican
