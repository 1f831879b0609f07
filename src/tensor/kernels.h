// pelican::kernels — the compute layer every hot matmul routes through.
//
// A register-blocked, cache-tiled SGEMM in the BLIS/GotoBLAS style,
// written as portable C++ so GCC/Clang auto-vectorize the micro-kernel
// (build with PELICAN_NATIVE=ON for -march=native codegen). Transposed
// operands are handled in the packing routines, so callers can express
// A·B, Aᵀ·B and A·Bᵀ — including strided sub-views via leading
// dimensions — against one entry point.
//
// Determinism contract (inherited from the PR-2 training guarantee):
// each output element is produced by exactly one ParallelFor shard, and
// its k-accumulation order is a pure function of the shapes and the
// compile-time block sizes — ascending within each kKc panel, panels
// combined in ascending order. Nothing depends on the thread count, so
// results are bit-identical for any PELICAN_THREADS. They may differ
// from a naive ascending-k loop in last-bit rounding (panel sums are
// formed in registers before being added to C), which the gradient
// tests tolerate.
#pragma once

#include <cstdint>

namespace pelican::kernels {

// Register tile: kMr rows × kNr columns of C held in accumulators. The
// tile must fit the target's vector register file or the accumulators
// spill to the stack every iteration: 4×16 needs 8 of AVX's 16 ymm,
// but would eat all 16 xmm on baseline SSE2 — so portable builds use
// 4×8 and PELICAN_NATIVE (or any -mavx toolchain) widens to 4×16.
inline constexpr std::int64_t kMr = 4;
#if defined(__AVX__)
inline constexpr std::int64_t kNr = 16;
#else
inline constexpr std::int64_t kNr = 8;
#endif
// Cache tiles: A panels are kMc×kKc (L1/L2-resident), B panels kKc×kNc.
inline constexpr std::int64_t kMc = 32;
inline constexpr std::int64_t kKc = 256;
inline constexpr std::int64_t kNc = 512;

// C(m,n) = op(A)(m,k) · op(B)(k,n), added into C when `accumulate`,
// overwriting it otherwise.
//
// Storage (row-major everywhere):
//   op(A) element (i,p) reads a[i*lda + p], or a[p*lda + i] if trans_a
//   op(B) element (p,j) reads b[p*ldb + j], or b[j*ldb + p] if trans_b
//   C element (i,j) is c[i*ldc + j]
// Leading dimensions let callers address sub-blocks of larger buffers
// (e.g. one gate's columns inside a fused GRU panel).
//
// Calls with m < kMr and B not transposed (batch-1 inference) read B's
// rows in place instead of packing them, with the same per-element
// order, so which path ran never changes a bit of C.
void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float* c, std::int64_t ldc, bool accumulate);

// Int8 register tile. k advances in PAIRS inside the packed slivers so
// the SSE2 path can feed pmaddwd (exact int32 dot of two k-steps per
// instruction). Operands are widened at pack time — B slivers hold
// int16 lanes, A slivers hold broadcastable int32 pair-words — so the
// micro-kernel's steady state is just loads, pmaddwd and paddd; 4×8
// int32 accumulators fit the xmm file with room for the two B vectors.
inline constexpr std::int64_t kMrI8 = 4;
inline constexpr std::int64_t kNrI8 = 8;

// C(m,n) = A(m,k)·B(k,n) over int8 operands with int32 accumulation,
// added into C when `accumulate`, overwriting it otherwise. No
// transpose forms: the quantized inference path only ever multiplies
// row-major activations by pre-packed row-major weights, so the extra
// packing variants would be dead code.
//
// Accumulation is exact integer arithmetic, so the result is
// bit-identical for any thread count and any blocking by construction
// (the fp32 determinism contract holds trivially); calls with
// m < kMrI8 read B in place instead of packing it. Safe against int32
// overflow for k ≤ ~1.3e5 (k · 127² < 2³¹).
void GemmInt8(std::int64_t m, std::int64_t n, std::int64_t k,
              const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
              std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
              bool accumulate);

}  // namespace pelican::kernels
