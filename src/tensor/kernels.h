// pelican::kernels — the compute layer: every hot matmul, and the tanh
// that ends each GRU step, route through it.
//
// A register-blocked, cache-tiled GEMM in the BLIS/GotoBLAS style, fp32
// and int8 (int32 sums). The micro-kernel tier is picked once, at first
// use, from CPUID and the registers the OS saves (__builtin_cpu_supports):
//   fp32: SSE2 4×8 (portable loop), AVX-512F 8×32;
//   int8: SSE2 4×8 (pmaddwd), AVX-512BW+VNNI 8×32 (vpdpwssd).
// Hosts without AVX-512 (int8: without AVX-512BW+VNNI) run SSE2.
// Transposed operands are handled in the packing routines, so callers
// can express A·B, Aᵀ·B and A·Bᵀ — including strided sub-views via
// leading dimensions — against one entry point.
//
// Determinism contract: every tier writes the SSE2 tier's bytes, and
// nothing depends on the thread count, so results are bit-identical for
// any PELICAN_THREADS on any x86-64 host. Each output element is produced
// by exactly one ParallelFor shard; its fp32 sum runs k ascending from
// 0.0F inside each kKc panel, every product rounded before it is added
// (kernels.cpp is compiled with -ffp-contract=off, so no tier fuses a
// multiply-add), and panels combine in ascending order. Int8 sums are
// exact. Results may differ from a naive ascending-k loop in last-bit
// rounding (panel sums are formed in registers before being added to C),
// which the gradient tests tolerate.
//
// Tanh follows the same contract: its base tier is a port of fdlibm's
// tanhf, its AVX-512 tier runs the port's steps in 16 lanes, and both
// write the port's bytes on any host, whatever its libm.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pelican::kernels {

// Micro-kernel instruction-set tiers, narrowest first. kSse2 is the
// base tier every host runs; a build without SSE2 runs it as the
// portable fp32 loop and a scalar int8 loop, and names it so.
enum class Isa : std::uint8_t { kSse2, kAvx512 };

// A tier's register tile: mr rows × nr columns of C held in
// accumulators. fp32 and int8 share a tier's tile.
struct Tile {
  std::int64_t mr, nr;
};

inline constexpr Tile TileOf(Isa isa) {
  return isa == Isa::kAvx512 ? Tile{8, 32} : Tile{4, 8};
}

// Cache tiles: A panels are kMc×kKc, B panels kKc×kNc. kMc is a
// multiple of every tier's mr, so only the last row block can end in a
// partial tile. kKc is fixed for every tier: it sets where each C
// element's sum is split into panels, so it is part of the output bytes.
inline constexpr std::int64_t kMc = 32;
inline constexpr std::int64_t kKc = 256;
inline constexpr std::int64_t kNc = 512;
static_assert(kMc % TileOf(Isa::kSse2).mr == 0 &&
              kMc % TileOf(Isa::kAvx512).mr == 0);

// Calls with fewer rows than this (and, for fp32, B not transposed) take
// the small-m path on every tier.
inline constexpr std::int64_t kSmallM = 4;

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
// Calls with m < kSmallM and B not transposed (batch-1 inference) read
// B's rows in place instead of packing them, with the same per-element
// order, so which path ran never changes a bit of C.
void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float* c, std::int64_t ldc, bool accumulate);

// C(m,n) = A(m,k)·B(k,n) over int8 operands with int32 accumulation,
// added into C when `accumulate`, overwriting it otherwise. No
// transpose forms: the quantized inference path only ever multiplies
// row-major activations by pre-packed row-major weights, so the extra
// packing variants would be dead code.
//
// Packed slivers advance k in pairs, widened at pack time (B to int16
// lanes, A to broadcastable int32 pair-words), so every tier's steady
// state is loads, a pairwise 16-bit multiply-add and an int32 add. Sums
// are exact, so the result is the same for any thread count, blocking
// or tier; calls with m < kSmallM read B in place instead of packing it.
// Safe against int32 overflow for k ≤ ~1.3e5 (k · 127² < 2³¹).
void GemmInt8(std::int64_t m, std::int64_t n, std::int64_t k,
              const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
              std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
              bool accumulate);

// tanh(x) as fdlibm's tanhf computes it (over its 5-term expm1f, with
// no fused multiply-add), so the bytes depend on no libm; glibc 2.36's
// tanhf gives the same bytes for every float. NaN in gives NaN out.
float Tanh(float x);

// y[i] = Tanh(x[i]) for i in [0, n), on the fp32 tier (AVX-512F: 16
// lanes at a time; otherwise the scalar port). y may be x (in place);
// otherwise the two must not overlap.
void Tanh(const float* x, float* y, std::int64_t n);

// The largest |p[i]| over i in [0, n), as its bit pattern: below
// 0x7f800000 exactly when every value is finite, and then it reads back
// (bit_cast to float) as the largest magnitude. An integer max, so it
// has no NaN case and its result does not depend on the order of the
// scan: 16 independent lanes, reduced at the end, keep it off the
// latency chain of one running max. 0 for n = 0.
std::int32_t MaxAbsBits(const float* p, std::int64_t n);

// The tiers Gemm and GemmInt8 run on this host, e.g.
// "fp32 avx512 8x32, int8 avx512-vnni 8x32".
std::string IsaName();

// One tier's name and tile, e.g. "avx512 8x32"; the int8 AVX-512 tier
// is "avx512-vnni".
std::string TierName(Isa isa, bool int8);

// The name of Tanh's tier on `isa`: the base tier runs the scalar port
// ("scalar port"), the AVX-512 tier is "avx512".
std::string TanhTierName(Isa isa);

// Test and bench seam, not a user option. The tiers this host can run,
// narrowest first; the last one is what Gemm and Tanh (int8: GemmInt8)
// run.
std::vector<Isa> SupportedIsas(bool int8);

// Gemm / GemmInt8 on a given tier, which must be in SupportedIsas.
void GemmWith(Isa isa, bool trans_a, bool trans_b, std::int64_t m,
              std::int64_t n, std::int64_t k, const float* a,
              std::int64_t lda, const float* b, std::int64_t ldb, float* c,
              std::int64_t ldc, bool accumulate);
void GemmInt8With(Isa isa, std::int64_t m, std::int64_t n, std::int64_t k,
                  const std::int8_t* a, std::int64_t lda,
                  const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                  std::int64_t ldc, bool accumulate);

// Tanh on a given tier, which must be in SupportedIsas(false).
void TanhWith(Isa isa, const float* x, float* y, std::int64_t n);

}  // namespace pelican::kernels
