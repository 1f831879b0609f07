#include "tensor/kernels.h"

#include <algorithm>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#define PELICAN_WIDE_TIERS 1
#elif defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/workspace.h"
#include "obs/metrics.h"

namespace pelican::kernels {

namespace {

// Lazy so a metrics-disabled process registers no series.
struct GemmMetrics {
  obs::Counter calls;
  obs::Counter flops;
};
GemmMetrics& GemmCounters() {
  auto& reg = obs::Registry::Global();
  static GemmMetrics m{
      reg.GetCounter("pelican_gemm_calls_total", "SGEMM invocations"),
      reg.GetCounter("pelican_gemm_flops_total",
                     "Floating-point operations issued to SGEMM (2mnk)")};
  return m;
}

// ---- tier selection ---------------------------------------------------
//
// CPUID alone, with no timing probe: __builtin_cpu_supports reports a
// feature only when the OS also saves its registers (XCR0 ZMM state),
// and every tier writes the same bytes, so the choice cannot change a
// result (DESIGN.md §8 on what it may cost in speed).

bool HostRuns(Isa isa, bool int8) {
#if defined(PELICAN_WIDE_TIERS)
  __builtin_cpu_init();
  switch (isa) {
    case Isa::kSse2:
      return true;
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             (!int8 || (__builtin_cpu_supports("avx512bw") != 0 &&
                        __builtin_cpu_supports("avx512vnni") != 0));
  }
  return false;
#else
  (void)int8;
  return isa == Isa::kSse2;
#endif
}

// The widest tier the host runs, for fp32 and for int8.
struct HostTiers {
  Isa fp32;
  Isa int8;
};
const HostTiers& Selected() {
  static const HostTiers tiers{SupportedIsas(false).back(),
                               SupportedIsas(true).back()};
  return tiers;
}

// ---- packing and write-back shared by the fp32 tiers --------------------

// Packs the kc×nc block of op(B) at (p0, j0) into sliver-major panels:
// Nr consecutive columns per sliver, k ascending inside a sliver,
// zero-padded to a full sliver at the right edge. Zero padding (rather
// than tail branches in the micro-kernel) keeps the inner loop
// branch-free; the pad lanes compute garbage that is never written back.
template <std::int64_t Nr>
void PackB(bool trans, const float* b, std::int64_t ldb, std::int64_t p0,
           std::int64_t j0, std::int64_t kc, std::int64_t nc, float* dst) {
  for (std::int64_t js = 0; js < nc; js += Nr) {
    const std::int64_t w = std::min(Nr, nc - js);
    for (std::int64_t p = 0; p < kc; ++p) {
      std::int64_t j = 0;
      if (!trans) {
        const float* src = b + (p0 + p) * ldb + j0 + js;
        for (; j < w; ++j) dst[j] = src[j];
      } else {
        const float* src = b + (j0 + js) * ldb + p0 + p;
        for (; j < w; ++j) dst[j] = src[j * ldb];
      }
      for (; j < Nr; ++j) dst[j] = 0.0F;
      dst += Nr;
    }
  }
}

// Same for the mc×kc block of op(A) at (i0, p0): Mr consecutive rows
// per sliver, k ascending, zero-padded at the bottom edge.
template <std::int64_t Mr>
void PackA(bool trans, const float* a, std::int64_t lda, std::int64_t i0,
           std::int64_t p0, std::int64_t mc, std::int64_t kc, float* dst) {
  for (std::int64_t is = 0; is < mc; is += Mr) {
    const std::int64_t h = std::min(Mr, mc - is);
    for (std::int64_t p = 0; p < kc; ++p) {
      std::int64_t r = 0;
      if (!trans) {
        const float* src = a + (i0 + is) * lda + p0 + p;
        for (; r < h; ++r) dst[r] = src[r * lda];
      } else {
        const float* src = a + (p0 + p) * lda + i0 + is;
        for (; r < h; ++r) dst[r] = src[r];
      }
      for (; r < Mr; ++r) dst[r] = 0.0F;
      dst += Mr;
    }
  }
}

// Stores (first panel of a non-accumulating call) or adds the h×w live
// corner of a register tile into C.
template <typename T>
void WriteTile(const T* acc, std::int64_t nr, std::int64_t h, std::int64_t w,
               T* c, std::int64_t ldc, bool overwrite) {
  for (std::int64_t r = 0; r < h; ++r) {
    const T* src = acc + r * nr;
    T* dst = c + r * ldc;
    if (overwrite) {
      for (std::int64_t j = 0; j < w; ++j) dst[j] = src[j];
    } else {
      for (std::int64_t j = 0; j < w; ++j) dst[j] += src[j];
    }
  }
}

// ---- fp32 micro-kernels -------------------------------------------------
//
// Each computes one mr×nr tile, acc = Apanel-sliver · Bpanel-sliver over
// kc, and writes it to acc (row stride nr). Every lane runs the same
// arithmetic: starting from 0.0F, for p ascending, acc += round(a·b) —
// a multiply, then an add, never a fused multiply-add.

// Portable: the loop bounds are compile-time constants and the pointers
// don't alias, so the j-loop vectorizes and `acc` stays in registers.
void MicroKernelSse2(std::int64_t kc, const float* __restrict__ ap,
                     const float* __restrict__ bp, float* __restrict__ acc) {
  constexpr Tile t = TileOf(Isa::kSse2);
  std::fill(acc, acc + t.mr * t.nr, 0.0F);
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* av = ap + p * t.mr;
    const float* bv = bp + p * t.nr;
    for (std::int64_t r = 0; r < t.mr; ++r) {
      const float ar = av[r];
      float* accrow = acc + r * t.nr;
      for (std::int64_t j = 0; j < t.nr; ++j) accrow[j] += ar * bv[j];
    }
  }
}

#if defined(PELICAN_WIDE_TIERS)
// 8×32: 16 zmm accumulators of the 32.
[[gnu::target("avx512f")]] void MicroKernelAvx512(
    std::int64_t kc, const float* __restrict__ ap,
    const float* __restrict__ bp, float* __restrict__ acc) {
  constexpr Tile t = TileOf(Isa::kAvx512);
  __m512 lo[t.mr];
  __m512 hi[t.mr];
#pragma GCC unroll 8
  for (std::int64_t r = 0; r < t.mr; ++r) {
    lo[r] = _mm512_setzero_ps();
    hi[r] = _mm512_setzero_ps();
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    const __m512 b0 = _mm512_loadu_ps(bp + p * t.nr);
    const __m512 b1 = _mm512_loadu_ps(bp + p * t.nr + 16);
#pragma GCC unroll 8
    for (std::int64_t r = 0; r < t.mr; ++r) {
      const __m512 ar = _mm512_set1_ps(ap[p * t.mr + r]);
      lo[r] = _mm512_add_ps(lo[r], _mm512_mul_ps(ar, b0));
      hi[r] = _mm512_add_ps(hi[r], _mm512_mul_ps(ar, b1));
    }
  }
#pragma GCC unroll 8
  for (std::int64_t r = 0; r < t.mr; ++r) {
    _mm512_storeu_ps(acc + r * t.nr, lo[r]);
    _mm512_storeu_ps(acc + r * t.nr + 16, hi[r]);
  }
}
#endif

// op(A) with fewer rows than kSmallM, B not transposed. The packed path
// would copy every element of B to use it at most m times and run zero
// rows through the tile, so B's rows are read in place instead. Each C
// element keeps the packed path's arithmetic: k ascending from 0.0F
// inside each kKc panel, the first panel of a non-accumulating call
// stored into C and every later panel added, so both paths produce the
// same bits. m < kSmallM ≤ kMc means a single row block, which the packed
// path would run serially too. Kept out of line so its accumulator row
// does not grow the packed path's stack frame.
[[gnu::noinline]] void GemmSmallM(bool trans_a, std::int64_t m,
                                  std::int64_t n, std::int64_t k,
                                  const float* a, std::int64_t lda,
                                  const float* b, std::int64_t ldb, float* c,
                                  std::int64_t ldc, bool accumulate) {
  const std::int64_t a_step = trans_a ? lda : 1;  // along k within a row
  alignas(64) float acc[kNc];
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = trans_a ? a + i : a + i * lda;
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
      const std::int64_t nc = std::min(kNc, n - jc);
      float* crow = c + i * ldc + jc;
      for (std::int64_t pc = 0; pc < k; pc += kKc) {
        const std::int64_t kc = std::min(kKc, k - pc);
        std::fill(acc, acc + nc, 0.0F);
        for (std::int64_t p = pc; p < pc + kc; ++p) {
          const float ap = arow[p * a_step];
          const float* brow = b + p * ldb + jc;
          for (std::int64_t j = 0; j < nc; ++j) acc[j] += ap * brow[j];
        }
        if (pc == 0 && !accumulate) {
          std::copy_n(acc, nc, crow);
        } else {
          for (std::int64_t j = 0; j < nc; ++j) crow[j] += acc[j];
        }
      }
    }
  }
}

using MicroKernelFn = void (*)(std::int64_t, const float*, const float*,
                               float*);

// The blocked path on one tier: jc (kNc columns) → pc (kKc of k) → ic
// (kMc rows, sharded) → mr×nr register tiles.
template <Isa kIsa, MicroKernelFn kKernel>
void GemmPacked(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                std::int64_t k, const float* a, std::int64_t lda,
                const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
                bool accumulate) {
  constexpr Tile t = TileOf(kIsa);
  Workspace& caller_ws = Workspace::Tls();
  for (std::int64_t jc = 0; jc < n; jc += kNc) {
    const std::int64_t nc = std::min(kNc, n - jc);
    const std::int64_t n_slivers = (nc + t.nr - 1) / t.nr;
    for (std::int64_t pc = 0; pc < k; pc += kKc) {
      const std::int64_t kc = std::min(kKc, k - pc);
      // First k-panel of a non-accumulating call overwrites C; every
      // later panel adds. Per element the accumulation order is k
      // ascending grouped by panel — a function of shapes and kKc only,
      // so neither thread count nor tier can change the result.
      const bool overwrite = (pc == 0) && !accumulate;
      Workspace::Scope panel_scope;
      float* bpanel = caller_ws.Alloc(
          static_cast<std::size_t>(n_slivers * t.nr * kc));
      PackB<t.nr>(trans_b, b, ldb, pc, jc, kc, nc, bpanel);

      // Row blocks of C are disjoint, so they shard freely; each block
      // packs its A panel into its own thread-local workspace.
      const auto row_blocks = static_cast<std::size_t>((m + kMc - 1) / kMc);
      const std::int64_t per_block_work = kMc * kc * nc;
      const auto grain = static_cast<std::size_t>(std::max<std::int64_t>(
          1, (1 << 15) / std::max<std::int64_t>(1, per_block_work)));
      ParallelFor(
          0, row_blocks,
          [&](std::size_t blk) {
            const std::int64_t ic = static_cast<std::int64_t>(blk) * kMc;
            const std::int64_t mc = std::min(kMc, m - ic);
            const std::int64_t m_slivers = (mc + t.mr - 1) / t.mr;
            Workspace::Scope block_scope;
            float* apanel = Workspace::Tls().Alloc(
                static_cast<std::size_t>(m_slivers * t.mr * kc));
            PackA<t.mr>(trans_a, a, lda, ic, pc, mc, kc, apanel);
            alignas(64) float acc[t.mr * t.nr];
            for (std::int64_t js = 0; js < nc; js += t.nr) {
              const float* bs = bpanel + (js / t.nr) * t.nr * kc;
              const std::int64_t w = std::min(t.nr, nc - js);
              for (std::int64_t is = 0; is < mc; is += t.mr) {
                kKernel(kc, apanel + (is / t.mr) * t.mr * kc, bs, acc);
                WriteTile(acc, t.nr, std::min(t.mr, mc - is), w,
                          c + (ic + is) * ldc + jc + js, ldc, overwrite);
              }
            }
          },
          grain);
    }
  }
}

using PackedGemmFn = void (*)(bool, bool, std::int64_t, std::int64_t,
                              std::int64_t, const float*, std::int64_t,
                              const float*, std::int64_t, float*,
                              std::int64_t, bool);

PackedGemmFn PackedGemmFor(Isa isa) {
  switch (isa) {
#if defined(PELICAN_WIDE_TIERS)
    case Isa::kAvx512:
      return GemmPacked<Isa::kAvx512, MicroKernelAvx512>;
#endif
    default:
      return GemmPacked<Isa::kSse2, MicroKernelSse2>;
  }
}

void GemmOn(Isa isa, bool trans_a, bool trans_b, std::int64_t m,
            std::int64_t n, std::int64_t k, const float* a, std::int64_t lda,
            const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
            bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (obs::MetricsEnabled()) {
    auto& counters = GemmCounters();
    counters.calls.Inc();
    counters.flops.Inc(static_cast<std::uint64_t>(2) *
                       static_cast<std::uint64_t>(m) *
                       static_cast<std::uint64_t>(n) *
                       static_cast<std::uint64_t>(std::max<std::int64_t>(0, k)));
  }
  if (k <= 0) {
    if (!accumulate) {
      for (std::int64_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0.0F);
      }
    }
    return;
  }
  if (m < kSmallM && !trans_b) {
    GemmSmallM(trans_a, m, n, k, a, lda, b, ldb, c, ldc, accumulate);
    return;
  }
  PackedGemmFor(isa)(trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc,
                     accumulate);
}

// ---- int8 path -------------------------------------------------------
//
// Same BLIS blocking as the fp32 kernel (kMc×kKc A panels, kKc×kNc B
// panels), but the packed slivers advance k in pairs and are widened at
// PACK time: B slivers hold int16 lanes ready for a pairwise multiply-
// add, A slivers hold one broadcastable int32 pair-word per row. All
// sign-extension and word assembly is paid once per panel (amortized
// over kMc rows / kNc columns), so the micro-kernel's steady state is
// loads, pmaddwd and paddd, or vpdpwssd, only. Odd k tails and
// edge slivers are zero-padded, which contributes exactly 0 to the
// integer accumulators.

// B sliver layout per pair p: 2·Nr int16 lanes [j0·k₂ₚ, j0·k₂ₚ₊₁, j1·k₂ₚ,
// …] — two vector loads per pair cover all Nr columns, pre-widened so
// the kernel skips the unpack/shift dance.
template <std::int64_t Nr>
void PackBI8(const std::int8_t* b, std::int64_t ldb, std::int64_t p0,
             std::int64_t j0, std::int64_t kc, std::int64_t nc,
             std::int16_t* dst) {
  const std::int64_t kc2 = (kc + 1) / 2;
  for (std::int64_t js = 0; js < nc; js += Nr) {
    const std::int64_t w = std::min(Nr, nc - js);
    for (std::int64_t p = 0; p < kc2; ++p) {
      const std::int64_t k0 = 2 * p;
      const bool has_k1 = k0 + 1 < kc;
      const std::int8_t* row0 = b + (p0 + k0) * ldb + j0 + js;
      const std::int8_t* row1 = has_k1 ? row0 + ldb : nullptr;
      for (std::int64_t j = 0; j < Nr; ++j) {
        dst[2 * j] = j < w ? row0[j] : std::int16_t{0};
        dst[2 * j + 1] =
            (j < w && has_k1) ? row1[j] : std::int16_t{0};
      }
      dst += 2 * Nr;
    }
  }
}

// Two consecutive-k values of one A row, widened to int16 and packed
// into the int32 word pmaddwd expects ([k₂ₚ | k₂ₚ₊₁ << 16]).
inline std::int32_t PairWord(std::int8_t x0, std::int8_t x1) {
  const auto w0 = static_cast<std::uint16_t>(static_cast<std::int16_t>(x0));
  const auto w1 = static_cast<std::uint16_t>(static_cast<std::int16_t>(x1));
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(w0) |
                                   (static_cast<std::uint32_t>(w1) << 16));
}

// A sliver layout per pair p: Mr int32 pair-words, one per row — the
// kernel broadcasts each.
template <std::int64_t Mr>
void PackAI8(const std::int8_t* a, std::int64_t lda, std::int64_t i0,
             std::int64_t p0, std::int64_t mc, std::int64_t kc,
             std::int32_t* dst) {
  const std::int64_t kc2 = (kc + 1) / 2;
  for (std::int64_t is = 0; is < mc; is += Mr) {
    const std::int64_t h = std::min(Mr, mc - is);
    for (std::int64_t p = 0; p < kc2; ++p) {
      const std::int64_t k0 = 2 * p;
      const bool has_k1 = k0 + 1 < kc;
      for (std::int64_t r = 0; r < Mr; ++r) {
        if (r < h) {
          const std::int8_t* src = a + (i0 + is + r) * lda + p0 + k0;
          dst[r] = PairWord(src[0], has_k1 ? src[1] : std::int8_t{0});
        } else {
          dst[r] = 0;
        }
      }
      dst += Mr;
    }
  }
}

// One mr×nr tile over kc2 packed k-pairs: acc = Σ Aᵣ·Bⱼ. Integer
// arithmetic is exact, so every tier (and the scalar fallback) writes
// identical bytes.
void MicroKernelI8Sse2(std::int64_t kc2, const std::int32_t* __restrict__ ap,
                       const std::int16_t* __restrict__ bp,
                       std::int32_t* __restrict__ acc) {
  constexpr Tile t = TileOf(Isa::kSse2);
#if defined(__SSE2__)
  const __m128i zero = _mm_setzero_si128();
  __m128i a0l = zero, a0h = zero, a1l = zero, a1h = zero;
  __m128i a2l = zero, a2h = zero, a3l = zero, a3h = zero;
  for (std::int64_t p = 0; p < kc2; ++p) {
    // Panels start 64-byte aligned and slivers advance in multiples of
    // 16 bytes, so aligned loads are safe.
    const __m128i blo = _mm_load_si128(
        reinterpret_cast<const __m128i*>(bp + p * 2 * t.nr));
    const __m128i bhi = _mm_load_si128(
        reinterpret_cast<const __m128i*>(bp + p * 2 * t.nr + t.nr));
    const std::int32_t* av = ap + p * t.mr;
    const __m128i ar0 = _mm_set1_epi32(av[0]);
    const __m128i ar1 = _mm_set1_epi32(av[1]);
    const __m128i ar2 = _mm_set1_epi32(av[2]);
    const __m128i ar3 = _mm_set1_epi32(av[3]);
    a0l = _mm_add_epi32(a0l, _mm_madd_epi16(blo, ar0));
    a0h = _mm_add_epi32(a0h, _mm_madd_epi16(bhi, ar0));
    a1l = _mm_add_epi32(a1l, _mm_madd_epi16(blo, ar1));
    a1h = _mm_add_epi32(a1h, _mm_madd_epi16(bhi, ar1));
    a2l = _mm_add_epi32(a2l, _mm_madd_epi16(blo, ar2));
    a2h = _mm_add_epi32(a2h, _mm_madd_epi16(bhi, ar2));
    a3l = _mm_add_epi32(a3l, _mm_madd_epi16(blo, ar3));
    a3h = _mm_add_epi32(a3h, _mm_madd_epi16(bhi, ar3));
  }
  auto* out = reinterpret_cast<__m128i*>(acc);
  _mm_storeu_si128(out + 0, a0l);
  _mm_storeu_si128(out + 1, a0h);
  _mm_storeu_si128(out + 2, a1l);
  _mm_storeu_si128(out + 3, a1h);
  _mm_storeu_si128(out + 4, a2l);
  _mm_storeu_si128(out + 5, a2h);
  _mm_storeu_si128(out + 6, a3l);
  _mm_storeu_si128(out + 7, a3h);
#else
  std::fill(acc, acc + t.mr * t.nr, 0);
  for (std::int64_t p = 0; p < kc2; ++p) {
    const std::int32_t* av = ap + p * t.mr;
    const std::int16_t* bv = bp + p * 2 * t.nr;
    for (std::int64_t r = 0; r < t.mr; ++r) {
      // Decompose the pair-word exactly as pmaddwd would.
      const auto ar0 = static_cast<std::int32_t>(
          static_cast<std::int16_t>(av[r] & 0xFFFF));
      const auto ar1 = static_cast<std::int32_t>(
          static_cast<std::int16_t>(
              (static_cast<std::uint32_t>(av[r]) >> 16) & 0xFFFF));
      std::int32_t* accrow = acc + r * t.nr;
      for (std::int64_t j = 0; j < t.nr; ++j) {
        accrow[j] += ar0 * bv[2 * j] + ar1 * bv[2 * j + 1];
      }
    }
  }
#endif
}

#if defined(PELICAN_WIDE_TIERS)
// vpdpwssd is the pairwise multiply-add and the int32 add in one
// instruction (the non-saturating form, so the sum stays exact).
[[gnu::target("avx512f,avx512bw,avx512vnni")]] void MicroKernelI8Avx512(
    std::int64_t kc2, const std::int32_t* __restrict__ ap,
    const std::int16_t* __restrict__ bp, std::int32_t* __restrict__ acc) {
  constexpr Tile t = TileOf(Isa::kAvx512);
  __m512i lo[t.mr];
  __m512i hi[t.mr];
#pragma GCC unroll 8
  for (std::int64_t r = 0; r < t.mr; ++r) {
    lo[r] = _mm512_setzero_si512();
    hi[r] = _mm512_setzero_si512();
  }
  for (std::int64_t p = 0; p < kc2; ++p) {
    const std::int16_t* bv = bp + p * 2 * t.nr;
    const __m512i b0 = _mm512_loadu_si512(bv);
    const __m512i b1 = _mm512_loadu_si512(bv + t.nr);
#pragma GCC unroll 8
    for (std::int64_t r = 0; r < t.mr; ++r) {
      const __m512i ar = _mm512_set1_epi32(ap[p * t.mr + r]);
      lo[r] = _mm512_dpwssd_epi32(lo[r], ar, b0);
      hi[r] = _mm512_dpwssd_epi32(hi[r], ar, b1);
    }
  }
#pragma GCC unroll 8
  for (std::int64_t r = 0; r < t.mr; ++r) {
    _mm512_storeu_si512(acc + r * t.nr, lo[r]);
    _mm512_storeu_si512(acc + r * t.nr + 16, hi[r]);
  }
}
#endif

// The int8 counterpart of GemmSmallM for m < kSmallM: B's rows are read
// in place. Integer sums are exact, so summing all of k at once gives
// the packed path's bits without mirroring its panels. Out of line for
// the same reason as GemmSmallM.
[[gnu::noinline]] void GemmInt8SmallM(std::int64_t m, std::int64_t n,
                                      std::int64_t k, const std::int8_t* a,
                                      std::int64_t lda, const std::int8_t* b,
                                      std::int64_t ldb, std::int32_t* c,
                                      std::int64_t ldc, bool accumulate) {
  alignas(64) std::int32_t acc[kNc];
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int8_t* arow = a + i * lda;
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
      const std::int64_t nc = std::min(kNc, n - jc);
      std::fill(acc, acc + nc, 0);
      for (std::int64_t p = 0; p < k; ++p) {
        const std::int32_t ap = arow[p];
        const std::int8_t* brow = b + p * ldb + jc;
        for (std::int64_t j = 0; j < nc; ++j) acc[j] += ap * brow[j];
      }
      std::int32_t* crow = c + i * ldc + jc;
      if (accumulate) {
        for (std::int64_t j = 0; j < nc; ++j) crow[j] += acc[j];
      } else {
        std::copy_n(acc, nc, crow);
      }
    }
  }
}

// Packed-panel scratch carved out of the float workspace arena
// (64-byte aligned; counts round up to whole floats).
std::int16_t* AllocI16(Workspace& ws, std::size_t count) {
  return reinterpret_cast<std::int16_t*>(ws.Alloc((count + 1) / 2));
}
std::int32_t* AllocI32(Workspace& ws, std::size_t count) {
  return reinterpret_cast<std::int32_t*>(ws.Alloc(count));
}

using MicroKernelI8Fn = void (*)(std::int64_t, const std::int32_t*,
                                 const std::int16_t*, std::int32_t*);

template <Isa kIsa, MicroKernelI8Fn kKernel>
void GemmInt8Packed(std::int64_t m, std::int64_t n, std::int64_t k,
                    const std::int8_t* a, std::int64_t lda,
                    const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                    std::int64_t ldc, bool accumulate) {
  constexpr Tile t = TileOf(kIsa);
  Workspace& caller_ws = Workspace::Tls();
  for (std::int64_t jc = 0; jc < n; jc += kNc) {
    const std::int64_t nc = std::min(kNc, n - jc);
    const std::int64_t n_slivers = (nc + t.nr - 1) / t.nr;
    for (std::int64_t pc = 0; pc < k; pc += kKc) {
      const std::int64_t kc = std::min(kKc, k - pc);
      const std::int64_t kc2 = (kc + 1) / 2;
      const bool overwrite = (pc == 0) && !accumulate;
      Workspace::Scope panel_scope;
      std::int16_t* bpanel = AllocI16(
          caller_ws, static_cast<std::size_t>(n_slivers * t.nr * 2 * kc2));
      PackBI8<t.nr>(b, ldb, pc, jc, kc, nc, bpanel);

      const auto row_blocks = static_cast<std::size_t>((m + kMc - 1) / kMc);
      const std::int64_t per_block_work = kMc * kc * nc;
      const auto grain = static_cast<std::size_t>(std::max<std::int64_t>(
          1, (1 << 15) / std::max<std::int64_t>(1, per_block_work)));
      ParallelFor(
          0, row_blocks,
          [&](std::size_t blk) {
            const std::int64_t ic = static_cast<std::int64_t>(blk) * kMc;
            const std::int64_t mc = std::min(kMc, m - ic);
            const std::int64_t m_slivers = (mc + t.mr - 1) / t.mr;
            Workspace::Scope block_scope;
            std::int32_t* apanel =
                AllocI32(Workspace::Tls(),
                         static_cast<std::size_t>(m_slivers * t.mr * kc2));
            PackAI8<t.mr>(a, lda, ic, pc, mc, kc, apanel);
            alignas(64) std::int32_t acc[t.mr * t.nr];
            for (std::int64_t js = 0; js < nc; js += t.nr) {
              const std::int16_t* bs = bpanel + (js / t.nr) * 2 * t.nr * kc2;
              const std::int64_t w = std::min(t.nr, nc - js);
              for (std::int64_t is = 0; is < mc; is += t.mr) {
                kKernel(kc2, apanel + (is / t.mr) * t.mr * kc2, bs, acc);
                WriteTile(acc, t.nr, std::min(t.mr, mc - is), w,
                          c + (ic + is) * ldc + jc + js, ldc, overwrite);
              }
            }
          },
          grain);
    }
  }
}

using PackedGemmInt8Fn = void (*)(std::int64_t, std::int64_t, std::int64_t,
                                  const std::int8_t*, std::int64_t,
                                  const std::int8_t*, std::int64_t,
                                  std::int32_t*, std::int64_t, bool);

PackedGemmInt8Fn PackedGemmInt8For(Isa isa) {
  switch (isa) {
#if defined(PELICAN_WIDE_TIERS)
    case Isa::kAvx512:
      return GemmInt8Packed<Isa::kAvx512, MicroKernelI8Avx512>;
#endif
    default:
      return GemmInt8Packed<Isa::kSse2, MicroKernelI8Sse2>;
  }
}

void GemmInt8On(Isa isa, std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
                std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
                bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (obs::MetricsEnabled()) {
    auto& reg = obs::Registry::Global();
    static obs::Counter calls = reg.GetCounter(
        "pelican_gemm_int8_calls_total", "Int8 GEMM invocations");
    calls.Inc();
  }
  if (k <= 0) {
    if (!accumulate) {
      for (std::int64_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0);
      }
    }
    return;
  }
  if (m < kSmallM) {
    GemmInt8SmallM(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
    return;
  }
  PackedGemmInt8For(isa)(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

}  // namespace

void Gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, const float* a, std::int64_t lda, const float* b,
          std::int64_t ldb, float* c, std::int64_t ldc, bool accumulate) {
  GemmOn(Selected().fp32, trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc,
         accumulate);
}

void GemmInt8(std::int64_t m, std::int64_t n, std::int64_t k,
              const std::int8_t* a, std::int64_t lda, const std::int8_t* b,
              std::int64_t ldb, std::int32_t* c, std::int64_t ldc,
              bool accumulate) {
  GemmInt8On(Selected().int8, m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

std::string TierName(Isa isa, bool int8) {
#if defined(__SSE2__)
  std::string name = "sse2";
#else
  std::string name = int8 ? "scalar" : "portable";
#endif
  if (isa == Isa::kAvx512) name = int8 ? "avx512-vnni" : "avx512";
  const Tile t = TileOf(isa);
  return name + " " + std::to_string(t.mr) + "x" + std::to_string(t.nr);
}

std::string IsaName() {
  return "fp32 " + TierName(Selected().fp32, false) + ", int8 " +
         TierName(Selected().int8, true);
}

std::vector<Isa> SupportedIsas(bool int8) {
  std::vector<Isa> out;
  for (const Isa isa : {Isa::kSse2, Isa::kAvx512}) {
    if (HostRuns(isa, int8)) out.push_back(isa);
  }
  return out;
}

void GemmWith(Isa isa, bool trans_a, bool trans_b, std::int64_t m,
              std::int64_t n, std::int64_t k, const float* a,
              std::int64_t lda, const float* b, std::int64_t ldb, float* c,
              std::int64_t ldc, bool accumulate) {
  PELICAN_CHECK(HostRuns(isa, false), "GEMM tier " + TierName(isa, false) +
                                          " is not supported on this host");
  GemmOn(isa, trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

void GemmInt8With(Isa isa, std::int64_t m, std::int64_t n, std::int64_t k,
                  const std::int8_t* a, std::int64_t lda,
                  const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                  std::int64_t ldc, bool accumulate) {
  PELICAN_CHECK(HostRuns(isa, true), "int8 GEMM tier " + TierName(isa, true) +
                                         " is not supported on this host");
  GemmInt8On(isa, m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

}  // namespace pelican::kernels
