#include "tensor/kernels.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
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

#if defined(PELICAN_WIDE_TIERS)
// GemmSmallM on the AVX-512 tier: 16 columns per register, in blocks of
// 8 independent accumulators (128 columns) that hide the add's latency.
// Each lane runs the SSE2 loop's arithmetic for its column (from 0.0F,
// k ascending inside each kKc panel, a multiply then an add, the first
// panel of a non-accumulating call stored into C and every later one
// added), so it writes that loop's bytes. Masked loads and stores cover
// a block's live columns; nothing past them is read or written.
[[gnu::target("avx512f")]] void GemmSmallMAvx512(
    bool trans_a, std::int64_t m, std::int64_t n, std::int64_t k,
    const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
    float* c, std::int64_t ldc, bool accumulate) {
  constexpr std::int64_t kLanes = 16, kRegs = 8;
  const std::int64_t a_step = trans_a ? lda : 1;  // along k within a row
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = trans_a ? a + i : a + i * lda;
    for (std::int64_t j0 = 0; j0 < n; j0 += kLanes * kRegs) {
      __mmask16 live[kRegs];
#pragma GCC unroll 8
      for (std::int64_t r = 0; r < kRegs; ++r) {
        const std::int64_t w =
            std::clamp<std::int64_t>(n - j0 - r * kLanes, 0, kLanes);
        live[r] = static_cast<__mmask16>((1U << w) - 1U);
      }
      float* cblock = c + i * ldc + j0;
      for (std::int64_t pc = 0; pc < k; pc += kKc) {
        const std::int64_t kc = std::min(kKc, k - pc);
        __m512 acc[kRegs];
#pragma GCC unroll 8
        for (std::int64_t r = 0; r < kRegs; ++r) acc[r] = _mm512_setzero_ps();
        for (std::int64_t p = pc; p < pc + kc; ++p) {
          const __m512 ap = _mm512_set1_ps(arow[p * a_step]);
          const float* brow = b + p * ldb + j0;
#pragma GCC unroll 8
          for (std::int64_t r = 0; r < kRegs; ++r) {
            const __m512 bv = _mm512_maskz_loadu_ps(live[r], brow + r * kLanes);
            acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(ap, bv));
          }
        }
        const bool store = pc == 0 && !accumulate;
#pragma GCC unroll 8
        for (std::int64_t r = 0; r < kRegs; ++r) {
          float* cv = cblock + r * kLanes;
          const __m512 sum =
              store ? acc[r]
                    : _mm512_add_ps(_mm512_maskz_loadu_ps(live[r], cv), acc[r]);
          _mm512_mask_storeu_ps(cv, live[r], sum);
        }
      }
    }
  }
}
#endif

using SmallMGemmFn = void (*)(bool, std::int64_t, std::int64_t, std::int64_t,
                              const float*, std::int64_t, const float*,
                              std::int64_t, float*, std::int64_t, bool);

SmallMGemmFn SmallMGemmFor(Isa isa) {
#if defined(PELICAN_WIDE_TIERS)
  if (isa == Isa::kAvx512) return GemmSmallMAvx512;
#endif
  (void)isa;
  return GemmSmallM;
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
      const std::size_t grain = ShardGrain(kMc * kc * nc, 1 << 15);
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
    SmallMGemmFor(isa)(trans_a, m, n, k, a, lda, b, ldb, c, ldc, accumulate);
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
// the kernel skips the unpack/shift dance. The SSE2 tier packs with
// this loop; the AVX-512 tier with PackBI8Avx512, which writes the same
// bytes.
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

#if defined(PELICAN_WIDE_TIERS)
// Word indices for a two-source permute that interleaves 32 int16
// lanes of k₂ₚ (source a, 0–31) with 32 of k₂ₚ₊₁ (source b, 32–63):
// entries 0–31 give columns 0–15 of the pair, 32–63 columns 16–31.
constexpr auto kPairInterleave = [] {
  std::array<std::int16_t, 64> idx{};
  for (std::size_t e = 0; e < idx.size(); ++e) {
    idx[e] = static_cast<std::int16_t>((e % 2 == 0 ? 0 : 32) + e / 2);
  }
  return idx;
}();

// The `live` bytes of one row, sign-extended to int16 lanes; bytes
// outside the mask are not read and load as 0. The low 256 bits are
// taken by a maskz extract over all four lanes: GCC 12's
// _mm512_castsi512_si256 passes an uninitialized source and warns.
[[gnu::target("avx512f,avx512bw")]] inline __m512i WidenRowI8(
    __mmask64 live, const std::int8_t* row) {
  const __m512i bytes = _mm512_maskz_loadu_epi8(live, row);
  return _mm512_cvtepi8_epi16(
      _mm512_maskz_extracti64x4_epi64(0xf, bytes, 0));
}

// PackBI8 for the AVX-512 tier (Nr = 32), one k-pair of a sliver per
// step: each of the two rows is loaded masked to the sliver's live
// width, sign-extended to int16 and interleaved by the permute above.
// The second row of an odd kc's last pair is zero. Those are the
// scalar packer's bytes, lane for lane. AVX-512F/BW only, which the
// int8 tier's CPUID check covers.
[[gnu::target("avx512f,avx512bw")]] void PackBI8Avx512(
    const std::int8_t* b, std::int64_t ldb, std::int64_t p0, std::int64_t j0,
    std::int64_t kc, std::int64_t nc, std::int16_t* dst) {
  constexpr std::int64_t kNr = TileOf(Isa::kAvx512).nr;
  static_assert(2 * kNr == kPairInterleave.size());
  const __m512i lo_idx = _mm512_loadu_si512(kPairInterleave.data());
  const __m512i hi_idx = _mm512_loadu_si512(kPairInterleave.data() + kNr);
  const std::int64_t kc2 = (kc + 1) / 2;
  for (std::int64_t js = 0; js < nc; js += kNr) {
    const std::int64_t w = std::min(kNr, nc - js);
    const __mmask64 live = (__mmask64{1} << w) - 1;
    const std::int8_t* col = b + p0 * ldb + j0 + js;
    for (std::int64_t p = 0; p < kc2; ++p) {
      const std::int8_t* row0 = col + 2 * p * ldb;
      const __m512i k0 = WidenRowI8(live, row0);
      const __m512i k1 = 2 * p + 1 < kc ? WidenRowI8(live, row0 + ldb)
                                        : _mm512_setzero_si512();
      _mm512_storeu_si512(dst, _mm512_permutex2var_epi16(k0, lo_idx, k1));
      _mm512_storeu_si512(dst + kNr,
                          _mm512_permutex2var_epi16(k0, hi_idx, k1));
      dst += 2 * kNr;
    }
  }
}
#endif

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

#if defined(PELICAN_WIDE_TIERS)
// Word indices for a two-source permute that interleaves units of s
// int32 words of source a (0–15) with those of source b (16–31):
// entries 0–15 take the units of each source's first 8 words, 16–31
// those of its last 8.
constexpr std::array<std::int32_t, 32> UnitInterleave(std::int64_t s) {
  std::array<std::int32_t, 32> idx{};
  for (std::int64_t e = 0; e < 32; ++e) {
    const std::int64_t f = e % 16, unit = f / s;
    idx[static_cast<std::size_t>(e)] = static_cast<std::int32_t>(
        (unit % 2 == 0 ? 0 : 16) + (e / 16) * 8 + (unit / 2) * s + f % s);
  }
  return idx;
}
constexpr auto kUnit1 = UnitInterleave(1);
constexpr auto kUnit2 = UnitInterleave(2);
constexpr auto kUnit4 = UnitInterleave(4);

// `count` (≤ 32) bytes of one row sign-extended to int16 lanes, zeros
// past them; bytes past `count` are not read. 32 bytes are one
// unmasked load.
[[gnu::target("avx512f,avx512bw")]] inline __m512i WidenI8(
    const std::int8_t* row, std::int64_t count) {
  if (count == 32) {
    return _mm512_cvtepi8_epi16(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row)));
  }
  return WidenRowI8((__mmask64{1} << count) - 1, row);
}

// PackAI8 for the AVX-512 tier (Mr = 8), 16 k-pairs of a sliver per
// step. A row's bytes widened to int16 (WidenI8), read as int32 words,
// are its pair-words [k₂ₚ | k₂ₚ₊₁ << 16], with 0 in the second half of
// an odd kc's last pair; rows past the sliver's live height are 0.
// Three levels of two-source permutes, interleaving units of 1, 2 and
// then 4 words, transpose the 8 rows × 16 pairs into the sliver's
// pair-major layout, and pairs past kc2 are not stored. Those are the
// scalar packer's words, lane for lane: the packer only moves exact
// integers.
[[gnu::target("avx512f,avx512bw")]] void PackAI8Avx512(
    const std::int8_t* a, std::int64_t lda, std::int64_t i0, std::int64_t p0,
    std::int64_t mc, std::int64_t kc, std::int32_t* dst) {
  constexpr std::int64_t kMr = TileOf(Isa::kAvx512).mr;
  static_assert(kMr == 8, "three interleave levels transpose 8 rows");
  const __m512i u1[2] = {_mm512_loadu_si512(kUnit1.data()),
                         _mm512_loadu_si512(kUnit1.data() + 16)};
  const __m512i u2[2] = {_mm512_loadu_si512(kUnit2.data()),
                         _mm512_loadu_si512(kUnit2.data() + 16)};
  const __m512i u4[2] = {_mm512_loadu_si512(kUnit4.data()),
                         _mm512_loadu_si512(kUnit4.data() + 16)};
  const std::int64_t kc2 = (kc + 1) / 2;
  for (std::int64_t is = 0; is < mc; is += kMr) {
    const std::int64_t h = std::min(kMr, mc - is);
    const std::int8_t* rows = a + (i0 + is) * lda + p0;
    for (std::int64_t kb = 0; kb < kc2; kb += 16) {
      const std::int64_t count = std::min<std::int64_t>(32, kc - 2 * kb);
      __m512i w[kMr];
#pragma GCC unroll 8
      for (std::int64_t r = 0; r < kMr; ++r) {
        w[r] = r < h ? WidenI8(rows + r * lda + 2 * kb, count)
                     : _mm512_setzero_si512();
      }
      // Rows 2q and 2q+1 word by word: pairs 0–7, then 8–15.
      __m512i l1[kMr];
#pragma GCC unroll 4
      for (std::int64_t q = 0; q < 4; ++q) {
        l1[2 * q] = _mm512_permutex2var_epi32(w[2 * q], u1[0], w[2 * q + 1]);
        l1[2 * q + 1] =
            _mm512_permutex2var_epi32(w[2 * q], u1[1], w[2 * q + 1]);
      }
      // Rows 0–3 (g < 4) and 4–7 (g ≥ 4), four pairs each: pairs
      // 4·(g mod 4) to 4·(g mod 4) + 3.
      __m512i l2[kMr];
#pragma GCC unroll 2
      for (std::int64_t half = 0; half < 2; ++half) {
        const __m512i* src = l1 + 4 * half;
        l2[4 * half + 0] = _mm512_permutex2var_epi32(src[0], u2[0], src[2]);
        l2[4 * half + 1] = _mm512_permutex2var_epi32(src[0], u2[1], src[2]);
        l2[4 * half + 2] = _mm512_permutex2var_epi32(src[1], u2[0], src[3]);
        l2[4 * half + 3] = _mm512_permutex2var_epi32(src[1], u2[1], src[3]);
      }
      // All 8 rows of pairs kb + 2t and kb + 2t + 1.
#pragma GCC unroll 8
      for (std::int64_t t = 0; t < kMr; ++t) {
        const std::int64_t first = kb + 2 * t;
        if (first >= kc2) break;
        const __m512i out =
            _mm512_permutex2var_epi32(l2[t / 2], u4[t % 2], l2[4 + t / 2]);
        const auto live =
            static_cast<__mmask16>(first + 1 < kc2 ? 0xffff : 0x00ff);
        _mm512_mask_storeu_epi32(dst + first * kMr, live, out);
      }
    }
    dst += kc2 * kMr;
  }
}
#endif

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

#if defined(PELICAN_WIDE_TIERS)
// M rows (M < kSmallM) of GemmInt8SmallM on the AVX-512BW+VNNI tier:
// per 32-column block and k-pair, B's two rows are widened and
// interleaved in registers as PackBI8Avx512 packs them (unmasked
// 32-byte loads where the block is full), and each row's pair-word
// meets them in one vpdpwssd per 16 columns. Integer sums are exact,
// so these are the SSE2 loop's bytes.
template <std::int64_t M>
[[gnu::target("avx512f,avx512bw,avx512vnni")]] void GemmInt8RowsAvx512(
    std::int64_t n, std::int64_t k, const std::int8_t* a, std::int64_t lda,
    const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
    std::int64_t ldc, bool accumulate) {
  constexpr std::int64_t kNr = TileOf(Isa::kAvx512).nr;
  const __m512i lo_idx = _mm512_loadu_si512(kPairInterleave.data());
  const __m512i hi_idx = _mm512_loadu_si512(kPairInterleave.data() + kNr);
  const std::int64_t k2 = (k + 1) / 2;
  for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
    const std::int64_t w = std::min(kNr, n - j0);
    const __mmask64 live = (__mmask64{1} << w) - 1;
    __m512i lo[M];
    __m512i hi[M];
#pragma GCC unroll 3
    for (std::int64_t r = 0; r < M; ++r) {
      lo[r] = _mm512_setzero_si512();
      hi[r] = _mm512_setzero_si512();
    }
    for (std::int64_t p = 0; p < k2; ++p) {
      const std::int8_t* row0 = b + 2 * p * ldb + j0;
      const bool has_k1 = 2 * p + 1 < k;
      const __m512i k0 = WidenI8(row0, w);
      const __m512i k1 =
          has_k1 ? WidenI8(row0 + ldb, w) : _mm512_setzero_si512();
      const __m512i b0 = _mm512_permutex2var_epi16(k0, lo_idx, k1);
      const __m512i b1 = _mm512_permutex2var_epi16(k0, hi_idx, k1);
#pragma GCC unroll 3
      for (std::int64_t r = 0; r < M; ++r) {
        const std::int8_t* ar = a + r * lda + 2 * p;
        const __m512i aw = _mm512_set1_epi32(
            PairWord(ar[0], has_k1 ? ar[1] : std::int8_t{0}));
        lo[r] = _mm512_dpwssd_epi32(lo[r], aw, b0);
        hi[r] = _mm512_dpwssd_epi32(hi[r], aw, b1);
      }
    }
    const auto lo_live = static_cast<__mmask16>(live);
    const auto hi_live = static_cast<__mmask16>(live >> 16);
#pragma GCC unroll 3
    for (std::int64_t r = 0; r < M; ++r) {
      std::int32_t* cr = c + r * ldc + j0;
      if (accumulate) {
        lo[r] = _mm512_add_epi32(lo[r], _mm512_maskz_loadu_epi32(lo_live, cr));
        hi[r] = _mm512_add_epi32(hi[r],
                                 _mm512_maskz_loadu_epi32(hi_live, cr + 16));
      }
      _mm512_mask_storeu_epi32(cr, lo_live, lo[r]);
      _mm512_mask_storeu_epi32(cr + 16, hi_live, hi[r]);
    }
  }
}

void GemmInt8SmallMAvx512(
    std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
    std::int64_t lda, const std::int8_t* b, std::int64_t ldb,
    std::int32_t* c, std::int64_t ldc, bool accumulate) {
  static_assert(kSmallM == 4, "one instance per row count below kSmallM");
  switch (m) {
    case 1:
      GemmInt8RowsAvx512<1>(n, k, a, lda, b, ldb, c, ldc, accumulate);
      return;
    case 2:
      GemmInt8RowsAvx512<2>(n, k, a, lda, b, ldb, c, ldc, accumulate);
      return;
    default:
      GemmInt8RowsAvx512<3>(n, k, a, lda, b, ldb, c, ldc, accumulate);
      return;
  }
}
#endif

using SmallMGemmInt8Fn = void (*)(std::int64_t, std::int64_t, std::int64_t,
                                  const std::int8_t*, std::int64_t,
                                  const std::int8_t*, std::int64_t,
                                  std::int32_t*, std::int64_t, bool);

SmallMGemmInt8Fn SmallMGemmInt8For(Isa isa) {
#if defined(PELICAN_WIDE_TIERS)
  if (isa == Isa::kAvx512) return GemmInt8SmallMAvx512;
#endif
  (void)isa;
  return GemmInt8SmallM;
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
using PackBI8Fn = void (*)(const std::int8_t*, std::int64_t, std::int64_t,
                           std::int64_t, std::int64_t, std::int64_t,
                           std::int16_t*);
using PackAI8Fn = void (*)(const std::int8_t*, std::int64_t, std::int64_t,
                           std::int64_t, std::int64_t, std::int64_t,
                           std::int32_t*);

template <Isa kIsa, MicroKernelI8Fn kKernel, PackBI8Fn kPackB,
          PackAI8Fn kPackA>
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
      kPackB(b, ldb, pc, jc, kc, nc, bpanel);

      const auto row_blocks = static_cast<std::size_t>((m + kMc - 1) / kMc);
      const std::size_t grain = ShardGrain(kMc * kc * nc, 1 << 15);
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
            kPackA(a, lda, ic, pc, mc, kc, apanel);
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
      return GemmInt8Packed<Isa::kAvx512, MicroKernelI8Avx512,
                            PackBI8Avx512, PackAI8Avx512>;
#endif
    default:
      return GemmInt8Packed<Isa::kSse2, MicroKernelI8Sse2,
                            PackBI8<TileOf(Isa::kSse2).nr>,
                            PackAI8<TileOf(Isa::kSse2).mr>>;
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
    SmallMGemmInt8For(isa)(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
    return;
  }
  PackedGemmInt8For(isa)(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

// ---- tanh -------------------------------------------------------------
//
// fdlibm's tanhf over its expm1f (the 5-term Q1–Q5 form glibc ships),
// ported operation for operation. Every step is one IEEE-rounded
// multiply, add or divide (no contraction: -ffp-contract=off), so the
// port's bytes depend on no libm, and the AVX-512 tier, which runs the
// same steps in 16 lanes, writes the same bytes.

constexpr float kLn2Hi = 6.9313812256e-01F;   // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06F;   // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00F;  // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02F;     // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03F;      // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05F;     // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06F;      // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07F;     // 0xb457edbb

std::uint32_t BitsOf(float x) { return std::bit_cast<std::uint32_t>(x); }
float FloatOf(std::uint32_t u) { return std::bit_cast<float>(u); }

// y·2^k by adding k to y's exponent field (y is a normal near 1).
float ScaleByPow2(float y, std::int32_t k) {
  return FloatOf(BitsOf(y) + (static_cast<std::uint32_t>(k) << 23));
}

// fdlibm's expm1f on the arguments Tanh(float) passes it: −2|x| for
// 2^-55 ≤ |x| < 1 and 2|x| for 1 ≤ |x| < 22, so x is finite and in
// (−2, −2^-54] ∪ [2, 44). expm1f's branches for other arguments
// (non-finite, overflowing, below −27·ln2, and the k = 1 and k = 128
// results) cannot be reached and are left out.
float Expm1ForTanh(float x) {
  const std::uint32_t hx = BitsOf(x) & 0x7fffffffU;
  float c = 0.0F;
  std::int32_t k = 0;
  if (hx > 0x3eb17218U) {  // |x| > 0.5·ln2: reduce to x − k·ln2
    float hi = 0.0F;
    float lo = 0.0F;
    if (hx < 0x3f851592U) {  // and |x| < 1.5·ln2, where only x < 0 arrives
      hi = x + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (x < 0.0F ? -0.5F : 0.5F));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // exact: ln2_hi has its low bits clear
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000U) {  // |x| < 2^-25
    return x;
  }
  const float hfx = 0.5F * x;
  const float hxs = x * hfx;
  const float r1 =
      1.0F + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const float t = 3.0F - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0F - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = x * (e - c) - c;
  e -= hxs;
  if (k == -1) return 0.5F * (x - e) - 0.5F;
  if (k <= -2 || k > 56) return ScaleByPow2(1.0F - (e - x), k) - 1.0F;
  if (k < 23) {  // one_minus = 1 − 2^-k
    const float one_minus = FloatOf(0x3f800000U - (0x1000000U >> k));
    return ScaleByPow2(one_minus - (e - x), k);
  }
  // pow2 = 2^-k
  const float pow2 = FloatOf(static_cast<std::uint32_t>(0x7f - k) << 23);
  return ScaleByPow2(x - (e + pow2) + 1.0F, k);
}

void TanhBase(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = Tanh(x[i]);
}

#if defined(PELICAN_WIDE_TIERS)
// The AVX-512 tier computes every branch of the port in each of 16
// lanes and keeps, per lane, the one the scalar code would take. Lanes
// that take no expm1f branch feed it 2.0 instead of their own value, so
// a subnormal or non-finite input cannot slow the lanes beside it.

// Every lane. GCC 12's unmasked forms of some intrinsics (cvttps2dq,
// cvtdq2ps, the shifts) pass an uninitialized _mm512_undefined_*()
// source and warn under -Wall; their maskz forms over every lane
// compile to the same unmasked instructions.
constexpr __mmask16 kAllLanes = 0xffff;

[[gnu::target("avx512f")]] inline __m512i SplatI(std::uint32_t v) {
  return _mm512_set1_epi32(static_cast<std::int32_t>(v));
}
[[gnu::target("avx512f")]] inline __m512 SplatF(float v) {
  return _mm512_set1_ps(v);
}
[[gnu::target("avx512f")]] inline __m512 AddExponent(__m512 y, __m512i k23) {
  return _mm512_castsi512_ps(_mm512_add_epi32(_mm512_castps_si512(y), k23));
}

[[gnu::target("avx512f")]] __m512 Expm1ForTanhAvx512(__m512 x) {
  const __m512i hx = _mm512_and_si512(_mm512_castps_si512(x),
                                      SplatI(0x7fffffffU));
  const __mmask16 neg = _mm512_cmp_ps_mask(x, _mm512_setzero_ps(),
                                           _CMP_LT_OQ);
  const __mmask16 reduce = _mm512_cmpgt_epi32_mask(hx, SplatI(0x3eb17218U));
  const __mmask16 near = _mm512_cmplt_epi32_mask(hx, SplatI(0x3f851592U));
  const __mmask16 tiny = _mm512_cmplt_epi32_mask(hx, SplatI(0x33000000U));

  // Reduction: the general k, then k = −1 where |x| < 1.5·ln2; lanes
  // that skip it keep x, c = 0 and k = 0.
  const __m512 half = _mm512_mask_blend_ps(neg, SplatF(0.5F), SplatF(-0.5F));
  __m512i k = _mm512_maskz_cvttps_epi32(
      kAllLanes, _mm512_add_ps(_mm512_mul_ps(SplatF(kInvLn2), x), half));
  const __m512 tk = _mm512_maskz_cvtepi32_ps(kAllLanes, k);
  __m512 hi = _mm512_sub_ps(x, _mm512_mul_ps(tk, SplatF(kLn2Hi)));
  __m512 lo = _mm512_mul_ps(tk, SplatF(kLn2Lo));
  hi = _mm512_mask_mov_ps(hi, near, _mm512_add_ps(x, SplatF(kLn2Hi)));
  lo = _mm512_mask_mov_ps(lo, near, SplatF(-kLn2Lo));
  k = _mm512_mask_mov_epi32(k, near, SplatI(0xffffffffU));
  const __m512 xr = _mm512_sub_ps(hi, lo);
  const __m512 c = _mm512_maskz_mov_ps(
      reduce, _mm512_sub_ps(_mm512_sub_ps(hi, xr), lo));
  x = _mm512_mask_mov_ps(x, reduce, xr);
  k = _mm512_maskz_mov_epi32(reduce, k);

  const __m512 hfx = _mm512_mul_ps(SplatF(0.5F), x);
  const __m512 hxs = _mm512_mul_ps(x, hfx);
  __m512 r1 = _mm512_add_ps(SplatF(kQ4), _mm512_mul_ps(hxs, SplatF(kQ5)));
  r1 = _mm512_add_ps(SplatF(kQ3), _mm512_mul_ps(hxs, r1));
  r1 = _mm512_add_ps(SplatF(kQ2), _mm512_mul_ps(hxs, r1));
  r1 = _mm512_add_ps(SplatF(kQ1), _mm512_mul_ps(hxs, r1));
  r1 = _mm512_add_ps(SplatF(1.0F), _mm512_mul_ps(hxs, r1));
  const __m512 t = _mm512_sub_ps(SplatF(3.0F), _mm512_mul_ps(r1, hfx));
  __m512 e = _mm512_mul_ps(
      hxs, _mm512_div_ps(_mm512_sub_ps(r1, t),
                         _mm512_sub_ps(SplatF(6.0F), _mm512_mul_ps(x, t))));
  const __m512 if_k0 =
      _mm512_sub_ps(x, _mm512_sub_ps(_mm512_mul_ps(x, e), hxs));
  e = _mm512_sub_ps(_mm512_mul_ps(x, _mm512_sub_ps(e, c)), c);
  e = _mm512_sub_ps(e, hxs);
  const __m512 if_km1 = _mm512_sub_ps(
      _mm512_mul_ps(SplatF(0.5F), _mm512_sub_ps(x, e)), SplatF(0.5F));
  const __m512i k23 = _mm512_maskz_slli_epi32(kAllLanes, k, 23);
  const __m512 e_minus_x = _mm512_sub_ps(e, x);
  const __m512 if_far = _mm512_sub_ps(
      AddExponent(_mm512_sub_ps(SplatF(1.0F), e_minus_x), k23), SplatF(1.0F));
  const __m512 one_minus = _mm512_castsi512_ps(_mm512_sub_epi32(
      SplatI(0x3f800000U),
      _mm512_maskz_srlv_epi32(kAllLanes, SplatI(0x1000000U), k)));
  const __m512 if_lt23 = AddExponent(_mm512_sub_ps(one_minus, e_minus_x), k23);
  const __m512 pow2 = _mm512_castsi512_ps(
      _mm512_maskz_slli_epi32(kAllLanes, _mm512_sub_epi32(SplatI(0x7fU), k),
                              23));
  const __m512 if_mid = AddExponent(
      _mm512_add_ps(_mm512_sub_ps(x, _mm512_add_ps(e, pow2)), SplatF(1.0F)),
      k23);

  const __mmask16 far = _mm512_cmple_epi32_mask(k, SplatI(0xfffffffeU)) |
                        _mm512_cmpgt_epi32_mask(k, SplatI(56U));
  __m512 r = _mm512_mask_mov_ps(
      if_mid, _mm512_cmplt_epi32_mask(k, SplatI(23U)), if_lt23);
  r = _mm512_mask_mov_ps(r, far, if_far);
  r = _mm512_mask_mov_ps(r, _mm512_cmpeq_epi32_mask(k, SplatI(0xffffffffU)),
                         if_km1);
  r = _mm512_mask_mov_ps(r, _mm512_cmpeq_epi32_mask(k, _mm512_setzero_si512()),
                         if_k0);
  return _mm512_mask_mov_ps(r, tiny, x);
}

[[gnu::target("avx512f")]] __m512 TanhAvx512Lanes(__m512 x) {
  const __m512i jx = _mm512_castps_si512(x);
  const __m512i sign = _mm512_and_si512(jx, SplatI(0x80000000U));
  const __m512i ix = _mm512_and_si512(jx, SplatI(0x7fffffffU));
  const __mmask16 nonfinite = _mm512_cmpge_epi32_mask(ix, SplatI(0x7f800000U));
  const __mmask16 tiny = _mm512_cmplt_epi32_mask(ix, SplatI(0x24000000U));
  const __mmask16 saturated = _mm512_cmpge_epi32_mask(ix, SplatI(0x41b00000U));
  const __mmask16 big = _mm512_cmpge_epi32_mask(ix, SplatI(0x3f800000U));
  const auto expm1_lanes =
      static_cast<__mmask16>(~(nonfinite | tiny | saturated));

  const __m512 ax = _mm512_castsi512_ps(ix);
  const __m512 arg = _mm512_mask_blend_ps(
      big, _mm512_mul_ps(SplatF(-2.0F), ax), _mm512_mul_ps(SplatF(2.0F), ax));
  const __m512 t = Expm1ForTanhAvx512(
      _mm512_mask_mov_ps(SplatF(2.0F), expm1_lanes, arg));
  // One divide serves both formulas: 2/(t+2) where |x| ≥ 1, −t/(t+2)
  // below.
  const __m512 neg_t = _mm512_castsi512_ps(
      _mm512_xor_si512(_mm512_castps_si512(t), SplatI(0x80000000U)));
  const __m512 q = _mm512_div_ps(_mm512_mask_blend_ps(big, neg_t, SplatF(2.0F)),
                                 _mm512_add_ps(t, SplatF(2.0F)));
  __m512 z = _mm512_mask_blend_ps(big, q, _mm512_sub_ps(SplatF(1.0F), q));
  z = _mm512_mask_mov_ps(z, saturated, SplatF(1.0F));
  z = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(z), sign));
  z = _mm512_mask_mov_ps(
      z, tiny, _mm512_mul_ps(x, _mm512_add_ps(SplatF(1.0F), x)));
  if (nonfinite != 0) {
    const __m512 inv = _mm512_div_ps(SplatF(1.0F), x);
    const __mmask16 neg =
        _mm512_cmpneq_epi32_mask(sign, _mm512_setzero_si512());
    z = _mm512_mask_mov_ps(
        z, nonfinite,
        _mm512_mask_blend_ps(neg, _mm512_add_ps(inv, SplatF(1.0F)),
                             _mm512_sub_ps(inv, SplatF(1.0F))));
  }
  return z;
}

[[gnu::target("avx512f")]] void TanhAvx512(const float* x, float* y,
                                          std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(y + i, TanhAvx512Lanes(_mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const auto tail = static_cast<__mmask16>((1U << (n - i)) - 1U);
    _mm512_mask_storeu_ps(y + i, tail,
                          TanhAvx512Lanes(_mm512_maskz_loadu_ps(tail, x + i)));
  }
}
#endif

void TanhOn(Isa isa, const float* x, float* y, std::int64_t n) {
#if defined(PELICAN_WIDE_TIERS)
  if (isa == Isa::kAvx512) {
    TanhAvx512(x, y, n);
    return;
  }
#endif
  (void)isa;
  TanhBase(x, y, n);
}

// The base tier: 16 lanes the compiler vectorizes (SSE2: 4 at a time).
std::int32_t MaxAbsBitsBase(const float* p, std::int64_t n) {
  constexpr std::int64_t kLanes = 16;
  const auto abs_bits = [](float v) {
    return std::bit_cast<std::int32_t>(v) & 0x7fffffff;
  };
  std::array<std::int32_t, kLanes> lane{};
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::int64_t l = 0; l < kLanes; ++l) {
      lane[l] = std::max(lane[l], abs_bits(p[i + l]));
    }
  }
  std::int32_t m = 0;
  for (; i < n; ++i) m = std::max(m, abs_bits(p[i]));
  for (const std::int32_t v : lane) m = std::max(m, v);
  return m;
}

#if defined(PELICAN_WIDE_TIERS)
// 16 lanes per register and 4 registers per step, so no max waits on
// the one before; the tail is one masked load (masked-off lanes read
// as +0, which no |v| is below). An integer max in any order gives the
// base tier's value.
[[gnu::target("avx512f")]] inline __m512i MaxAbsLanes(__m512i m, __m512i v) {
  return _mm512_maskz_max_epi32(kAllLanes, m,
                                _mm512_and_si512(v, SplatI(0x7fffffffU)));
}

[[gnu::target("avx512f")]] std::int32_t MaxAbsBitsAvx512(const float* p,
                                                       std::int64_t n) {
  constexpr std::int64_t kLanes = 16;
  __m512i m[4];
#pragma GCC unroll 4
  for (auto& v : m) v = _mm512_setzero_si512();
  std::int64_t i = 0;
  for (; i + 4 * kLanes <= n; i += 4 * kLanes) {
#pragma GCC unroll 4
    for (std::int64_t r = 0; r < 4; ++r) {
      m[r] = MaxAbsLanes(m[r], _mm512_loadu_si512(p + i + r * kLanes));
    }
  }
  for (; i + kLanes <= n; i += kLanes) {
    m[0] = MaxAbsLanes(m[0], _mm512_loadu_si512(p + i));
  }
  if (i < n) {
    const auto tail = static_cast<__mmask16>((1U << (n - i)) - 1U);
    m[1] = MaxAbsLanes(m[1], _mm512_maskz_loadu_epi32(tail, p + i));
  }
  alignas(64) std::int32_t lanes[kLanes];
  _mm512_store_si512(lanes, _mm512_maskz_max_epi32(
                                kAllLanes,
                                _mm512_maskz_max_epi32(kAllLanes, m[0], m[1]),
                                _mm512_maskz_max_epi32(kAllLanes, m[2], m[3])));
  return *std::max_element(lanes, lanes + kLanes);
}
#endif

std::int32_t MaxAbsBitsOn(Isa isa, const float* p, std::int64_t n) {
#if defined(PELICAN_WIDE_TIERS)
  if (isa == Isa::kAvx512) return MaxAbsBitsAvx512(p, n);
#endif
  (void)isa;
  return MaxAbsBitsBase(p, n);
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

float Tanh(float x) {
  const std::uint32_t jx = BitsOf(x);
  const std::uint32_t ix = jx & 0x7fffffffU;
  const bool neg = (jx >> 31) != 0;
  if (ix >= 0x7f800000U) return neg ? 1.0F / x - 1.0F : 1.0F / x + 1.0F;
  if (ix < 0x24000000U) return x * (1.0F + x);  // |x| < 2^-55, ±0 included
  float z = 1.0F;  // |x| ≥ 22; fdlibm's 1 − 1e-30 rounds to 1
  if (ix < 0x41b00000U) {
    if (ix >= 0x3f800000U) {  // |x| ≥ 1
      const float t = Expm1ForTanh(2.0F * std::fabs(x));
      z = 1.0F - 2.0F / (t + 2.0F);
    } else {
      const float t = Expm1ForTanh(-2.0F * std::fabs(x));
      z = -t / (t + 2.0F);
    }
  }
  return neg ? -z : z;
}

void Tanh(const float* x, float* y, std::int64_t n) {
  TanhOn(Selected().fp32, x, y, n);
}

void TanhWith(Isa isa, const float* x, float* y, std::int64_t n) {
  PELICAN_CHECK(HostRuns(isa, false), "tanh tier " + TanhTierName(isa) +
                                          " is not supported on this host");
  TanhOn(isa, x, y, n);
}

std::int32_t MaxAbsBits(const float* p, std::int64_t n) {
  return MaxAbsBitsOn(Selected().fp32, p, n);
}

std::int32_t MaxAbsBitsWith(Isa isa, const float* p, std::int64_t n) {
  PELICAN_CHECK(HostRuns(isa, false), "MaxAbsBits tier " +
                                          TierName(isa, false) +
                                          " is not supported on this host");
  return MaxAbsBitsOn(isa, p, n);
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

std::string TanhTierName(Isa isa) {
  return isa == Isa::kAvx512 ? "avx512" : "scalar port";
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
