// Tests for the pelican::kernels compute layer: randomized equivalence
// of the blocked GEMM against a naive reference (odd tails, transposed
// variants, accumulate vs overwrite), bit-equality of every ISA tier the
// host runs with the SSE2 tier, bit-equality of the unpacked small-m
// path with the packed one (fp32 and int8), the NaN-poisoning
// regression for the removed zero-skip branches, bit-identical results
// across thread counts through the GEMM-backed Conv1D/GRU layers, every
// tanh tier against the scalar fdlibm port (and the port against
// std::tanh), and the thread-local Workspace arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/workspace.h"
#include "kernel_tiers.h"
#include "nn/conv1d.h"
#include "nn/gru.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace pelican {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

using kernels::TanhTierName;
using testing::TileEdgeDims;
using testing::WideTiersOnThisHost;

// Serial ascending-k reference with the plain semantics of
// kernels::Gemm. The blocked kernel forms per-panel partial sums in
// registers, so results may differ from this in last-bit rounding —
// comparisons use a relative tolerance.
void NaiveGemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, const float* a, std::int64_t lda,
               const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
               bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = accumulate ? static_cast<double>(c[i * ldc + j]) : 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * lda + i] : a[i * lda + p];
        const float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c[i * ldc + j] = static_cast<float>(acc);
    }
  }
}

std::vector<float> RandomVec(std::size_t n, Rng& rng) {
  Tensor t = Tensor::RandomNormal({static_cast<std::int64_t>(n)}, rng, 0, 1);
  return {t.data().begin(), t.data().end()};
}

void ExpectClose(const std::vector<float>& got, const std::vector<float>& want,
                 const std::string& what) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float tol =
        1e-4F * (1.0F + std::fabs(want[i]));
    ASSERT_NEAR(got[i], want[i], tol) << what << " at flat index " << i;
  }
}

TEST(Kernels, GemmMatchesNaiveAcrossShapesAndVariants) {
  Rng rng(1234);
  // Exercise every tail case of the blocking scheme: sub-sliver,
  // sliver±1, block boundaries ±1, and shapes spanning several cache
  // panels.
  const std::vector<std::int64_t> dims = TileEdgeDims();
  const std::int64_t ks[] = {1, 3, kernels::kKc - 1, kernels::kKc + 1, 70};
  for (std::int64_t m : dims) {
    for (std::int64_t n : dims) {
      for (std::int64_t k : ks) {
        for (int variant = 0; variant < 4; ++variant) {
          const bool ta = (variant & 1) != 0;
          const bool tb = (variant & 2) != 0;
          for (bool accumulate : {false, true}) {
            const std::int64_t lda = ta ? m : k;
            const std::int64_t ldb = tb ? k : n;
            auto a = RandomVec(static_cast<std::size_t>(m * k), rng);
            auto b = RandomVec(static_cast<std::size_t>(k * n), rng);
            auto c = RandomVec(static_cast<std::size_t>(m * n), rng);
            auto want = c;
            NaiveGemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb,
                      want.data(), n, accumulate);
            kernels::Gemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb,
                          c.data(), n, accumulate);
            ExpectClose(c, want,
                        "m=" + std::to_string(m) + " n=" + std::to_string(n) +
                            " k=" + std::to_string(k) +
                            " ta=" + std::to_string(ta) +
                            " tb=" + std::to_string(tb) +
                            " acc=" + std::to_string(accumulate));
          }
        }
      }
    }
  }
}

TEST(Kernels, GemmHandlesLeadingDimensionSubViews) {
  // Multiply into / read from sub-blocks of wider buffers, the way the
  // fused GRU panels address one gate's columns.
  Rng rng(7);
  const std::int64_t m = 9, n = 5, k = 11;
  const std::int64_t lda = k + 4, ldb = n + 3, ldc = n + 6;
  auto a = RandomVec(static_cast<std::size_t>(m * lda), rng);
  auto b = RandomVec(static_cast<std::size_t>(k * ldb), rng);
  auto c = RandomVec(static_cast<std::size_t>(m * ldc), rng);
  auto want = c;
  NaiveGemm(false, false, m, n, k, a.data(), lda, b.data(), ldb, want.data(),
            ldc, false);
  kernels::Gemm(false, false, m, n, k, a.data(), lda, b.data(), ldb, c.data(),
                ldc, false);
  // Untouched gutter columns must be bit-identical; computed columns
  // match to tolerance.
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < ldc; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i * ldc + j);
      if (j < n) {
        EXPECT_NEAR(c[idx], want[idx], 1e-4F * (1.0F + std::fabs(want[idx])));
      } else {
        EXPECT_EQ(std::memcmp(&c[idx], &want[idx], sizeof(float)), 0)
            << "gutter column " << j << " was written";
      }
    }
  }
}

TEST(Kernels, GemmZeroKZeroFillsOrPreserves) {
  std::vector<float> c = {1.0F, 2.0F, 3.0F, 4.0F};
  kernels::Gemm(false, false, 2, 2, 0, nullptr, 1, nullptr, 2, c.data(), 2,
                /*accumulate=*/true);
  EXPECT_EQ(c[0], 1.0F);
  kernels::Gemm(false, false, 2, 2, 0, nullptr, 1, nullptr, 2, c.data(), 2,
                /*accumulate=*/false);
  for (float v : c) EXPECT_EQ(v, 0.0F);
}

// One GEMM call's operands: op(A) is m×k, op(B) k×n, every leading
// dimension padded by `pad`, C pre-filled (gutters included) with
// random values.
struct GemmCase {
  bool ta = false, tb = false, accumulate = false;
  std::int64_t m = 0, n = 0, k = 0, lda = 0, ldb = 0, ldc = 0;
  std::vector<float> a, b, c;

  GemmCase(bool ta_, bool tb_, bool acc, std::int64_t m_, std::int64_t n_,
           std::int64_t k_, std::int64_t pad, Rng& rng)
      : ta(ta_), tb(tb_), accumulate(acc), m(m_), n(n_), k(k_),
        lda((ta_ ? m_ : k_) + pad), ldb((tb_ ? k_ : n_) + pad),
        ldc(n_ + pad) {
    a = RandomVec(static_cast<std::size_t>((ta ? k : m) * lda), rng);
    b = RandomVec(static_cast<std::size_t>((tb ? n : k) * ldb), rng);
    c = RandomVec(static_cast<std::size_t>(m * ldc), rng);
  }
  float& A(std::int64_t i, std::int64_t p) {
    return ta ? a[static_cast<std::size_t>(p * lda + i)]
              : a[static_cast<std::size_t>(i * lda + p)];
  }
  float& B(std::int64_t p, std::int64_t j) {
    return tb ? b[static_cast<std::size_t>(j * ldb + p)]
              : b[static_cast<std::size_t>(p * ldb + j)];
  }
  std::vector<float> Run(kernels::Isa isa) const {
    std::vector<float> out = c;
    kernels::GemmWith(isa, ta, tb, m, n, k, a.data(), lda, b.data(), ldb,
                      out.data(), ldc, accumulate);
    return out;
  }
  std::string Name() const {
    return "m=" + std::to_string(m) + " n=" + std::to_string(n) +
           " k=" + std::to_string(k) + " ta=" + std::to_string(ta) +
           " tb=" + std::to_string(tb) + " acc=" + std::to_string(accumulate) +
           " ldc=" + std::to_string(ldc);
  }
};

// Every wider tier must write the SSE2 tier's bytes: the same operands
// and starting C, memcmp'd over the whole C buffer, so the gutters of a
// padded ldc must stay untouched too. Shapes straddle each tier's mr
// and nr, and kMc, kKc and kNc, in all four transpose forms,
// accumulating and overwriting.
TEST(Kernels, EveryTierWritesSse2BytesAcrossShapesAndForms) {
  const auto tiers = WideTiersOnThisHost(/*int8=*/false);
  const auto edges = testing::TileStraddleDims();
  const std::int64_t kc = kernels::kKc, nc = kernels::kNc;
  std::vector<std::array<std::int64_t, 3>> shapes;  // m, n, k
  for (std::int64_t m : edges) {
    for (std::int64_t n : edges) shapes.push_back({m, n, kc + 1});
  }
  for (std::int64_t k : {std::int64_t{1}, std::int64_t{2}, kc - 1, kc,
                         2 * kc + 5}) {
    shapes.push_back({37, 33, k});
    shapes.push_back({70, 17, k});
  }
  for (std::int64_t n : {nc - 1, nc + 1, 2 * nc + 3}) {
    shapes.push_back({9, n, 70});
    shapes.push_back({33, n, 3});
  }
  Rng rng(2024);
  for (const auto& [m, n, k] : shapes) {
    for (int form = 0; form < 4; ++form) {
      for (bool accumulate : {false, true}) {
        for (std::int64_t pad : {0, 5}) {
          const GemmCase g((form & 1) != 0, (form & 2) != 0, accumulate, m, n,
                           k, pad, rng);
          const auto want = g.Run(kernels::Isa::kSse2);
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = n; j < g.ldc; ++j) {
              const auto idx = static_cast<std::size_t>(i * g.ldc + j);
              ASSERT_EQ(std::memcmp(&want[idx], &g.c[idx], sizeof(float)), 0)
                  << "gutter written: " << g.Name();
            }
          }
          for (const auto isa : tiers) {
            const auto got = g.Run(isa);
            ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(float)),
                      0)
                << kernels::TierName(isa, false) << " " << g.Name();
          }
        }
      }
    }
  }
}

// NaN and ±Inf reach C through every tier as they do through SSE2: a
// NaN in A, an Inf in two columns of B (one per column, so no Inf − Inf
// meets the NaN), and NaN/Inf already in C when accumulating.
TEST(Kernels, EveryTierPropagatesNaNAndInfLikeSse2) {
  const auto tiers = WideTiersOnThisHost(/*int8=*/false);
  Rng rng(2025);
  const std::array<std::int64_t, 3> shapes[] = {
      {9, 33, 70}, {37, 70, kernels::kKc + 9}, {70, 17, 5}};
  for (const auto& [m, n, k] : shapes) {
    for (int form = 0; form < 4; ++form) {
      for (bool accumulate : {false, true}) {
        GemmCase g((form & 1) != 0, (form & 2) != 0, accumulate, m, n, k, 3,
                   rng);
        g.A(m - 2, k / 2) = kNaN;
        g.B(k - 1, 1) = kInf;
        g.B(0, n - 1) = -kInf;
        g.c[static_cast<std::size_t>(1 * g.ldc + 2)] = kNaN;
        g.c[static_cast<std::size_t>(3 * g.ldc + 4)] = kInf;
        const auto want = g.Run(kernels::Isa::kSse2);
        const auto at = [&](std::int64_t i, std::int64_t j) {
          return want[static_cast<std::size_t>(i * g.ldc + j)];
        };
        ASSERT_TRUE(std::isnan(at(m - 2, 0))) << g.Name();
        ASSERT_TRUE(std::isinf(at(0, 1))) << g.Name();
        ASSERT_TRUE(std::isinf(at(0, n - 1))) << g.Name();
        ASSERT_EQ(std::isnan(at(1, 2)), accumulate) << g.Name();
        for (const auto isa : tiers) {
          const auto got = g.Run(isa);
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(float)),
                    0)
              << kernels::TierName(isa, false) << " " << g.Name();
        }
      }
    }
  }
}

// Calls with m < kSmallM (B not transposed) read B in place instead of
// packing it; they must give the packed path's bits. Each row of an
// m-row call is compared with the same row of a 9-row call (packed
// path) over k crossing kKc, n crossing kNc, both A layouts, accumulate
// on and off, and padded leading dimensions whose gutters must stay
// untouched.
TEST(Kernels, SmallMGemmMatchesPackedRowsBitForBit) {
  Rng rng(77);
  constexpr std::int64_t kRows = 9;
  int cases = 0;
  for (std::int64_t k : {1, 7, 121, 300, 600}) {
    for (std::int64_t n : {1, 121, 363, 600}) {
      for (bool trans_a : {false, true}) {
        for (bool accumulate : {false, true}) {
          for (std::int64_t pad : {0, 3}) {
            const std::int64_t lda = (trans_a ? kRows : k) + pad;
            const std::int64_t ldb = n + pad, ldc = n + pad;
            const auto a = RandomVec(
                static_cast<std::size_t>((trans_a ? k : kRows) * lda), rng);
            const auto b = RandomVec(static_cast<std::size_t>(k * ldb), rng);
            const auto c0 =
                RandomVec(static_cast<std::size_t>(kRows * ldc), rng);
            auto packed = c0;
            kernels::Gemm(trans_a, false, kRows, n, k, a.data(), lda,
                          b.data(), ldb, packed.data(), ldc, accumulate);
            for (std::int64_t m : {1, 2, 3}) {
              for (std::int64_t r0 : {std::int64_t{0}, kRows - m}) {
                const float* a_rows =
                    trans_a ? a.data() + r0 : a.data() + r0 * lda;
                const auto span = static_cast<std::size_t>(m * ldc);
                std::vector<float> small(
                    c0.begin() + r0 * ldc,
                    c0.begin() + r0 * ldc + static_cast<std::ptrdiff_t>(span));
                kernels::Gemm(trans_a, false, m, n, k, a_rows, lda, b.data(),
                              ldb, small.data(), ldc, accumulate);
                ASSERT_EQ(std::memcmp(small.data(), packed.data() + r0 * ldc,
                                      span * sizeof(float)),
                          0)
                    << "m=" << m << " rows from " << r0 << " k=" << k
                    << " n=" << n << " ta=" << trans_a
                    << " acc=" << accumulate << " pad=" << pad;
                ++cases;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 960);
}

TEST(Kernels, SmallMGemmInt8MatchesPackedRowsBitForBit) {
  Rng rng(78);
  constexpr std::int64_t kRows = 9;
  const auto random_i8 = [&rng](std::size_t count) {
    std::vector<std::int8_t> out(count);
    for (auto& v : out) v = static_cast<std::int8_t>(rng.Int(-127, 127));
    return out;
  };
  int cases = 0;
  for (std::int64_t k : {1, 7, 121, 300, 600}) {
    for (std::int64_t n : {1, 121, 363, 600}) {
      for (bool accumulate : {false, true}) {
        for (std::int64_t pad : {0, 3}) {
          const std::int64_t lda = k + pad, ldb = n + pad, ldc = n + pad;
          const auto a = random_i8(static_cast<std::size_t>(kRows * lda));
          const auto b = random_i8(static_cast<std::size_t>(k * ldb));
          std::vector<std::int32_t> c0(static_cast<std::size_t>(kRows * ldc));
          for (auto& v : c0) {
            v = static_cast<std::int32_t>(rng.Int(-100000, 100000));
          }
          auto packed = c0;
          kernels::GemmInt8(kRows, n, k, a.data(), lda, b.data(), ldb,
                            packed.data(), ldc, accumulate);
          for (std::int64_t m : {1, 2, 3}) {
            for (std::int64_t r0 : {std::int64_t{0}, kRows - m}) {
              const auto span = static_cast<std::size_t>(m * ldc);
              std::vector<std::int32_t> small(
                  c0.begin() + r0 * ldc,
                  c0.begin() + r0 * ldc + static_cast<std::ptrdiff_t>(span));
              kernels::GemmInt8(m, n, k, a.data() + r0 * lda, lda, b.data(),
                                ldb, small.data(), ldc, accumulate);
              ASSERT_EQ(std::memcmp(small.data(), packed.data() + r0 * ldc,
                                    span * sizeof(std::int32_t)),
                        0)
                  << "m=" << m << " rows from " << r0 << " k=" << k
                  << " n=" << n << " acc=" << accumulate << " pad=" << pad;
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 480);
}

// Regression for the removed `if (av == 0.0F) continue;` fast paths: a
// NaN anywhere in the weights must poison the output even when the
// matching activation is exactly zero (0 · NaN = NaN, not 0). The old
// zero-skip silently masked non-finite parameters from the divergence
// guard.
TEST(Kernels, NaNWeightPoisonsMatMulFamilyDespiteZeroActivation) {
  Tensor zero({2, 3});                 // activations, all exactly 0
  Tensor w({3, 2});
  w.At(1, 0) = kNaN;

  Tensor y = MatMul(zero, w);
  EXPECT_TRUE(std::isnan(y.At(0, 0)));
  EXPECT_TRUE(std::isnan(y.At(1, 0)));

  Tensor acc({2, 2});
  MatMulAccum(zero, w, acc);
  EXPECT_TRUE(std::isnan(acc.At(0, 0)));

  // Aᵀ·B with the NaN in A and zeros in B.
  Tensor a_t({3, 2});
  a_t.At(2, 1) = kNaN;
  Tensor zero_b({3, 2});
  Tensor acc_t({2, 2});
  MatMulTransAAccum(a_t, zero_b, acc_t);
  EXPECT_TRUE(std::isnan(acc_t.At(1, 0)));
  EXPECT_TRUE(std::isnan(acc_t.At(1, 1)));
}

TEST(Kernels, NaNWeightPoisonsConv1DForwardDespiteZeroInput) {
  Rng rng(3);
  nn::Conv1D conv(4, 2, 3, rng);
  // Corrupt one weight at the center tap (valid for every t), then feed
  // an all-zero input: every output position must read NaN.
  for (auto& p : conv.Params()) {
    if (p.name == "conv1d.w") p.value->At(1, 2, 0) = kNaN;
  }
  Tensor x({2, 5, 4});                 // zeros
  Tensor y = conv.Forward(x, true);
  for (std::int64_t i = 0; i < y.dim(0); ++i) {
    for (std::int64_t t = 0; t < y.dim(1); ++t) {
      EXPECT_TRUE(std::isnan(y.At(i, t, 0))) << "i=" << i << " t=" << t;
      EXPECT_FALSE(std::isnan(y.At(i, t, 1))) << "untouched filter";
    }
  }
}

// The PR-2 contract, driven through the new GEMM-backed layers: one
// forward+backward pass must be byte-identical whether the pool runs 1
// or 4 threads.
template <typename MakeLayer>
void ExpectLayerBitIdenticalAcrossThreads(MakeLayer make, const Tensor& x) {
  std::vector<std::vector<float>> ys, dxs, grads;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SetThreads(threads);
    auto layer = make();
    Tensor y = layer->Forward(x, true);
    Tensor dy = y;                     // any deterministic upstream grad
    Tensor dx = layer->Backward(dy);
    ys.push_back({y.data().begin(), y.data().end()});
    dxs.push_back({dx.data().begin(), dx.data().end()});
    std::vector<float> g;
    for (auto& p : layer->Params()) {
      g.insert(g.end(), p.grad->data().begin(), p.grad->data().end());
    }
    grads.push_back(std::move(g));
  }
  SetThreads(0);
  ASSERT_EQ(ys[0].size(), ys[1].size());
  EXPECT_EQ(std::memcmp(ys[0].data(), ys[1].data(),
                        ys[0].size() * sizeof(float)),
            0)
      << "forward differs across thread counts";
  EXPECT_EQ(std::memcmp(dxs[0].data(), dxs[1].data(),
                        dxs[0].size() * sizeof(float)),
            0)
      << "input gradient differs across thread counts";
  ASSERT_EQ(grads[0].size(), grads[1].size());
  EXPECT_EQ(std::memcmp(grads[0].data(), grads[1].data(),
                        grads[0].size() * sizeof(float)),
            0)
      << "parameter gradients differ across thread counts";
}

TEST(Kernels, Conv1DBitIdenticalForOneVsFourThreads) {
  Rng data_rng(11);
  const Tensor x = Tensor::RandomNormal({6, 9, 5}, data_rng, 0, 1);
  ExpectLayerBitIdenticalAcrossThreads(
      [] {
        Rng rng(21);
        return std::make_unique<nn::Conv1D>(5, 7, 4, rng);
      },
      x);
}

TEST(Kernels, GruBitIdenticalForOneVsFourThreads) {
  Rng data_rng(13);
  const Tensor x = Tensor::RandomNormal({5, 6, 8}, data_rng, 0, 1);
  ExpectLayerBitIdenticalAcrossThreads(
      [] {
        Rng rng(23);
        return std::make_unique<nn::Gru>(8, 10, rng);
      },
      x);
}

// ---- tanh --------------------------------------------------------------

std::uint32_t BitsOf(float x) { return std::bit_cast<std::uint32_t>(x); }
float FloatOf(std::uint32_t u) { return std::bit_cast<float>(u); }

// The tanh tiers this host runs, printed as the GEMM tests print theirs.
std::vector<kernels::Isa> TanhTiersOnThisHost() {
  const auto tiers = kernels::SupportedIsas(/*int8=*/false);
  std::string names;
  for (const auto isa : tiers) names += " [" + TanhTierName(isa) + "]";
  std::printf("tanh tiers run:%s\n", names.c_str());
  return tiers;
}

// Every tier on xs must write the scalar port's bytes; a NaN input
// must give NaN (its payload is not compared).
void ExpectTanhTiersWritePortBytes(const std::vector<kernels::Isa>& tiers,
                                   const std::vector<float>& xs) {
  const auto n = static_cast<std::int64_t>(xs.size());
  std::vector<float> got(xs.size());
  for (const auto isa : tiers) {
    kernels::TanhWith(isa, xs.data(), got.data(), n);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const float want = kernels::Tanh(xs[i]);
      if (std::isnan(xs[i])) {
        ASSERT_TRUE(std::isnan(want)) << std::hexfloat << xs[i];
        ASSERT_TRUE(std::isnan(got[i]))
            << TanhTierName(isa) << " " << std::hexfloat << xs[i];
        continue;
      }
      ASSERT_EQ(BitsOf(got[i]), BitsOf(want))
          << TanhTierName(isa) << " x=" << std::hexfloat << xs[i] << " got "
          << got[i] << " want " << want;
    }
  }
}

// Distance in representable floats between two non-NaN values.
std::int64_t UlpDistance(float a, float b) {
  const auto ordered = [](float f) {
    const auto i = static_cast<std::int64_t>(std::bit_cast<std::int32_t>(f));
    return i < 0 ? std::int64_t{INT32_MIN} - i : i;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

// Every stride-th bit pattern of all 2^32, in chunks: every tier must
// write the port's bytes, and the port must stay within 2 ulp of
// std::tanh. The port is the algorithm glibc's tanhf runs, so glibc
// 2.36 reads 0 ulp; the bound only admits a libm that rounds
// differently.
void SweepTanhBitPatterns(std::uint64_t stride) {
  const auto tiers = TanhTiersOnThisHost();
  constexpr std::size_t kChunk = 1 << 16;
  constexpr std::uint64_t kEnd = std::uint64_t{1} << 32;
  std::vector<float> xs;
  xs.reserve(kChunk);
  std::int64_t worst_ulp = 0;
  for (std::uint64_t u = 0; u < kEnd; u += stride) {
    xs.push_back(FloatOf(static_cast<std::uint32_t>(u)));
    if (xs.size() == kChunk || u + stride >= kEnd) {
      ExpectTanhTiersWritePortBytes(tiers, xs);
      if (::testing::Test::HasFatalFailure()) return;
      for (const float x : xs) {
        if (std::isnan(x)) continue;
        worst_ulp = std::max(
            worst_ulp, UlpDistance(kernels::Tanh(x), std::tanh(x)));
      }
      xs.clear();
    }
  }
  std::printf("tanh port vs std::tanh: worst %lld ulp\n",
              static_cast<long long>(worst_ulp));
  EXPECT_LE(worst_ulp, 2);
}

// Every 257th bit pattern (about 2^24 values: every exponent and sign,
// with varied low mantissa bits), well under a second.
TEST(KernelsTanh, EveryTierWritesPortBytesOnStridedSweep) {
  SweepTanhBitPatterns(257);
}

// All 2^32 floats, about 3.5 minutes on one core, so out of the default
// run: kernels_test --gtest_also_run_disabled_tests
//   --gtest_filter='KernelsTanh.DISABLED_*'
TEST(KernelsTanh, DISABLED_EveryTierWritesPortBytesOnAllFloats) {
  SweepTanhBitPatterns(1);
}

// ±64 floats around every branch edge of the port, both signs: tanhf's
// 2^-55, 1 and 22, and expm1f's, at half the argument tanhf passes it:
// 2^-25, 0.5·ln2 and 1.5·ln2 (reduction), 27·ln2 (its large-argument
// filter), and where k = trunc(x/ln2 ± 0.5) crosses −2/−3, 22/23 and
// 56/57.
TEST(KernelsTanh, EveryTierWritesPortBytesAtBranchEdges) {
  const auto tiers = TanhTiersOnThisHost();
  const float ln2 = 0.693147180559945F;
  const float edges[] = {0x1p-55F,      0.5F * 0x1p-25F,    0.25F * ln2,
                         0.75F * ln2,   1.0F,               1.25F * ln2,
                         11.25F * ln2,  13.5F * ln2,        28.25F * ln2,
                         22.0F,         0.5F * FloatOf(0x3eb17218U),
                         0.5F * FloatOf(0x3f851592U),
                         0.5F * FloatOf(0x4195b844U)};
  std::vector<float> xs;
  for (const float edge : edges) {
    for (std::int32_t d = -64; d <= 64; ++d) {
      const float x = FloatOf(BitsOf(edge) + static_cast<std::uint32_t>(d));
      xs.push_back(x);
      xs.push_back(-x);
    }
  }
  ExpectTanhTiersWritePortBytes(tiers, xs);
}

TEST(KernelsTanh, EveryTierKeepsSignedZerosSubnormalsInfinitiesAndNaN) {
  const auto tiers = TanhTiersOnThisHost();
  const float denorm_min = std::numeric_limits<float>::denorm_min();
  const float norm_min = std::numeric_limits<float>::min();
  std::vector<float> xs = {0.0F,       -0.0F,     denorm_min, -denorm_min,
                           FloatOf(0x00400000U),  FloatOf(0x807fffffU),
                           norm_min,   -norm_min, kInf,       -kInf,
                           kNaN,       -kNaN,     FloatOf(0x7f800001U),
                           FloatOf(0xffc00123U),  22.0F,      -1e30F};
  ExpectTanhTiersWritePortBytes(tiers, xs);
  // What those bytes are: tanh keeps ±0 and subnormals, saturates at ±1.
  for (const float x : {0.0F, -0.0F, denorm_min, -denorm_min, norm_min}) {
    EXPECT_EQ(BitsOf(kernels::Tanh(x)), BitsOf(x)) << std::hexfloat << x;
  }
  EXPECT_EQ(kernels::Tanh(kInf), 1.0F);
  EXPECT_EQ(kernels::Tanh(-kInf), -1.0F);
  EXPECT_EQ(kernels::Tanh(22.0F), 1.0F);
  EXPECT_TRUE(std::isnan(kernels::Tanh(kNaN)));
}

// Lengths 1–33 cover a masked tail after 0, 1 and 2 full vectors. Input
// and output start one float into their buffers (unaligned), the
// floats after y[n) must stay untouched, and y may alias x.
TEST(KernelsTanh, EveryTierHandlesEveryLengthAndInPlace) {
  const auto tiers = TanhTiersOnThisHost();
  Rng rng(31);
  const auto src = RandomVec(34, rng);
  constexpr float kGuard = 12345.0F;
  for (const auto isa : tiers) {
    for (std::int64_t n = 1; n <= 33; ++n) {
      const auto un = static_cast<std::size_t>(n);
      std::vector<float> x_buf(src.begin(), src.begin() + 1 + n);
      std::vector<float> y_buf(un + 9, kGuard);
      float* x = x_buf.data() + 1;
      float* y = y_buf.data() + 1;
      kernels::TanhWith(isa, x, y, n);
      for (std::size_t i = 0; i < un; ++i) {
        ASSERT_EQ(BitsOf(y[i]), BitsOf(kernels::Tanh(x[i])))
            << TanhTierName(isa) << " n=" << n << " i=" << i;
      }
      ASSERT_EQ(y_buf[0], kGuard) << TanhTierName(isa) << " wrote before y";
      for (std::size_t i = un; i < un + 8; ++i) {
        ASSERT_EQ(y[i], kGuard) << TanhTierName(isa) << " wrote past n=" << n;
      }
      kernels::TanhWith(isa, x, x, n);
      ASSERT_EQ(std::memcmp(x, y, un * sizeof(float)), 0)
          << TanhTierName(isa) << " in place, n=" << n;
    }
  }
}

TEST(Workspace, AllocationsAre64ByteAligned) {
  Workspace::Scope scope;
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    float* p = Workspace::Tls().Alloc(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
    p[0] = 1.0F;
    p[n - 1] = 2.0F;                   // touch both ends
  }
}

TEST(Workspace, ScopeReleaseReusesMemory) {
  float* first = nullptr;
  {
    Workspace::Scope scope;
    first = Workspace::Tls().Alloc(256);
  }
  Workspace::Scope scope;
  float* again = Workspace::Tls().Alloc(256);
  // Same arena position after release — steady state allocates nothing.
  EXPECT_EQ(first, again);
}

TEST(Workspace, PointersStableWhileArenaGrows) {
  Workspace::Scope scope;
  float* small = Workspace::Tls().Alloc(32);
  small[0] = 42.0F;
  // Force new backing blocks; the old allocation must not move.
  for (int i = 0; i < 4; ++i) {
    float* big = Workspace::Tls().Alloc(1u << 18);
    big[0] = static_cast<float>(i);
  }
  EXPECT_EQ(small[0], 42.0F);
}

TEST(Workspace, NestedScopesReleaseInOrder) {
  Workspace::Scope outer;
  float* a = Workspace::Tls().Alloc(64);
  a[0] = 1.0F;
  float* b = nullptr;
  {
    Workspace::Scope inner;
    b = Workspace::Tls().Alloc(64);
    EXPECT_NE(a, b);
  }
  // Inner scope released; its slot is reusable, the outer one is not.
  float* c = Workspace::Tls().Alloc(64);
  EXPECT_EQ(b, c);
  EXPECT_EQ(a[0], 1.0F);
}


// kernels::MaxAbsBits keeps 16 lanes and reduces them at the end. An
// integer max is exact in any order, so it must equal the one-chain
// scan on every input: ±0, subnormals, ±inf and NaN payloads of both
// signs, at each position, at every length from 0 to 40 (short of,
// at, and past one and two lane widths).
TEST(KernelsMaxAbsBits, EqualsOneChainScan) {
  const auto one_chain = [](const std::vector<float>& v) {
    std::int32_t m = 0;
    for (const float x : v) {
      m = std::max(m, std::bit_cast<std::int32_t>(x) & 0x7fffffff);
    }
    return m;
  };
  const float specials[] = {0.0F,
                            -0.0F,
                            std::numeric_limits<float>::denorm_min(),
                            -1e-40F,
                            std::numeric_limits<float>::min(),
                            -std::numeric_limits<float>::max(),
                            kInf,
                            -kInf,
                            kNaN,
                            FloatOf(0x7fc12345U),
                            FloatOf(0xffa00001U),
                            FloatOf(0x7f800001U)};
  constexpr auto kSpecials = static_cast<std::int64_t>(std::size(specials));
  Rng rng(58);
  for (std::int64_t n = 0; n <= 40; ++n) {
    std::vector<float> v(static_cast<std::size_t>(n));
    for (float& x : v) x = static_cast<float>(rng.Normal(0, 1));
    EXPECT_EQ(kernels::MaxAbsBits(v.data(), n), one_chain(v)) << "n=" << n;
    for (std::size_t pos = 0; pos < v.size(); ++pos) {
      for (const float special : specials) {
        std::vector<float> w = v;
        w[pos] = special;
        EXPECT_EQ(kernels::MaxAbsBits(w.data(), n), one_chain(w))
            << "n=" << n << " pos=" << pos << " bits " << BitsOf(special);
      }
    }
    // Only specials: NaN payloads, infinities and zeros compete.
    for (float& x : v) x = specials[rng.Int(0, kSpecials - 1)];
    EXPECT_EQ(kernels::MaxAbsBits(v.data(), n), one_chain(v)) << "n=" << n;
  }
}

}  // namespace
}  // namespace pelican
