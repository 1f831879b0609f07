// Tests for the post-training int8 quantization stack: randomized
// equivalence of the blocked int8 GEMM against an exact int32
// reference (odd tails, odd k for the pmaddwd pairing, accumulate),
// thread-count and ISA-tier bit-identity (integer accumulation is
// exact, so this is memcmp not tolerance), quantize→dequantize
// round-trip bounds, the
// `.quant` sidecar's CRC armor, and the end-to-end accuracy contract:
// int8 ACC within 0.5% of fp32 on both synthetic datasets, with
// quantized predictions bit-identical for any thread count.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pelican_ids.h"
#include "data/nslkdd.h"
#include "data/unsw_nb15.h"
#include "kernel_tiers.h"
#include "quant/quant_io.h"
#include "quant/quantize.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace pelican {
namespace {

namespace fs = std::filesystem;

std::string MakeTempDir(const std::string& tag) {
  const auto dir = fs::path(::testing::TempDir()) / ("pelican_quant_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// Exact serial reference for kernels::GemmInt8 — int32 arithmetic, so
// equality against the blocked kernel is EXPECT_EQ, not a tolerance.
void NaiveGemmInt8(std::int64_t m, std::int64_t n, std::int64_t k,
                   const std::int8_t* a, std::int64_t lda,
                   const std::int8_t* b, std::int64_t ldb, std::int32_t* c,
                   std::int64_t ldc, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t acc = accumulate ? c[i * ldc + j] : 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(a[i * lda + p]) *
               static_cast<std::int32_t>(b[p * ldb + j]);
      }
      c[i * ldc + j] = acc;
    }
  }
}

std::vector<std::int8_t> RandomInt8(std::size_t count, Rng& rng) {
  std::vector<std::int8_t> out(count);
  for (auto& v : out) {
    v = static_cast<std::int8_t>(rng.Int(-127, 127));
  }
  return out;
}

// RAII thread-count override (kernels parallelize over row blocks).
struct ThreadGuard {
  explicit ThreadGuard(std::size_t n) { SetThreads(n); }
  ~ThreadGuard() { SetThreads(0); }
};

// ---- int8 GEMM vs reference ------------------------------------------------

TEST(QuantKernels, Int8GemmMatchesReferenceAcrossShapeTails) {
  Rng rng(4321);
  // Sub-sliver, sliver±1, block-boundary±1 shapes; odd k values stress
  // the pmaddwd k-pairing (k=1 and every k%2==1 tail path).
  const std::vector<std::int64_t> dims = testing::TileEdgeDims();
  const std::int64_t ks[] = {1, 2, 3, kernels::kKc - 1, kernels::kKc + 1, 70};
  for (std::int64_t m : dims) {
    for (std::int64_t n : dims) {
      for (std::int64_t k : ks) {
        for (bool accumulate : {false, true}) {
          const auto a = RandomInt8(static_cast<std::size_t>(m * k), rng);
          const auto b = RandomInt8(static_cast<std::size_t>(k * n), rng);
          std::vector<std::int32_t> got(static_cast<std::size_t>(m * n), 7);
          std::vector<std::int32_t> want = got;
          kernels::GemmInt8(m, n, k, a.data(), k, b.data(), n, got.data(), n,
                            accumulate);
          NaiveGemmInt8(m, n, k, a.data(), k, b.data(), n, want.data(), n,
                        accumulate);
          ASSERT_EQ(got, want) << "m=" << m << " n=" << n << " k=" << k
                               << " accumulate=" << accumulate;
        }
      }
    }
  }
}

TEST(QuantKernels, Int8GemmRespectsLeadingDimensionGutters) {
  Rng rng(99);
  const std::int64_t m = 9, n = 11, k = 37, ldc = 16;
  const auto a = RandomInt8(static_cast<std::size_t>(m * k), rng);
  const auto b = RandomInt8(static_cast<std::size_t>(k * n), rng);
  std::vector<std::int32_t> c(static_cast<std::size_t>(m * ldc), -5);
  std::vector<std::int32_t> want = c;
  kernels::GemmInt8(m, n, k, a.data(), k, b.data(), n, c.data(), ldc, false);
  NaiveGemmInt8(m, n, k, a.data(), k, b.data(), n, want.data(), ldc, false);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < ldc; ++j) {
      const auto idx = static_cast<std::size_t>(i * ldc + j);
      if (j < n) {
        ASSERT_EQ(c[idx], want[idx]);
      } else {
        ASSERT_EQ(c[idx], -5) << "gutter column " << j << " was written";
      }
    }
  }
}

// Every wider int8 tier must write the SSE2 tier's bytes over the whole
// C buffer (padded gutters stay untouched), for shapes straddling each
// tier's mr and nr, and kMc, kKc and kNc, odd and even k, accumulating
// and overwriting, with operands spanning the full int8 range.
TEST(QuantKernels, EveryInt8TierWritesSse2Bytes) {
  const auto tiers = testing::WideTiersOnThisHost(/*int8=*/true);
  const auto edges = testing::TileStraddleDims();
  const std::int64_t kc = kernels::kKc, nc = kernels::kNc;
  std::vector<std::array<std::int64_t, 3>> shapes;  // m, n, k
  for (std::int64_t m : edges) {
    for (std::int64_t n : edges) shapes.push_back({m, n, kc + 3});
  }
  for (std::int64_t k : {std::int64_t{1}, std::int64_t{2}, std::int64_t{3},
                         kc - 1, kc, 2 * kc + 5}) {
    shapes.push_back({37, 33, k});
    shapes.push_back({70, 17, k});
  }
  for (std::int64_t n : {nc - 1, nc + 1, 2 * nc + 3}) {
    shapes.push_back({9, n, 70});
    shapes.push_back({33, n, 3});
  }
  Rng rng(2026);
  const auto full_range = [&rng](std::size_t count) {
    std::vector<std::int8_t> out(count);
    for (auto& v : out) v = static_cast<std::int8_t>(rng.Int(-128, 127));
    return out;
  };
  for (const auto& [m, n, k] : shapes) {
    for (bool accumulate : {false, true}) {
      for (std::int64_t pad : {0, 5}) {
        const std::int64_t lda = k + pad, ldb = n + pad, ldc = n + pad;
        const auto a = full_range(static_cast<std::size_t>(m * lda));
        const auto b = full_range(static_cast<std::size_t>(k * ldb));
        std::vector<std::int32_t> c0(static_cast<std::size_t>(m * ldc));
        for (auto& v : c0) {
          v = static_cast<std::int32_t>(rng.Int(-100000, 100000));
        }
        const auto run = [&](kernels::Isa isa) {
          std::vector<std::int32_t> c = c0;
          kernels::GemmInt8With(isa, m, n, k, a.data(), lda, b.data(), ldb,
                                c.data(), ldc, accumulate);
          return c;
        };
        const auto want = run(kernels::Isa::kSse2);
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = n; j < ldc; ++j) {
            const auto idx = static_cast<std::size_t>(i * ldc + j);
            ASSERT_EQ(want[idx], c0[idx]) << "gutter written";
          }
        }
        for (const auto isa : tiers) {
          ASSERT_EQ(run(isa), want)
              << kernels::TierName(isa, true) << " m=" << m << " n=" << n
              << " k=" << k << " acc=" << accumulate << " pad=" << pad;
        }
      }
    }
  }
}

TEST(QuantKernels, Int8GemmBitIdenticalForOneVsFourThreads) {
  Rng rng(777);
  const std::int64_t m = kernels::kMc + 5, n = 65, k = 131;
  const auto a = RandomInt8(static_cast<std::size_t>(m * k), rng);
  const auto b = RandomInt8(static_cast<std::size_t>(k * n), rng);
  std::vector<std::vector<std::int32_t>> results;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadGuard guard(threads);
    std::vector<std::int32_t> c(static_cast<std::size_t>(m * n), 0);
    kernels::GemmInt8(m, n, k, a.data(), k, b.data(), n, c.data(), n, false);
    results.push_back(std::move(c));
  }
  // Integer accumulation is exact — equality, not tolerance.
  EXPECT_EQ(results[0], results[1]);
}

// ---- quantize / dequantize bounds ------------------------------------------

TEST(Quantize, PerChannelRoundTripWithinHalfScale) {
  Rng rng(31);
  const std::int64_t k = 23, n = 17;
  Tensor w = Tensor::RandomNormal({k, n}, rng, 0, 2.0);
  quant::LinearQuant q;
  q.name = "test.w";
  quant::QuantizeWeightsPerChannel(q, w.data().data(), k, n);
  ASSERT_EQ(q.k, k);
  ASSERT_EQ(q.n, n);
  ASSERT_EQ(q.scales.size(), static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    ASSERT_GT(q.scales[j], 0.0F);
    for (std::int64_t i = 0; i < k; ++i) {
      const float original = w.data()[i * n + j];
      const float restored =
          static_cast<float>(q.data[static_cast<std::size_t>(i * n + j)]) *
          q.scales[j];
      // Round-to-nearest: at most half a quantization step of error.
      EXPECT_LE(std::fabs(restored - original), 0.5F * q.scales[j] + 1e-7F)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(Quantize, SaturatesAndIgnoresNonFiniteInObserver) {
  const float inv_scale = 127.0F;  // scale 1/127 → anything >1 saturates
  const float xs[] = {2.0F, -2.0F, 0.5F};
  std::int8_t out[3] = {};
  quant::QuantizeSymmetric(xs, 3, inv_scale, out);
  EXPECT_EQ(out[0], 127);
  EXPECT_EQ(out[1], -127);
  EXPECT_EQ(out[2], 64);  // round(0.5·127) = round(63.5) = 64

  quant::Observer obs;
  const float poisoned[] = {1.0F, std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(), -3.0F};
  obs.Observe(poisoned, 4);
  EXPECT_TRUE(obs.Seen());
  EXPECT_FLOAT_EQ(obs.max_abs(), 3.0F);
}

TEST(Quantize, MatMulMatchesDequantizedReference) {
  Rng rng(55);
  const std::int64_t m = 7, k = 29, n = 13;
  Tensor w = Tensor::RandomNormal({k, n}, rng, 0, 1.0);
  Tensor x = Tensor::RandomNormal({m, k}, rng, 0, 1.0);
  quant::LinearQuant q;
  q.name = "test.w";
  quant::QuantizeWeightsPerChannel(q, w.data().data(), k, n);
  q.observer.Observe(x.data().data(), m * k);
  quant::FreezeActivationScale(q);
  ASSERT_TRUE(q.Ready());

  Tensor y({m, n});
  quant::QuantizedMatMul(x.data().data(), m, k, q, 0, y.data().data(), n);

  // Reference: quantize x the same way, exact integer dot, dequant.
  std::vector<std::int8_t> xq(static_cast<std::size_t>(m * k));
  quant::QuantizeSymmetric(x.data().data(), m * k, 1.0F / q.act_scale,
                           xq.data());
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<std::int32_t>(xq[i * k + p]) *
               static_cast<std::int32_t>(q.data[p * n + j]);
      }
      const float want = q.act_scale * q.scales[j] * static_cast<float>(acc);
      EXPECT_FLOAT_EQ(y.At(i, j), want) << "(" << i << "," << j << ")";
    }
  }
}

// ---- .quant sidecar --------------------------------------------------------

quant::LinearQuant MakeReadyOp(const std::string& name, std::int64_t k,
                               std::int64_t n, Rng& rng) {
  Tensor w = Tensor::RandomNormal({k, n}, rng, 0, 1.0);
  quant::LinearQuant q;
  q.name = name;
  quant::QuantizeWeightsPerChannel(q, w.data().data(), k, n);
  Tensor x = Tensor::RandomNormal({4, k}, rng, 0, 1.0);
  q.observer.Observe(x.data().data(), 4 * k);
  quant::FreezeActivationScale(q);
  return q;
}

TEST(QuantSidecar, RoundTripRestoresEveryField) {
  const auto dir = MakeTempDir("sidecar");
  Rng rng(8);
  auto op0 = MakeReadyOp("conv1d.w", 15, 9, rng);
  auto op1 = MakeReadyOp("gru.w_zrh", 6, 24, rng);
  const auto path = dir + "/m.quant";
  quant::SaveQuantSidecar(path, {&op0, &op1});

  quant::LinearQuant in0, in1;
  in0.name = "conv1d.w";
  in1.name = "gru.w_zrh";
  quant::LoadQuantSidecar(path, {&in0, &in1});
  EXPECT_EQ(in0.data, op0.data);
  EXPECT_EQ(in0.scales, op0.scales);
  EXPECT_FLOAT_EQ(in0.act_scale, op0.act_scale);
  EXPECT_EQ(in1.k, op1.k);
  EXPECT_EQ(in1.n, op1.n);
  EXPECT_EQ(in1.data, op1.data);
  EXPECT_TRUE(in0.Ready());
  EXPECT_TRUE(in1.Ready());
}

TEST(QuantSidecar, BitFlipsAndTruncationRejected) {
  const auto dir = MakeTempDir("sidecar_corrupt");
  Rng rng(9);
  auto op = MakeReadyOp("dense.w", 11, 5, rng);
  const auto clean = dir + "/m.quant";
  quant::SaveQuantSidecar(clean, {&op});
  const auto size = fs::file_size(clean);

  // Magic byte, header, payload spread, CRC footer.
  for (const std::size_t off :
       {std::size_t{0}, std::size_t{6}, size / 3, size / 2, size - 1}) {
    const auto corrupt = dir + "/m_flip.quant";
    fs::copy_file(clean, corrupt, fs::copy_options::overwrite_existing);
    common::CorruptFile(corrupt, {.flip_offset = off, .flip_mask = 0x20});
    quant::LinearQuant in;
    in.name = "dense.w";
    EXPECT_THROW(quant::LoadQuantSidecar(corrupt, {&in}), CheckError)
        << "bit flip at offset " << off << " was not rejected";
  }
  for (const std::size_t keep : {std::size_t{3}, size / 2, size - 1}) {
    const auto truncated = dir + "/m_trunc.quant";
    fs::copy_file(clean, truncated, fs::copy_options::overwrite_existing);
    fs::resize_file(truncated, keep);
    quant::LinearQuant in;
    in.name = "dense.w";
    EXPECT_THROW(quant::LoadQuantSidecar(truncated, {&in}), CheckError)
        << "truncation to " << keep << " bytes was not rejected";
  }
  // Name mismatch against the network's ops is a load error too.
  quant::LinearQuant wrong;
  wrong.name = "not_dense.w";
  EXPECT_THROW(quant::LoadQuantSidecar(clean, {&wrong}), CheckError);
}

// ---- end-to-end accuracy + determinism -------------------------------------

core::IdsConfig SmallConfig() {
  core::IdsConfig config;
  config.n_blocks = 2;
  config.channels = 12;
  config.train.epochs = 6;
  config.train.batch_size = 32;
  return config;
}

// Shared harness: train on `train`, evaluate fp32 vs int8 on `test`,
// assert the quantization accuracy contract (≤ 0.5% ACC delta).
void ExpectQuantizedAccuracyClose(const data::RawDataset& train_set,
                                  const data::RawDataset& test_set) {
  core::PelicanIds ids(train_set.schema(), SmallConfig());
  ids.Train(train_set);
  ASSERT_TRUE(ids.HasQuantizedParameters());

  const auto fp32 = ids.Evaluate(test_set);
  ids.EnableQuantized(true);
  EXPECT_TRUE(ids.quantized());
  const auto int8 = ids.Evaluate(test_set);
  EXPECT_LE(std::fabs(int8.accuracy - fp32.accuracy), 0.005F)
      << "fp32 ACC " << fp32.accuracy << " vs int8 ACC " << int8.accuracy;

  // Disabling routes back to the exact fp32 path.
  ids.EnableQuantized(false);
  const auto fp32_again = ids.Evaluate(test_set);
  EXPECT_FLOAT_EQ(fp32.accuracy, fp32_again.accuracy);
  EXPECT_FLOAT_EQ(fp32.loss, fp32_again.loss);
}

TEST(QuantEndToEnd, AccuracyWithinHalfPercentOnNslKdd) {
  Rng rng(21);
  const auto train_set = data::GenerateNslKdd(500, rng);
  const auto test_set = data::GenerateNslKdd(200, rng);
  ExpectQuantizedAccuracyClose(train_set, test_set);
}

TEST(QuantEndToEnd, AccuracyWithinHalfPercentOnUnswNb15) {
  Rng rng(22);
  const auto train_set = data::GenerateUnswNb15(500, rng);
  const auto test_set = data::GenerateUnswNb15(200, rng);
  ExpectQuantizedAccuracyClose(train_set, test_set);
}

TEST(QuantEndToEnd, QuantizedPredictionsBitIdenticalAcrossThreadCounts) {
  Rng rng(23);
  const auto train_set = data::GenerateNslKdd(400, rng);
  const auto test_set = data::GenerateNslKdd(120, rng);
  core::PelicanIds ids(train_set.schema(), SmallConfig());
  ids.Train(train_set);
  ids.EnableQuantized(true);

  std::vector<std::vector<core::PelicanIds::Verdict>> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadGuard guard(threads);
    runs.push_back(ids.InspectAll(test_set));
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    EXPECT_EQ(runs[0][i].label, runs[1][i].label) << "record " << i;
    // Bit-identical, not merely close: the int8 GEMM accumulates in
    // exact int32 and the fp32 epilogue work is row-independent.
    EXPECT_EQ(std::memcmp(&runs[0][i].confidence, &runs[1][i].confidence,
                          sizeof(float)),
              0)
        << "record " << i;
  }
}

TEST(QuantEndToEnd, SaveLoadRoundTripPreservesQuantizedPredictions) {
  const auto dir = MakeTempDir("roundtrip");
  Rng rng(24);
  const auto train_set = data::GenerateNslKdd(400, rng);
  const auto test_set = data::GenerateNslKdd(120, rng);
  core::PelicanIds ids(train_set.schema(), SmallConfig());
  ids.Train(train_set);
  const auto path = dir + "/model.bin";
  ids.Save(path);
  ASSERT_TRUE(fs::exists(path + ".quant"));

  core::PelicanIds restored(train_set.schema(), SmallConfig());
  restored.Load(path);
  ASSERT_TRUE(restored.HasQuantizedParameters());
  ids.EnableQuantized(true);
  restored.EnableQuantized(true);
  const auto want = ids.InspectAll(test_set);
  const auto got = restored.InspectAll(test_set);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].label, want[i].label);
    EXPECT_FLOAT_EQ(got[i].confidence, want[i].confidence);
  }

  // A corrupted sidecar must fail the load loudly, not quantize wrong.
  common::CorruptFile(path + ".quant",
                      {.flip_offset = fs::file_size(path + ".quant") / 2,
                       .flip_mask = 0x01});
  core::PelicanIds corrupted(train_set.schema(), SmallConfig());
  EXPECT_THROW(corrupted.Load(path), CheckError);
}

TEST(QuantEndToEnd, QuantizeBackfillsLegacyModelWithoutSidecar) {
  const auto dir = MakeTempDir("backfill");
  Rng rng(25);
  const auto train_set = data::GenerateNslKdd(400, rng);
  core::PelicanIds ids(train_set.schema(), SmallConfig());
  ids.Train(train_set);
  const auto path = dir + "/model.bin";
  ids.Save(path);
  fs::remove(path + ".quant");  // pretend the model predates int8

  core::PelicanIds loaded(train_set.schema(), SmallConfig());
  loaded.Load(path);
  EXPECT_FALSE(loaded.HasQuantizedParameters());
  EXPECT_THROW(loaded.EnableQuantized(true), CheckError);
  loaded.Quantize(train_set);
  EXPECT_TRUE(loaded.HasQuantizedParameters());
  loaded.EnableQuantized(true);
  const auto eval = loaded.Evaluate(train_set);
  EXPECT_GT(eval.accuracy, 0.7F);
}

}  // namespace
}  // namespace pelican
