// Kernel throughput tracker: times the blocked SGEMM and the GEMM-backed
// Conv1D/GRU layers against the pre-PR scalar reference loops (preserved
// here verbatim), at 1/2/4 threads, and writes the results to
// BENCH_kernels.json so the repo's perf trajectory is machine-readable.
// GRU and LSTM forward are also timed side by side at one shape: the
// paper picks the GRU over the LSTM for its compute cost.
// Every row names the GEMM tier that ran; the GEMM shapes are timed on
// each tier this host runs (fp32 and int8) at 1 thread, and on the
// dispatched tier at every thread count; quant::QuantizedMatMul (the
// int8 GEMM with its quantize and dequantize ends) on each int8 tier at
// the paper-width GRU and Conv1D shapes; the batch-1 (small-m) GEMMs
// and kernels::MaxAbsBits on each tier. kernels::Tanh is timed on each
// tier against a std::tanh loop, and the CRC32 that seals and checks
// every file on each of its tiers.
//
//   kernels_bench [--smoke] [--json=PATH] [--git=REV]
//
// --smoke shrinks shapes and timing budgets so the ctest target stays
// fast; the full run measures the ISSUE-3 acceptance shapes (GEMM
// m=64 k=196 n=192 and Conv1D forward at the bench-default widths).
// The JSON's manifest names the host, the build, the tiers dispatched
// and the commit given as --git (e.g. `git describe --always --dirty`).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "harness.h"
#include "nn/conv1d.h"
#include "nn/gru.h"
#include "nn/lstm.h"
#include "quant/quantize.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace {

using namespace pelican;

// ---- pre-PR scalar reference paths ----------------------------------------
// Copies of the ISSUE-3 seed implementations (tensor/ops.cpp ikj loop,
// nn/conv1d.cpp triple loop), kept so the speedup over the old code is
// measured in-binary on the same machine. Serial on purpose: the
// acceptance criterion compares single-thread throughput.

void NaiveMatMulAccum(const Tensor& a, const Tensor& b, Tensor& c) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  const float* ap = a.data().data();
  const float* bp = b.data().data();
  float* cp = c.data().data();
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = cp + i * n;
    const float* arow = ap + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0F) continue;
      const float* brow = bp + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

Tensor NaiveConv1DForward(const Tensor& x, const Tensor& w, const Tensor& b,
                          std::int64_t pad_left) {
  const std::int64_t n = x.dim(0), len = x.dim(1), cin = x.dim(2);
  const std::int64_t k = w.dim(0), f = w.dim(2);
  Tensor y({n, len, f});
  const float* xp = x.data().data();
  const float* wp = w.data().data();
  const float* bp = b.data().data();
  float* yp = y.data().data();
  for (std::int64_t in = 0; in < n; ++in) {
    const float* xs = xp + in * len * cin;
    float* ys = yp + in * len * f;
    for (std::int64_t t = 0; t < len; ++t) {
      float* yrow = ys + t * f;
      for (std::int64_t j = 0; j < f; ++j) yrow[j] = bp[j];
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const std::int64_t s = t + kk - pad_left;
        if (s < 0 || s >= len) continue;
        const float* xrow = xs + s * cin;
        const float* wk = wp + kk * cin * f;
        for (std::int64_t c = 0; c < cin; ++c) {
          const float xv = xrow[c];
          if (xv == 0.0F) continue;
          const float* wrow = wk + c * f;
          for (std::int64_t j = 0; j < f; ++j) yrow[j] += xv * wrow[j];
        }
      }
    }
  }
  return y;
}

// ---- timing ----------------------------------------------------------------

double g_min_seconds = 0.15;  // per measurement; --smoke shrinks this

// Runs `fn` repeatedly until the time budget is spent and returns the
// best (minimum) ns per iteration over three repetitions.
template <typename Fn>
double TimeNs(Fn&& fn) {
  fn();  // warmup
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    std::size_t iters = 0;
    Stopwatch sw;
    do {
      fn();
      ++iters;
    } while (sw.Seconds() < g_min_seconds);
    best = std::min(best, sw.Seconds() * 1e9 / static_cast<double>(iters));
  }
  return best;
}

// RAII thread-count pin.
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) : previous_(Threads()) { SetThreads(n); }
  ~ThreadGuard() { SetThreads(previous_); }

 private:
  std::size_t previous_;
};

struct GemmShape {
  std::int64_t m, k, n;
};

std::string ShapeName(const GemmShape& s) {
  return "m" + std::to_string(s.m) + "_k" + std::to_string(s.k) + "_n" +
         std::to_string(s.n);
}

// The tier Gemm dispatches to on this host.
std::string DispatchedTier() {
  return kernels::TierName(kernels::SupportedIsas(false).back(), false);
}

// Each tier this host runs at 1 thread; the dispatched (last) one at
// every thread count.
std::vector<std::size_t> ThreadsFor(kernels::Isa isa, bool int8,
                                    const std::vector<std::size_t>& threads) {
  if (isa == kernels::SupportedIsas(int8).back()) return threads;
  return {1};
}

void BenchGemm(const GemmShape& s, const std::vector<std::size_t>& threads,
               std::vector<bench::BenchRow>& rows) {
  Rng rng(42);
  const Tensor a = Tensor::RandomNormal({s.m, s.k}, rng, 0, 1);
  const Tensor b = Tensor::RandomNormal({s.k, s.n}, rng, 0, 1);
  Tensor c({s.m, s.n});
  const double flops = 2.0 * static_cast<double>(s.m) *
                       static_cast<double>(s.k) * static_cast<double>(s.n);

  {
    ThreadGuard guard(1);
    const double ns = TimeNs([&] { NaiveMatMulAccum(a, b, c); });
    rows.push_back({"gemm_naive", ShapeName(s), 1, ns, flops / ns, "scalar"});
  }
  for (const kernels::Isa isa : kernels::SupportedIsas(false)) {
    for (std::size_t t : ThreadsFor(isa, false, threads)) {
      ThreadGuard guard(t);
      const double ns = TimeNs([&] {
        kernels::GemmWith(isa, false, false, s.m, s.n, s.k, a.data().data(),
                          s.k, b.data().data(), s.n, c.data().data(), s.n,
                          true);
      });
      rows.push_back({"gemm_kernel", ShapeName(s), t, ns, flops / ns,
                      kernels::TierName(isa, false)});
    }
  }

  std::vector<std::int8_t> a8(static_cast<std::size_t>(s.m * s.k));
  std::vector<std::int8_t> b8(static_cast<std::size_t>(s.k * s.n));
  for (auto& v : a8) v = static_cast<std::int8_t>(rng.Int(-127, 127));
  for (auto& v : b8) v = static_cast<std::int8_t>(rng.Int(-127, 127));
  std::vector<std::int32_t> c32(static_cast<std::size_t>(s.m * s.n));
  for (const kernels::Isa isa : kernels::SupportedIsas(true)) {
    for (std::size_t t : ThreadsFor(isa, true, threads)) {
      ThreadGuard guard(t);
      const double ns = TimeNs([&] {
        kernels::GemmInt8With(isa, s.m, s.n, s.k, a8.data(), s.k, b8.data(),
                              s.n, c32.data(), s.n, false);
      });
      rows.push_back({"gemm_int8_kernel", ShapeName(s), t, ns, flops / ns,
                      kernels::TierName(isa, true)});
    }
  }
}

// quant::QuantizedMatMul as a whole (quantize, int8 GEMM, dequantize)
// on each int8 tier at 1 thread, beside the gemm_int8_kernel rows of the
// same shape: the difference is what the float ends cost. The weight
// and activation scales are frozen from N(0,1) data, as calibration
// would.
void BenchQuantizedMatMul(const GemmShape& s,
                          std::vector<bench::BenchRow>& rows) {
  Rng rng(43);
  const Tensor x = Tensor::RandomNormal({s.m, s.k}, rng, 0, 1);
  const Tensor w = Tensor::RandomNormal({s.k, s.n}, rng, 0, 1);
  quant::LinearQuant q;
  q.name = "bench.w";
  quant::QuantizeWeightsPerChannel(q, w.data().data(), s.k, s.n);
  q.observer.Observe(x.data().data(), x.size());
  quant::FreezeActivationScale(q);
  Tensor y({s.m, s.n});
  const double flops = 2.0 * static_cast<double>(s.m) *
                       static_cast<double>(s.k) * static_cast<double>(s.n);
  ThreadGuard guard(1);
  for (const kernels::Isa isa : kernels::SupportedIsas(true)) {
    const double ns = TimeNs([&] {
      quant::QuantizedMatMulWith(isa, x.data().data(), s.m, s.k, q, 0,
                                 y.data().data(), s.n);
    });
    rows.push_back({"quantized_matmul", ShapeName(s), 1, ns, flops / ns,
                    kernels::TierName(isa, true)});
  }
}

void BenchConv1D(std::int64_t n, std::int64_t len, std::int64_t channels,
                 std::int64_t kernel, const std::vector<std::size_t>& threads,
                 std::vector<bench::BenchRow>& rows) {
  Rng rng(7);
  nn::Conv1D conv(channels, channels, kernel, rng);
  const Tensor x = Tensor::RandomNormal({n, len, channels}, rng, 0, 1);
  const Tensor w = Tensor::RandomNormal({kernel, channels, channels}, rng, 0,
                                        0.1F);
  const Tensor b = Tensor::RandomNormal({channels}, rng, 0, 0.1F);
  const std::string shape = "n" + std::to_string(n) + "_l" +
                            std::to_string(len) + "_c" +
                            std::to_string(channels) + "_k" +
                            std::to_string(kernel);
  // Useful FLOPs: only (t, kk) pairs whose tap lands inside the
  // sequence (the padding taps contribute zeros). Both paths share this
  // numerator so the GFLOP/s column is directly comparable — the
  // speedup lines compare raw ns_per_iter anyway.
  const std::int64_t pad = (kernel - 1) / 2;
  double macs = 0.0;
  for (std::int64_t t = 0; t < len; ++t) {
    const std::int64_t lo = std::max<std::int64_t>(0, pad - t);
    const std::int64_t hi = std::min(kernel - 1, pad + len - 1 - t);
    macs += static_cast<double>(hi - lo + 1);
  }
  const double flops = 2.0 * static_cast<double>(n) * macs *
                       static_cast<double>(channels) *
                       static_cast<double>(channels);

  {
    ThreadGuard guard(1);
    const double ns = TimeNs(
        [&] { NaiveConv1DForward(x, w, b, (kernel - 1) / 2); });
    rows.push_back(
        {"conv1d_forward_naive", shape, 1, ns, flops / ns, "scalar"});
  }
  for (std::size_t t : threads) {
    ThreadGuard guard(t);
    const double ns = TimeNs([&] { conv.Forward(x, true); });
    rows.push_back(
        {"conv1d_forward", shape, t, ns, flops / ns, DispatchedTier()});
  }
  Tensor dy = Tensor::RandomNormal({n, len, channels}, rng, 0, 1);
  conv.Forward(x, true);
  for (std::size_t t : threads) {
    ThreadGuard guard(t);
    const double ns = TimeNs([&] { conv.Backward(dy); });
    rows.push_back({"conv1d_backward", shape, t, ns, 3.0 * flops / ns,
                    DispatchedTier()});
  }
}

// Forward of a recurrent layer (nn::Gru or nn::Lstm): `gates` input
// and `gates` recurrent GEMMs per step (GRU 3, LSTM 4).
template <typename Recurrent>
void BenchRecurrent(const char* op, int gates, std::int64_t n,
                    std::int64_t len, std::int64_t units,
                    const std::vector<std::size_t>& threads,
                    std::vector<bench::BenchRow>& rows) {
  Rng rng(9);
  Recurrent layer(units, units, rng);
  const Tensor x = Tensor::RandomNormal({n, len, units}, rng, 0, 1);
  const std::string shape = "n" + std::to_string(n) + "_l" +
                            std::to_string(len) + "_h" +
                            std::to_string(units);
  const double flops = 2.0 * gates * static_cast<double>(n * len) *
                       static_cast<double>(units) *
                       static_cast<double>(units) * 2.0;
  for (std::size_t t : threads) {
    ThreadGuard guard(t);
    const double ns = TimeNs([&] { layer.Forward(x, true); });
    rows.push_back({op, shape, t, ns, flops / ns, DispatchedTier()});
  }
}

void BenchGru(std::int64_t n, std::int64_t len, std::int64_t units,
              const std::vector<std::size_t>& threads,
              std::vector<bench::BenchRow>& rows) {
  BenchRecurrent<nn::Gru>("gru_forward", 3, n, len, units, threads, rows);
}

// The GRU-vs-LSTM pair at one shape.
void BenchGruVsLstm(std::int64_t n, std::int64_t len, std::int64_t units,
                    const std::vector<std::size_t>& threads,
                    std::vector<bench::BenchRow>& rows) {
  BenchGru(n, len, units, threads, rows);
  BenchRecurrent<nn::Lstm>("lstm_forward", 4, n, len, units, threads, rows);
}

// The small-m (batch-1) GEMMs on every tier this host runs, 1 thread,
// m = 1: fp32 k = n = w for each width in `widths` (one GRU gate's
// projection, or Conv1D's one tap), int8 k = `k8` for each n in
// `int8_n` (one gate, or the fused [Wz|Wr|Wh] panel).
void BenchGemmSmallM(const std::vector<std::int64_t>& widths, std::int64_t k8,
                     const std::vector<std::int64_t>& int8_n,
                     std::vector<bench::BenchRow>& rows) {
  Rng rng(44);
  ThreadGuard guard(1);
  for (const std::int64_t w : widths) {
    const GemmShape s{1, w, w};
    const Tensor a = Tensor::RandomNormal({1, w}, rng, 0, 1);
    const Tensor b = Tensor::RandomNormal({w, w}, rng, 0, 1);
    Tensor c({1, w});
    const double flops = 2.0 * static_cast<double>(w * w);
    for (const kernels::Isa isa : kernels::SupportedIsas(false)) {
      const double ns = TimeNs([&] {
        kernels::GemmWith(isa, false, false, 1, w, w, a.data().data(), w,
                          b.data().data(), w, c.data().data(), w, false);
      });
      rows.push_back({"gemm_small_m", ShapeName(s), 1, ns, flops / ns,
                      kernels::TierName(isa, false)});
    }
  }
  for (const std::int64_t n : int8_n) {
    const GemmShape s{1, k8, n};
    std::vector<std::int8_t> a8(static_cast<std::size_t>(k8));
    std::vector<std::int8_t> b8(static_cast<std::size_t>(k8 * n));
    for (auto& v : a8) v = static_cast<std::int8_t>(rng.Int(-127, 127));
    for (auto& v : b8) v = static_cast<std::int8_t>(rng.Int(-127, 127));
    std::vector<std::int32_t> c32(static_cast<std::size_t>(n));
    const double ops = 2.0 * static_cast<double>(k8 * n);
    for (const kernels::Isa isa : kernels::SupportedIsas(true)) {
      const double ns = TimeNs([&] {
        kernels::GemmInt8With(isa, 1, n, k8, a8.data(), k8, b8.data(), n,
                              c32.data(), n, false);
      });
      rows.push_back({"gemm_int8_small_m", ShapeName(s), 1, ns, ops / ns,
                      kernels::TierName(isa, true)});
    }
  }
}

// kernels::MaxAbsBits on every tier this host runs over n N(0,1)
// values (1 thread): the GRU's reset-gate check scans Wr (121² or 196²
// values) on every call. The gflops column reads G values/s.
void BenchMaxAbsBits(std::int64_t n, std::vector<bench::BenchRow>& rows) {
  Rng rng(13);
  const Tensor x = Tensor::RandomNormal({n}, rng, 0, 1);
  const std::string shape = "n" + std::to_string(n);
  ThreadGuard guard(1);
  std::int32_t sink = 0;
  for (const kernels::Isa isa : kernels::SupportedIsas(false)) {
    const double ns = TimeNs(
        [&] { sink ^= kernels::MaxAbsBitsWith(isa, x.data().data(), n); });
    rows.push_back({"max_abs_bits", shape, 1, ns, static_cast<double>(n) / ns,
                    kernels::TierName(isa, false)});
  }
  if (sink == -1) std::printf("unreachable\n");  // keeps the scans live
}

// kernels::Tanh on every tier this host runs against the libm loop it
// replaced in the GRU, over n N(0,1) values (1 thread: Tanh does not
// shard). The gflops column reads G values/s for these rows.
void BenchTanh(std::int64_t n, std::vector<bench::BenchRow>& rows) {
  Rng rng(11);
  const Tensor x = Tensor::RandomNormal({n}, rng, 0, 1);
  Tensor y({n});
  const float* xp = x.data().data();
  float* yp = y.data().data();
  const std::string shape = "n" + std::to_string(n);
  const auto values = static_cast<double>(n);
  ThreadGuard guard(1);
  {
    const double ns = TimeNs([&] {
      for (std::int64_t i = 0; i < n; ++i) yp[i] = std::tanh(xp[i]);
    });
    rows.push_back({"tanh_naive", shape, 1, ns, values / ns, "libm"});
  }
  for (const kernels::Isa isa : kernels::SupportedIsas(false)) {
    const double ns = TimeNs([&] { kernels::TanhWith(isa, xp, yp, n); });
    rows.push_back(
        {"tanh", shape, 1, ns, values / ns, kernels::TanhTierName(isa)});
  }
}

// Crc32::Update on every tier this host runs over n random bytes (1
// thread). The gflops column reads GB/s for these rows.
void BenchCrc32(std::size_t n, std::vector<bench::BenchRow>& rows) {
  Rng rng(12);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.Int(0, 255));
  const std::string shape = "n" + std::to_string(n);
  ThreadGuard guard(1);
  for (const Crc32Tier tier : SupportedCrc32Tiers()) {
    const double ns = TimeNs([&] {
      Crc32 crc;
      crc.UpdateWith(tier, bytes.data(), n);
    });
    rows.push_back({"crc32", shape, 1, ns, static_cast<double>(n) / ns,
                    Crc32TierName(tier)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_kernels.json";
  std::string git = "unknown";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--git=", 6) == 0) {
      git = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH] [--git=REV]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) g_min_seconds = 0.005;

  const std::vector<std::size_t> threads = {1, 2, 4};
  std::vector<bench::BenchRow> rows;

  if (smoke) {
    BenchGemm({16, 33, 17}, threads, rows);
    BenchQuantizedMatMul({16, 33, 17}, rows);
    BenchConv1D(4, 3, 8, 5, threads, rows);
    BenchGruVsLstm(4, 2, 8, threads, rows);
    BenchGemmSmallM({17}, 33, {33}, rows);
    BenchMaxAbsBits(37, rows);
    BenchTanh(37, rows);
    BenchCrc32(1000, rows);
  } else {
    // The ISSUE-3 acceptance shape, the paper's encoded widths, and a
    // square reference point.
    BenchGemm({64, 196, 192}, threads, rows);
    BenchGemm({64, 121, 363}, threads, rows);  // fused GRU panel, W=121
    BenchQuantizedMatMul({64, 121, 363}, rows);
    BenchGemm({64, 121, 121}, threads, rows);  // Conv1D's one tap, W=121
    BenchQuantizedMatMul({64, 121, 121}, rows);
    BenchGemm({256, 256, 256}, threads, rows);
    // Bench-default Conv1D shapes (N=32, L=1, K=10).
    BenchConv1D(32, 1, 24, 10, threads, rows);
    BenchConv1D(32, 1, 121, 10, threads, rows);
    BenchConv1D(64, 16, 64, 10, threads, rows);
    BenchGru(32, 1, 121, threads, rows);
    BenchGru(64, 8, 128, threads, rows);
    BenchGruVsLstm(32, 4, 64, threads, rows);
    // Batch 1 at the paper's widths, and the reset-gate check's scan
    // of Wr at the NSL and UNSW widths.
    BenchGemmSmallM({121, 196}, 121, {121, 363}, rows);
    BenchMaxAbsBits(121 * 121, rows);
    BenchMaxAbsBits(196 * 196, rows);
    // One GRU step's candidate state at batch 64, NSL and UNSW widths.
    BenchTanh(64 * 121, rows);
    BenchTanh(64 * 196, rows);
    // 4 KiB, and the size of the full-width (121) NSL weight file.
    BenchCrc32(4096, rows);
    BenchCrc32(9'436'102, rows);
  }

  const std::string crc_tier = Crc32TierName(SupportedCrc32Tiers().back());
  obs::Json manifest = bench::HostManifest(git);
  manifest.Set("gemm", kernels::IsaName()).Set("crc32", crc_tier);
  bench::WriteBenchJson(json_path, manifest, rows);

  std::printf("gemm: %s\ncrc32: %s\n", kernels::IsaName().c_str(),
              crc_tier.c_str());
  std::printf("%-22s %-18s %-18s %8s %14s %10s\n", "op", "shape", "isa",
              "threads", "ns/iter", "GFLOP/s");
  for (const auto& r : rows) {
    std::printf("%-22s %-18s %-18s %8zu %14.0f %10.3f\n", r.op.c_str(),
                r.shape.c_str(), r.isa.c_str(), r.threads, r.ns_per_iter,
                r.gflops);
  }

  // Single-thread speedup summary per shape (dispatched kernel vs naive).
  const std::string dispatched = DispatchedTier();
  const std::string dispatched_tanh =
      kernels::TanhTierName(kernels::SupportedIsas(false).back());
  for (const auto& naive : rows) {
    if (naive.op.find("_naive") == std::string::npos) continue;
    const std::string fast_op =
        naive.op.substr(0, naive.op.size() - std::strlen("_naive"));
    for (const auto& fast : rows) {
      if (fast.op == fast_op && fast.shape == naive.shape &&
          fast.threads == 1 &&
          fast.isa == (fast_op == "tanh" ? dispatched_tanh : dispatched)) {
        std::printf("speedup %-20s %-22s %.2fx\n", fast_op.c_str(),
                    naive.shape.c_str(), naive.ns_per_iter / fast.ns_per_iter);
      }
    }
  }
  std::printf("wrote %s (%zu rows)\n", json_path.c_str(), rows.size());
  return 0;
}
