// Kernel throughput tracker: times the blocked SGEMM and the GEMM-backed
// Conv1D/GRU layers against the pre-PR scalar reference loops (preserved
// here verbatim), at 1/2/4 threads, and writes the results to
// BENCH_kernels.json so the repo's perf trajectory is machine-readable.
// Every row names the GEMM tier that ran; the GEMM shapes are timed on
// each tier this host runs (fp32 and int8) at 1 thread, and on the
// dispatched tier at every thread count.
//
//   kernels_bench [--smoke] [--json=PATH]
//
// --smoke shrinks shapes and timing budgets so the ctest target stays
// fast; the full run measures the ISSUE-3 acceptance shapes (GEMM
// m=64 k=196 n=192 and Conv1D forward at the bench-default widths).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "harness.h"
#include "nn/conv1d.h"
#include "nn/gru.h"
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

// RAII thread-count pin (mirrors the micro_layers ThreadGuard).
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

void BenchGru(std::int64_t n, std::int64_t len, std::int64_t units,
              const std::vector<std::size_t>& threads,
              std::vector<bench::BenchRow>& rows) {
  Rng rng(9);
  nn::Gru gru(units, units, rng);
  const Tensor x = Tensor::RandomNormal({n, len, units}, rng, 0, 1);
  const std::string shape = "n" + std::to_string(n) + "_l" +
                            std::to_string(len) + "_h" +
                            std::to_string(units);
  // 3 input + 3 recurrent GEMMs per step.
  const double flops = 6.0 * static_cast<double>(n * len) *
                       static_cast<double>(units) *
                       static_cast<double>(units) * 2.0;
  for (std::size_t t : threads) {
    ThreadGuard guard(t);
    const double ns = TimeNs([&] { gru.Forward(x, true); });
    rows.push_back({"gru_forward", shape, t, ns, flops / ns, DispatchedTier()});
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }
  if (smoke) g_min_seconds = 0.005;

  const std::vector<std::size_t> threads = {1, 2, 4};
  std::vector<bench::BenchRow> rows;

  if (smoke) {
    BenchGemm({16, 33, 17}, threads, rows);
    BenchConv1D(4, 3, 8, 5, threads, rows);
    BenchGru(4, 2, 8, threads, rows);
  } else {
    // The ISSUE-3 acceptance shape, the paper's encoded widths, and a
    // square reference point.
    BenchGemm({64, 196, 192}, threads, rows);
    BenchGemm({64, 121, 363}, threads, rows);  // fused GRU panel, W=121
    BenchGemm({256, 256, 256}, threads, rows);
    // micro_layers bench-default Conv1D shapes (N=32, L=1, K=10).
    BenchConv1D(32, 1, 24, 10, threads, rows);
    BenchConv1D(32, 1, 121, 10, threads, rows);
    BenchConv1D(64, 16, 64, 10, threads, rows);
    BenchGru(32, 1, 121, threads, rows);
    BenchGru(64, 8, 128, threads, rows);
  }

  bench::WriteBenchJson(json_path, rows);

  std::printf("gemm: %s\n", kernels::IsaName().c_str());
  std::printf("%-22s %-18s %-18s %8s %14s %10s\n", "op", "shape", "isa",
              "threads", "ns/iter", "GFLOP/s");
  for (const auto& r : rows) {
    std::printf("%-22s %-18s %-18s %8zu %14.0f %10.3f\n", r.op.c_str(),
                r.shape.c_str(), r.isa.c_str(), r.threads, r.ns_per_iter,
                r.gflops);
  }

  // Single-thread speedup summary per shape (dispatched kernel vs naive).
  const std::string dispatched = DispatchedTier();
  for (const auto& naive : rows) {
    if (naive.op.find("_naive") == std::string::npos) continue;
    const std::string fast_op =
        naive.op.substr(0, naive.op.size() - std::strlen("_naive"));
    for (const auto& fast : rows) {
      if (fast.op == fast_op && fast.shape == naive.shape &&
          fast.threads == 1 && fast.isa == dispatched) {
        std::printf("speedup %-20s %-22s %.2fx\n", fast_op.c_str(),
                    naive.shape.c_str(), naive.ns_per_iter / fast.ns_per_iter);
      }
    }
  }
  std::printf("wrote %s (%zu rows)\n", json_path.c_str(), rows.size());
  return 0;
}
