// Int8 quantized-inference perf tracker: times kernels::GemmInt8
// against the fp32 blocked Gemm at the model's GEMM shapes (1/2/4
// threads), plus the end-to-end predict path (InspectAll) fp32 vs int8
// in rows/sec, and writes BENCH_quant.json so the quantization win is
// machine-readable.
//
//   quant_bench [--smoke] [--json=PATH]
//
// --smoke shrinks shapes and timing budgets for the ctest arm and
// additionally asserts the accuracy contract end to end: int8 ACC
// within 0.5% of fp32 on the synthetic NSL-KDD set (exit 1 on breach),
// so the quantized path can't silently rot between full bench runs.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/pelican_ids.h"
#include "data/nslkdd.h"
#include "harness.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"

namespace {

using namespace pelican;

double g_min_seconds = 0.15;  // per measurement; --smoke shrinks this

// Best (minimum) ns per iteration over three budgeted repetitions.
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

class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) : previous_(Threads()) { SetThreads(n); }
  ~ThreadGuard() { SetThreads(previous_); }

 private:
  std::size_t previous_;
};

// BENCH_quant.json row: GEMM rows report gops (integer or float
// 2·m·k·n ops), predict rows report rows_per_sec; the unused metric
// stays 0 so the schema is fixed.
struct QuantRow {
  std::string op;
  std::string shape;
  std::size_t threads = 1;
  double ns_per_iter = 0.0;
  double gops = 0.0;
  double rows_per_sec = 0.0;
};

void WriteQuantJson(const std::string& path,
                    const std::vector<QuantRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WriteQuantJson: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const QuantRow& r = rows[i];
    std::fprintf(f,
                 "  {\"op\": \"%s\", \"shape\": \"%s\", \"threads\": %zu, "
                 "\"ns_per_iter\": %.1f, \"gops\": %.3f, "
                 "\"rows_per_sec\": %.1f}%s\n",
                 r.op.c_str(), r.shape.c_str(), r.threads, r.ns_per_iter,
                 r.gops, r.rows_per_sec, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

struct GemmShape {
  std::int64_t m, k, n;
};

std::string ShapeName(const GemmShape& s) {
  return "m" + std::to_string(s.m) + "_k" + std::to_string(s.k) + "_n" +
         std::to_string(s.n);
}

void BenchGemmPair(const GemmShape& s, const std::vector<std::size_t>& threads,
                   std::vector<QuantRow>& rows) {
  Rng rng(42);
  const Tensor a = Tensor::RandomNormal({s.m, s.k}, rng, 0, 1);
  const Tensor b = Tensor::RandomNormal({s.k, s.n}, rng, 0, 1);
  Tensor c({s.m, s.n});
  std::vector<std::int8_t> a8(static_cast<std::size_t>(s.m * s.k));
  std::vector<std::int8_t> b8(static_cast<std::size_t>(s.k * s.n));
  for (auto& v : a8) v = static_cast<std::int8_t>(rng.Int(-127, 127));
  for (auto& v : b8) v = static_cast<std::int8_t>(rng.Int(-127, 127));
  std::vector<std::int32_t> c32(static_cast<std::size_t>(s.m * s.n));
  const double ops = 2.0 * static_cast<double>(s.m) *
                     static_cast<double>(s.k) * static_cast<double>(s.n);

  for (std::size_t t : threads) {
    ThreadGuard guard(t);
    const double fp32_ns = TimeNs([&] {
      kernels::Gemm(false, false, s.m, s.n, s.k, a.data().data(), s.k,
                    b.data().data(), s.n, c.data().data(), s.n, false);
    });
    rows.push_back({"gemm_fp32", ShapeName(s), t, fp32_ns, ops / fp32_ns, 0});
    const double int8_ns = TimeNs([&] {
      kernels::GemmInt8(s.m, s.n, s.k, a8.data(), s.k, b8.data(), s.n,
                        c32.data(), s.n, false);
    });
    rows.push_back({"gemm_int8", ShapeName(s), t, int8_ns, ops / int8_ns, 0});
  }
}

// End-to-end predict throughput: the same trained model driven through
// InspectAll on the same rows, fp32 engine vs int8 engine.
void BenchPredict(std::size_t train_records, std::size_t predict_records,
                  int epochs, const std::vector<std::size_t>& threads,
                  std::vector<QuantRow>& rows, double* fp32_acc,
                  double* int8_acc) {
  Rng rng(2020);
  const auto train_set = data::GenerateNslKdd(train_records, rng);
  const auto predict_set = data::GenerateNslKdd(predict_records, rng);
  core::IdsConfig config;
  config.n_blocks = 2;
  config.channels = 24;
  config.train.epochs = epochs;
  config.train.batch_size = 64;
  core::PelicanIds ids(train_set.schema(), config);
  ids.Train(train_set);

  *fp32_acc = ids.Evaluate(predict_set).accuracy;
  ids.EnableQuantized(true);
  *int8_acc = ids.Evaluate(predict_set).accuracy;

  const std::string shape = "nsl_rows" + std::to_string(predict_records);
  const auto n = static_cast<double>(predict_records);
  for (std::size_t t : threads) {
    ThreadGuard guard(t);
    ids.EnableQuantized(false);
    const double fp32_ns = TimeNs([&] { (void)ids.InspectAll(predict_set); });
    rows.push_back(
        {"predict_fp32", shape, t, fp32_ns, 0, n * 1e9 / fp32_ns});
    ids.EnableQuantized(true);
    const double int8_ns = TimeNs([&] { (void)ids.InspectAll(predict_set); });
    rows.push_back(
        {"predict_int8", shape, t, int8_ns, 0, n * 1e9 / int8_ns});
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_quant.json";
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
  std::vector<QuantRow> rows;
  double fp32_acc = 0.0, int8_acc = 0.0;

  if (smoke) {
    BenchGemmPair({16, 33, 17}, threads, rows);
    BenchPredict(400, 200, 4, {1}, rows, &fp32_acc, &int8_acc);
  } else {
    // The model's live GEMM shapes: Conv1D im2col panel at the paper's
    // NSL-KDD width, the fused GRU input projection (W=121), and a
    // square reference point.
    BenchGemmPair({64, 196, 192}, threads, rows);
    BenchGemmPair({64, 121, 363}, threads, rows);
    BenchGemmPair({256, 256, 256}, threads, rows);
    BenchPredict(2000, 2000, 8, threads, rows, &fp32_acc, &int8_acc);
  }

  WriteQuantJson(json_path, rows);

  std::printf("%-14s %-18s %8s %14s %10s %14s\n", "op", "shape", "threads",
              "ns/iter", "Gop/s", "rows/sec");
  for (const auto& r : rows) {
    std::printf("%-14s %-18s %8zu %14.0f %10.3f %14.1f\n", r.op.c_str(),
                r.shape.c_str(), r.threads, r.ns_per_iter, r.gops,
                r.rows_per_sec);
  }

  // int8-over-fp32 speedup summary (matching shape + thread count).
  for (const auto& fp : rows) {
    if (fp.op != "gemm_fp32" && fp.op != "predict_fp32") continue;
    const std::string int8_op =
        fp.op == "gemm_fp32" ? "gemm_int8" : "predict_int8";
    for (const auto& q : rows) {
      if (q.op == int8_op && q.shape == fp.shape && q.threads == fp.threads) {
        std::printf("speedup %-12s %-18s t=%zu  %.2fx\n", int8_op.c_str(),
                    fp.shape.c_str(), fp.threads,
                    fp.ns_per_iter / q.ns_per_iter);
      }
    }
  }
  std::printf("accuracy fp32 %.4f  int8 %.4f  (delta %.4f)\n", fp32_acc,
              int8_acc, std::fabs(int8_acc - fp32_acc));
  std::printf("wrote %s (%zu rows)\n", json_path.c_str(), rows.size());

  if (smoke && std::fabs(int8_acc - fp32_acc) > 0.005) {
    std::fprintf(stderr,
                 "FAIL: int8 accuracy delta %.4f exceeds the 0.5%% "
                 "contract\n",
                 std::fabs(int8_acc - fp32_acc));
    return 1;
  }
  return 0;
}
