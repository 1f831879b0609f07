// Shared experiment harness for the bench binaries.
//
// Every bench reads the same scaled settings (overridable via
// environment variables, so users with more hardware can push toward
// the paper's full scale) and reuses these helpers to build datasets,
// the four evaluated networks (Section V-C) and the Table V baselines.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/core.h"
#include "data/data.h"
#include "ml/ml.h"
#include "models/pelican.h"
#include "models/zoo.h"
#include "obs/json.h"
#include "obs/run_log.h"

namespace pelican::bench {

// Scaled experiment knobs. Environment overrides:
//   PELICAN_BENCH_RECORDS, PELICAN_BENCH_EPOCHS, PELICAN_BENCH_CHANNELS,
//   PELICAN_BENCH_FOLDS, PELICAN_BENCH_SEED
struct Settings {
  std::size_t records = 3000;
  int epochs = 24;
  std::int64_t channels = 24;  // paper: = encoded width (121 / 196)
  float dropout = 0.3F;        // paper: 0.6 (see EXPERIMENTS.md)
  std::size_t batch_size = 64; // paper: 4000
  float learning_rate = 0.01F; // paper's Table I
  std::size_t folds = 2;       // of k = 10 (paper runs all 10)
  std::uint64_t seed = 2020;   // DSN'20
};

inline long EnvLong(const char* name, long fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

inline Settings LoadSettings() {
  Settings s;
  s.records = static_cast<std::size_t>(
      EnvLong("PELICAN_BENCH_RECORDS", static_cast<long>(s.records)));
  s.epochs = static_cast<int>(EnvLong("PELICAN_BENCH_EPOCHS", s.epochs));
  s.channels = EnvLong("PELICAN_BENCH_CHANNELS",
                       static_cast<long>(s.channels));
  s.folds = static_cast<std::size_t>(
      EnvLong("PELICAN_BENCH_FOLDS", static_cast<long>(s.folds)));
  s.seed = static_cast<std::uint64_t>(
      EnvLong("PELICAN_BENCH_SEED", static_cast<long>(s.seed)));
  return s;
}

enum class Dataset { kNslKdd, kUnswNb15 };

inline const char* DatasetName(Dataset d) {
  return d == Dataset::kNslKdd ? "NSL-KDD" : "UNSW-NB15";
}

inline data::RawDataset MakeDataset(Dataset d, const Settings& s) {
  Rng rng(s.seed);
  return d == Dataset::kNslKdd
             ? data::GenerateNslKdd(s.records, rng)
             : data::GenerateUnswNb15(s.records, rng);
}

inline core::TrainConfig MakeTrainConfig(const Settings& s) {
  core::TrainConfig tc;
  tc.epochs = s.epochs;
  tc.batch_size = s.batch_size;
  tc.learning_rate = s.learning_rate;
  tc.optimizer = "rmsprop";  // Section V-C
  tc.seed = s.seed ^ 0xbadcafeULL;
  return tc;
}

// The four evaluated architectures, in the paper's naming.
struct NetworkSpec {
  std::string name;
  int n_blocks;
  bool residual;
};

inline std::vector<NetworkSpec> FourNetworks() {
  return {{"Plain-21", 5, false},
          {"Residual-21", 5, true},
          {"Plain-41", 10, false},
          {"Residual-41 (Pelican)", 10, true}};
}

inline core::NetworkFactory MakeNetworkFactory(const NetworkSpec& spec,
                                               const Settings& s) {
  const int n_blocks = spec.n_blocks;
  const bool residual = spec.residual;
  const std::int64_t channels = s.channels;
  const float dropout = s.dropout;
  return [n_blocks, residual, channels, dropout](
             std::int64_t features, std::int64_t n_classes, Rng& rng) {
    models::NetworkConfig config;
    config.features = features;
    config.n_classes = n_classes;
    config.n_blocks = n_blocks;
    config.residual = residual;
    config.channels = channels;
    config.dropout = dropout;
    return models::BuildNetwork(config, rng);
  };
}

inline core::ClassifierFactory MakeNeuralFactory(const NetworkSpec& spec,
                                                 const Settings& s) {
  auto factory = MakeNetworkFactory(spec, s);
  auto tc = MakeTrainConfig(s);
  auto name = spec.name;
  return [factory, tc, name] {
    return std::make_unique<core::NeuralClassifier>(name, factory, tc);
  };
}

// Trains one network on a stratified 80/20 holdout of `dataset`,
// recording per-epoch train/test stats (the Fig. 5 series) and the final
// test confusion. Shared by fig5 / table2.
struct TrackedRun {
  std::string name;
  core::TrainHistory history;
  metrics::ConfusionMatrix confusion{2};
  metrics::BinaryOutcome binary;
  double train_seconds = 0.0;
};

inline TrackedRun RunTracked(const data::RawDataset& dataset,
                             const NetworkSpec& spec, const Settings& s) {
  Rng rng(s.seed ^ 0x70a57ULL);
  const auto split =
      data::StratifiedHoldout(dataset.Labels(), 0.2, rng);
  const auto train_set = dataset.Subset(split.train_indices);
  const auto test_set = dataset.Subset(split.test_indices);

  const data::OneHotEncoder encoder(dataset.schema());
  Tensor x_train = encoder.Transform(train_set);
  Tensor x_test = encoder.Transform(test_set);
  data::StandardScaler scaler;
  scaler.Fit(x_train);
  scaler.Transform(x_train);
  scaler.Transform(x_test);

  Rng net_rng(s.seed ^ 0x6e7ULL);
  auto network = MakeNetworkFactory(spec, s)(
      encoder.EncodedWidth(),
      static_cast<std::int64_t>(dataset.schema().LabelCount()), net_rng);
  core::Trainer trainer(*network, MakeTrainConfig(s));

  TrackedRun run;
  run.name = spec.name;
  Stopwatch timer;
  run.history =
      trainer.Fit(x_train, train_set.Labels(), &x_test, test_set.Labels());
  run.train_seconds = timer.Seconds();

  const auto predictions = trainer.Predict(x_test);
  run.confusion = metrics::ConfusionMatrix(dataset.schema().LabelCount());
  run.confusion.RecordAll(test_set.Labels(), predictions);
  run.binary = metrics::CollapseToBinary(run.confusion, /*normal_label=*/0);
  return run;
}

// ---- machine-readable bench output ----------------------------------------

// Renders `rows` as a JSON array, one object per line.
inline std::string JsonArray(const std::vector<obs::Json>& rows) {
  std::string out = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += (i > 0 ? ",\n  " : "\n  ") + rows[i].Str();
  }
  return out + "\n]";
}

// Writes JsonArray(rows) to `path`; throws CheckError when it can't.
inline void WriteJsonArray(const std::string& path,
                           const std::vector<obs::Json>& rows) {
  std::ofstream f(path);
  PELICAN_CHECK(f.is_open(), "cannot write " + path);
  f << JsonArray(rows) << '\n';
}

// The host a bench ran on: core count, CPU model, the ISA extensions
// the kernels could use, compiler, build type and the measured commit
// (`git`, as the caller was told it; "unknown" if not).
inline obs::Json HostManifest(const std::string& git) {
  std::string cpu;
  std::string flags;
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const auto colon = line.find(':');
    if (colon == std::string::npos || colon + 2 > line.size()) continue;
    if (cpu.empty() && line.rfind("model name", 0) == 0) {
      cpu = line.substr(colon + 2);
    } else if (flags.empty() && line.rfind("flags", 0) == 0) {
      flags = " " + line.substr(colon + 2) + " ";
    }
  }
  std::string isa;
  for (const char* want :
       {"sse4_2", "pclmulqdq", "avx", "avx2", "fma", "avx512f", "avx512bw",
        "avx512vl", "avx512_vnni", "vpclmulqdq", "avx_vnni", "amx_int8"}) {
    if (flags.find(" " + std::string(want) + " ") != std::string::npos) {
      isa += (isa.empty() ? "" : " ") + std::string(want);
    }
  }
  obs::Json j;
  j.Set("nproc",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .Set("cpu", cpu)
      .Set("isa", isa)
      .Set("compiler", obs::BuildCompiler())
      .Set("build_type", PELICAN_BUILD_TYPE)
      .Set("git", git);
  return j;
}

// Rows of BENCH_kernels.json, the perf-trajectory artifact emitted by
// bench/kernels_bench: one entry per (op, shape, threads, tier) with
// ns/iter and achieved GFLOP/s (GOP/s for int8, GB/s for crc32).
struct BenchRow {
  std::string op;     // "gemm_kernel", "gemm_naive", "conv1d_forward", …
  std::string shape;  // "m64_k196_n192", "n32_l1_c24_f24_k10", …
  std::size_t threads = 1;
  double ns_per_iter = 0.0;
  double gflops = 0.0;
  std::string isa;    // GEMM tier that ran ("avx512 8x32", …) or "scalar"
};

// Writes {"manifest": manifest, "rows": [one object per row]} to `path`.
inline void WriteBenchJson(const std::string& path, const obs::Json& manifest,
                           const std::vector<BenchRow>& rows) {
  std::vector<obs::Json> out;
  out.reserve(rows.size());
  for (const BenchRow& r : rows) {
    obs::Json& row = out.emplace_back();
    row.Set("op", r.op)
        .Set("shape", r.shape)
        .Set("isa", r.isa)
        .Set("threads", static_cast<std::uint64_t>(r.threads))
        .Set("ns_per_iter", r.ns_per_iter)
        .Set("gflops", r.gflops);
  }
  std::ofstream f(path);
  PELICAN_CHECK(f.is_open(), "cannot write " + path);
  f << "{\"manifest\": " << manifest.Str() << ",\n\"rows\": " << JsonArray(out)
    << "}\n";
}

// Fixed-width table row printer (paper-style ASCII tables).
inline void PrintRow(const std::vector<std::string>& cells,
                     const std::vector<int>& widths) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    line += (i == 0 ? PadRight(cells[i], static_cast<std::size_t>(widths[i]))
                    : PadLeft(cells[i], static_cast<std::size_t>(widths[i])));
  }
  std::printf("%s\n", line.c_str());
}

inline std::string Pct(double fraction, int digits = 2) {
  return FormatFixed(fraction * 100.0, digits);
}

}  // namespace pelican::bench
