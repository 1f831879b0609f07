// Observability overhead report: writes BENCH_obs.json.
//
//   obs_overhead [--json=BENCH_obs.json]
//
// Each arm runs one workload with one piece of observability off and
// on, in kPairs pairs that alternate which side runs first, after
// one uncounted warm-up pair. Every run is timed by process CPU: the
// instrumentation is CPU work, and CPU time leaves out the scheduler
// delay and wake-up jitter that dominate the wall clock of a loopback
// round trip. Pairing cancels the host's minutes-scale speed drift, and
// the median of the per-pair on/off ratios stays at 1 when both sides
// cost the same. The 0 Hz profiler arm arms no timers, so it is the
// closest to an A/A run: its spread is the report's noise floor.
//
// Per arm the file holds each side's quartiles and the median and IQR
// of the on/off ratio, beside a host manifest. No number is held to a
// bound. The bench exits 1 only when an arm's weights or verdicts
// differ between off and on, which is a byte check, not a timing check.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "harness.h"
#include "obs/obs.h"
#include "serve/serve.h"

namespace pelican::bench {
namespace {

constexpr int kPairs = 10;               // timed off/on pairs per arm
constexpr std::size_t kFitRecords = 8192;
constexpr int kFitEpochs = 4;
constexpr std::size_t kServeChunk = 32;  // records per lockstep round trip
constexpr int kServePasses = 100;        // passes over the corpus per run

// What one timed run cost and what it produced.
struct Run {
  double cpu_seconds = 0.0;
  std::string bytes;  // the trained weights, or the verdict stream
};

double ProcessCpuSeconds() {
  timespec ts{};
  PELICAN_CHECK(::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0,
                "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---- fit workload ----------------------------------------------------------

struct Workload {
  Tensor x;
  std::vector<int> y;
  std::int64_t features = 0;
  std::int64_t classes = 0;
};

Workload MakeWorkload() {
  Rng rng(2020);
  auto dataset = data::GenerateNslKdd(kFitRecords, rng);
  const data::OneHotEncoder encoder(dataset.schema());
  Workload w;
  w.x = encoder.Transform(dataset);
  data::StandardScaler scaler;
  scaler.Fit(w.x);
  scaler.Transform(w.x);
  const auto labels = dataset.Labels();
  w.y.assign(labels.begin(), labels.end());
  w.features = encoder.EncodedWidth();
  w.classes = static_cast<std::int64_t>(dataset.schema().LabelCount());
  return w;
}

// One training run from fixed seeds, so both sides of a pair must
// produce the same weights. `run_log_path` empty leaves the run log off.
Run FitOnce(const Workload& w, bool metrics_and_tracing,
            const std::string& run_log_path) {
  obs::ResetTrace();  // each run starts from empty span buffers
  obs::EnableMetrics(metrics_and_tracing);
  obs::EnableTracing(metrics_and_tracing);
  models::NetworkConfig net_config;
  net_config.features = w.features;
  net_config.n_classes = w.classes;
  net_config.n_blocks = 2;
  net_config.residual = true;
  net_config.channels = 32;
  net_config.dropout = 0.3F;
  Rng net_rng(0x6e7ULL);
  auto network = models::BuildNetwork(net_config, net_rng);

  core::TrainConfig tc;
  tc.epochs = kFitEpochs;
  tc.batch_size = 256;
  tc.seed = 2020;
  tc.run_log_path = run_log_path;
  core::Trainer trainer(*network, tc);

  const double cpu_start = ProcessCpuSeconds();
  trainer.Fit(w.x, w.y);
  Run run;
  run.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  for (const auto& p : network->Params()) {
    const auto values = p.value->data();
    run.bytes.append(reinterpret_cast<const char*>(values.data()),
                     values.size() * sizeof(float));
  }
  obs::EnableMetrics(false);
  obs::EnableTracing(false);
  return run;
}

// A TCP connection to 127.0.0.1:port with Nagle off; -1 on failure.
int ConnectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

// One GET /metrics; true when a 200 came back.
bool ScrapeOnce(std::uint16_t port) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return false;
  std::string response;
  if (obs::SendAll({}, fd, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")) {
    char buf[4096];
    ssize_t n = 0;
    while ((n = obs::RecvRetry({}, fd, buf, sizeof buf)) > 0) {
      response.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return response.rfind("HTTP/1.1 200", 0) == 0;
}

// ---- serve workload --------------------------------------------------------

struct ServeFixture {
  std::unique_ptr<core::PelicanIds> ids;
  std::vector<std::string> chunks;  // pre-joined kServeChunk-line payloads
};

ServeFixture MakeServeFixture() {
  ServeFixture fx;
  Rng rng(2020);
  const auto train = data::GenerateNslKdd(240, rng);
  core::IdsConfig config;
  config.n_blocks = 2;
  // The fit arms' width: the per-record lifecycle cost is fixed, so a
  // narrower model would overstate it relative to the scoring work.
  config.channels = 32;
  config.train.epochs = 2;
  config.train.batch_size = 32;
  config.train.seed = 7;
  fx.ids = std::make_unique<core::PelicanIds>(data::NslKddSchema(), config);
  fx.ids->Train(train);

  Rng score_rng(7777);
  const auto score_set = data::GenerateNslKdd(256, score_rng);
  std::stringstream csv;
  data::WriteCsv(score_set, csv);
  std::string line;
  std::getline(csv, line);  // header
  std::string payload;
  std::size_t lines = 0;
  while (std::getline(csv, line)) {
    if (line.empty()) continue;
    payload += line + '\n';
    if (++lines % kServeChunk == 0) {
      fx.chunks.push_back(std::move(payload));
      payload.clear();
    }
  }
  return fx;
}

// Moves `count` newline-terminated reply lines from fd to `out`.
std::size_t ReadReplyLines(int fd, std::size_t count, std::string& buf,
                           std::string& out) {
  std::size_t seen = 0;
  while (seen < count) {
    const std::size_t pos = buf.find('\n');
    if (pos != std::string::npos) {
      out.append(buf, 0, pos + 1);
      buf.erase(0, pos + 1);
      ++seen;
      continue;
    }
    char tmp[8192];
    const ssize_t n = obs::RecvRetry({}, fd, tmp, sizeof tmp);
    if (n <= 0) break;
    buf.append(tmp, static_cast<std::size_t>(n));
  }
  return seen;
}

// kServePasses closed-loop passes over the corpus through a live
// ScoringServer. `lifecycle` turns on the serving observability kit:
// metrics (stage histograms, busy gauges), tracing (spans and flow
// events) and 1-in-16 access sampling into the slow ring.
Run ServePlaneOnce(const ServeFixture& fx, bool lifecycle) {
  obs::ResetTrace();
  obs::EnableMetrics(lifecycle);
  obs::EnableTracing(lifecycle);
  serve::ScoringServerConfig sc;
  sc.scorers = 2;
  // No linger: each chunk is scored the moment it lands, so a round
  // trip is scoring work, not a 1 ms condition-variable wait.
  sc.batch_linger_ms = 0;
  sc.sample_every = lifecycle ? 16 : 0;
  serve::ScoringServer server(*fx.ids, sc);
  server.Start();

  const int fd = ConnectLoopback(server.Port());
  PELICAN_CHECK(fd >= 0, "cannot connect to the scoring server");

  Run run;
  std::string buf;
  const double cpu_start = ProcessCpuSeconds();
  for (int p = 0; p < kServePasses; ++p) {
    for (const std::string& chunk : fx.chunks) {
      PELICAN_CHECK(obs::SendAll({}, fd, chunk), "send() failed");
      PELICAN_CHECK(
          ReadReplyLines(fd, kServeChunk, buf, run.bytes) == kServeChunk,
          "short reply chunk");
    }
  }
  // Every reply is back, so every server thread is parked: the CPU
  // delta is this run's processing alone.
  run.cpu_seconds = ProcessCpuSeconds() - cpu_start;
  ::close(fd);
  server.Drain();
  obs::EnableMetrics(false);
  obs::EnableTracing(false);
  return run;
}

// ---- the paired estimator --------------------------------------------------

struct Quartiles {
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
};

// Linear interpolation between order statistics.
Quartiles QuartilesOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

obs::Json QuartileJson(const Quartiles& q) {
  obs::Json j;
  j.Set("p25", q.p25).Set("p50", q.p50).Set("p75", q.p75);
  return j;
}

// Runs `run(on)` for one uncounted warm-up pair, then kPairs pairs
// alternating which side goes first, and returns the arm's row. Every
// run must produce the warm-up off run's bytes; `identical` is cleared
// when one does not.
obs::Json MeasureArm(const std::string& arm, const std::string& on_means,
                     const std::function<Run(bool)>& run, bool& identical) {
  const std::string reference = run(false).bytes;
  bool same = !reference.empty() && run(true).bytes == reference;
  std::vector<double> off_s, on_s, ratios;
  for (int p = 0; p < kPairs; ++p) {
    const bool on_first = p % 2 == 1;
    const Run first = run(on_first);
    const Run second = run(!on_first);
    const Run& on = on_first ? first : second;
    const Run& off = on_first ? second : first;
    off_s.push_back(off.cpu_seconds);
    on_s.push_back(on.cpu_seconds);
    ratios.push_back(on.cpu_seconds / off.cpu_seconds);
    same = same && off.bytes == reference && on.bytes == reference;
  }
  const Quartiles off = QuartilesOf(off_s);
  const Quartiles on = QuartilesOf(on_s);
  const Quartiles ratio = QuartilesOf(ratios);
  std::printf("%-18s %9.4f %9.4f %+9.2f%% %8.2f%%  %s\n", arm.c_str(),
              off.p50, on.p50, 100.0 * (ratio.p50 - 1.0),
              100.0 * (ratio.p75 - ratio.p25),
              same ? "identical" : "DIFFER");
  std::fflush(stdout);
  identical = identical && same;
  obs::Json row;
  row.Set("arm", arm)
      .Set("on", on_means)
      .Set("pairs", kPairs)
      .Set("off_cpu_s", QuartileJson(off))
      .Set("on_cpu_s", QuartileJson(on))
      .Set("ratio_p50", ratio.p50)
      .Set("ratio_iqr", ratio.p75 - ratio.p25)
      .Set("identical", same);
  return row;
}

int Main(int argc, char** argv) {
  std::string json_path = "BENCH_obs.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) != 0) {
      std::fprintf(stderr, "usage: %s [--json=PATH]\n", argv[0]);
      return 2;
    }
    json_path = arg.substr(7);
  }

  const auto run_log_path =
      (std::filesystem::temp_directory_path() / "obs_overhead_run.jsonl")
          .string();
  const Workload w = MakeWorkload();
  const ServeFixture sfx = MakeServeFixture();
  obs::ProfileRegisterCurrentThread();
  std::printf("obs_overhead: %d pairs per arm, process CPU seconds\n",
              kPairs);
  std::printf("%-18s %9s %9s %10s %9s\n", "arm", "off p50", "on p50",
              "on/off-1", "IQR");

  bool identical = true;
  std::vector<obs::Json> rows;
  std::size_t trace_events = 0;
  rows.push_back(MeasureArm(
      "fit_obs", "metrics, tracing, run log",
      [&](bool on) {
        Run run = FitOnce(w, on, on ? run_log_path : "");
        if (on) trace_events = obs::TraceEventCount();
        return run;
      },
      identical));
  rows.back().Set("trace_events", static_cast<std::uint64_t>(trace_events));

  std::uint64_t scrapes = 0;
  std::uint64_t scrape_failures = 0;
  rows.push_back(MeasureArm(
      "fit_scrape",
      "metrics, tracing, run log, introspection server, 10 Hz /metrics "
      "scraper",
      [&](bool on) {
        if (!on) return FitOnce(w, false, "");
        obs::IntrospectionServer server;
        server.Start();
        server.SetReady(true);
        // Joined (after a stop request) before `server` is destroyed.
        std::jthread scraper([&](const std::stop_token& stop) {
          while (!stop.stop_requested()) {
            ++(ScrapeOnce(server.Port()) ? scrapes : scrape_failures);
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
        });
        return FitOnce(w, true, run_log_path);
      },
      identical));
  rows.back().Set("scrapes", scrapes).Set("scrape_failures", scrape_failures);
  std::filesystem::remove(run_log_path);

  rows.push_back(MeasureArm(
      "serve_obs", "metrics, tracing, 1-in-16 access sampling",
      [&](bool on) { return ServePlaneOnce(sfx, on); }, identical));

  // The profiler arms leave every other kind of observability off on
  // both sides, so the ratio is the profiler's alone: timers, handler,
  // ring drains and the span-path bookkeeping StartProfiler turns on.
  const auto profile_arm = [&](const std::string& arm, int hz,
                               const std::function<Run()>& body) {
    std::uint64_t samples = 0;
    std::uint64_t dropped = 0;
    rows.push_back(MeasureArm(
        arm, "sampling profiler at " + std::to_string(hz) + " Hz",
        [&](bool on) {
          if (!on) return body();
          obs::ProfilerConfig pc;
          pc.hz = hz;
          obs::StartProfiler(pc);
          Run run = body();
          obs::StopProfiler();
          samples += obs::ProfileSampleCount();
          dropped += obs::ProfileDroppedCount();
          obs::ResetProfiler();
          return run;
        },
        identical));
    rows.back().Set("hz", hz).Set("samples", samples).Set("dropped", dropped);
  };
  for (const int hz : {0, 25, obs::kDefaultProfileHz, 250, 997}) {
    profile_arm("profile_fit_" + std::to_string(hz), hz,
                [&] { return FitOnce(w, false, ""); });
  }
  profile_arm("profile_serve_" + std::to_string(obs::kDefaultProfileHz),
              obs::kDefaultProfileHz,
              [&] { return ServePlaneOnce(sfx, false); });

  obs::Json out;
  out.Set("bench", "obs_overhead")
      .Set("manifest", HostManifest(obs::GitDescribe()))
      .Set("threads", static_cast<std::uint64_t>(EffectiveThreads()))
      .Set("fit", "NSL-KDD " + std::to_string(kFitRecords) + " records, " +
                      std::to_string(kFitEpochs) +
                      " epochs, residual 2 blocks x 32 channels, batch 256")
      .Set("serve", std::to_string(kServePasses) + " passes x " +
                        std::to_string(sfx.chunks.size() * kServeChunk) +
                        " records in " + std::to_string(kServeChunk) +
                        "-record lockstep chunks, 2 scorers, same model "
                        "width")
      .Set("metric_series", static_cast<std::uint64_t>(
                                obs::Registry::Global().SeriesCount()))
      .SetRaw("arms", JsonArray(rows));
  std::ofstream f(json_path);
  PELICAN_CHECK(f.is_open(), "cannot write " + json_path);
  f << out.Str() << '\n';
  std::printf("wrote %s\n", json_path.c_str());

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: an arm's weights or verdicts differ between off "
                 "and on\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pelican::bench

int main(int argc, char** argv) {
  return pelican::bench::Main(argc, argv);
}
