// Shared pieces of the perfbench binary: options, the span recorder
// behind traced runs, the metric report, and the workload entry points.
//
// The benchmark drives the library's public API in-process. Nothing in
// the library is instrumented for it: traced runs record spans around
// the calls the benchmark itself makes (Tracer below), and untraced
// runs record nothing but their end-to-end timings.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/pelican_ids.h"

namespace pelican::serve {
struct ScoringServerConfig;
}

namespace perfbench {

namespace core = pelican::core;
namespace data = pelican::data;

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Intra-op pool threads of every timed phase, and scorers of the census
// serve burst. The program's default is one of each per core (4 on a
// 4-vCPU host), but on a 4-vCPU host shared with other machines' work
// every thread beyond the first mostly measures the hypervisor: with 4
// pool threads a classify run lost ~12 s to steal and ran InspectAll at
// 1.8–2.0k rows/s, with 2 at 2.0–2.9k, with 1 at a steady 3.7–3.8k. The
// traced run's census still times the layers on the default pool.
inline constexpr std::size_t kThreads = 1;
inline constexpr std::size_t kScorers = 1;

struct Options {
  std::string workload;
  std::string dir;        // fixture directory (CSV + model files)
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time per run, split over phases
  bool tiny = false;      // shrunken corpora for the smoke check
  std::string trace_out;  // non-empty → traced run, Chrome trace here
  std::string git = "unknown";  // the measured commit, for the manifest
};

// Per-workload shape: which dataset and how big the seeded corpora are.
// Every model is full width (as many channels as encoded features).
struct WorkloadSpec {
  std::string name;
  std::string dataset;         // "nsl" or "unsw"
  std::size_t fit_rows = 0;    // rows the fixture model is trained on
  int fit_epochs = 1;
  std::size_t corpus_rows = 0; // rows the workload itself runs on
};
WorkloadSpec SpecFor(const Options& options);
data::Schema SchemaFor(const std::string& dataset);
core::IdsConfig IdsConfigFor(const WorkloadSpec& spec, std::uint64_t seed);

// ---- statistics -----------------------------------------------------------

// Linear-interpolated quantile (q in [0,1]); NaN for no samples.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}
// Per-run aggregates of per-round samples, each chosen for the least
// spread over ten runs on a shared host: there the speed of a whole run
// drifts by up to 1.6×, and within a run quiet bursts alternate with
// stalls (see perfbench/README.md).
inline double LowerDecile(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.1);
}
inline double LowerQuartile(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.25);
}
inline double UpperQuartile(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.75);
}

// FNV-1a 64 over a byte stream, for output fingerprints.
class Fnv64 {
 public:
  void Add(const void* data, std::size_t n);
  void Add(std::string_view s) { Add(s.data(), s.size()); }
  [[nodiscard]] std::string Hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---- tracing ----------------------------------------------------------------

// In-memory span recorder. One thread at a time; spans nest by the
// order Begin/End are called. Written out as Chrome-trace JSON when the
// run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0, end_us = 0;
    int parent = -1;
    std::uint64_t request = 0;
  };

  int Begin(std::string name, std::uint64_t request);
  void End(int id);
  // A span whose times were taken elsewhere (e.g. between two library
  // callbacks); nests under whatever span is open.
  void Add(std::string name, Clock::time_point start, Clock::time_point end,
           std::uint64_t request);

  [[nodiscard]] std::vector<double> DurationsUs(std::string_view name) const;
  // Total self time (duration minus the time child spans cover) per
  // span name, largest first.
  [[nodiscard]] std::vector<std::pair<std::string, double>> SelfTimeUs() const;
  void WriteChromeTrace(const std::string& path,
                        const std::string& manifest_json) const;

 private:
  [[nodiscard]] double Us(Clock::time_point t) const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op when the tracer is null (untraced runs).
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(std::move(name), request) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---- results -------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;       // the samples' median, or their aggregate
  std::size_t n = 1;      // sample count
  double p25 = 0, p75 = 0;
};

class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}

  // An end-to-end metric aggregated over its per-round samples. A
  // traced run reports it as the per-layer metric "traced.<name>",
  // beside the per-layer numbers, so the tracing overhead shows against
  // the untraced run's value.
  void E2e(const std::string& name, const std::string& unit,
           const std::vector<double>& samples,
           double (*aggregate)(std::vector<double>));
  // A tail latency, aggregated like E2e. Too unsteady on a shared host
  // to be an end-to-end metric, it is a note of the untraced run and
  // the per-layer metric "traced.<name>" of the traced one.
  void Tail(const std::string& name, const std::string& unit,
            const std::vector<double>& samples,
            double (*aggregate)(std::vector<double>));
  // A per-layer metric (traced runs only).
  void Layer(const std::string& name, const std::string& unit,
             const std::vector<double>& samples);
  void Layer(const std::string& name, const std::string& unit, double value) {
    Layer(name, unit, std::vector<double>{value});
  }

  // A correctness check; a false one is a failure.
  void Check(bool ok, const std::string& what);
  void Attempt(std::uint64_t n) { attempted_ += n; }
  void Fail(std::uint64_t n, const std::string& what);
  void Note(const std::string& line) { notes_.push_back(line); }

  // Human-readable lines, then the manifest line, then the result JSON
  // as the last stdout line. Returns the number of failures.
  std::uint64_t Print(const std::string& manifest_json) const;

 private:
  bool traced_;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0, failed_ = 0, checks_ = 0;
};

// Host + build manifest as one JSON object.
std::string HostManifest(const std::string& git, std::size_t scorers);
// Peak resident set of this process in MB (VmHWM).
double PeakRssMb();

// ---- workloads ---------------------------------------------------------------

// Generates the seeded corpus as CSV and trains + saves the fixture
// model (with its .pre and .quant sidecars) on records drawn from the
// same seed. Runs in its own process so the measured run's memory and
// time never include it.
void Prepare(const Options& options);

struct Fixture {
  data::Schema schema;
  std::string corpus_csv, model_path;
};
Fixture FixtureFor(const Options& options);
// The server config of every serve phase: the defaults, kScorers scorers.
pelican::serve::ScoringServerConfig ServeConfig();
// PelicanIds::Load of the fixture model with its sidecars.
std::unique_ptr<core::PelicanIds> LoadModel(const Fixture& fixture,
                                            const WorkloadSpec& spec,
                                            std::uint64_t seed);
// The corpus CSV's data lines, which are exactly the server's wire format.
std::vector<std::string> WireLines(const std::string& csv_path);

// Untraced runs pass a null tracer.
void RunTrain(const Options& options, Report& report, Tracer* tracer);
void RunClassify(const Options& options, bool int8, Report& report,
                 Tracer* tracer);

// Open/closed-loop loopback load against a running ScoringServer (the
// census serve burst): one generator thread multiplexing
// kLoadConnections sockets with poll.
struct LoadResult {
  std::vector<double> closed_window_rps;  // ok replies/s per window
  std::vector<double> open_latency_ms;    // per record, from its due time
  std::vector<double> gen_late_ms;        // per write, send − due
  // Replies that are `ok` but differ from the expected bytes, replies
  // that are not `ok`, and records never answered.
  std::uint64_t sent = 0, ok = 0, mismatched = 0, not_ok = 0, missing = 0;
};
struct LoadPlan {
  std::size_t in_flight = 256;     // closed loop, per connection
  double closed_s = 0;
  double open_rate = 10000;        // records/s, open loop
  std::size_t write_records = 16;  // records per open-loop write
  double open_s = 0;
  double window_s = 0.5;            // closed-loop rate is taken per window
};

// Two connections: each adds a server connection thread, and threads
// beyond the host's few cores mostly measure its scheduler (eight made
// the hypervisor steal about five times as much time as two).
inline constexpr std::size_t kLoadConnections = 2;

// Non-blocking loopback client sockets, closed on destruction; reused
// by every phase of a run, so the server's connection threads do not
// churn between rounds.
class Connections {
 public:
  Connections(std::uint16_t port, std::size_t n);
  ~Connections();
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;
  [[nodiscard]] const std::vector<int>& fds() const { return fds_; }

 private:
  std::vector<int> fds_;
};

LoadResult DriveServer(const Connections& connections,
                       const std::vector<std::string>& lines,
                       const std::vector<std::string>& expected,
                       const LoadPlan& plan, Tracer* tracer);

// The census: per-layer timings of the workload's model (inference and
// training layers, kernels, data, core and serve), plus the ROADMAP
// baseline table. Traced runs only.
void RunCensus(const Options& options, std::int64_t train_recoveries,
               Report& report, Tracer& tracer);

}  // namespace perfbench
