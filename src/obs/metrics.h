// pelican::obs — process-wide metrics registry.
//
// Counters, gauges and fixed-bucket histograms, identified by
// (name, labels). The hot path is a single relaxed atomic load when
// metrics are disabled (the default), and an uncontended relaxed
// atomic add into a lock-free thread-local shard when enabled: each
// (series, thread) pair owns a private cell that only its thread ever
// writes, and a scrape merges the cells under the registry mutex. No
// instrumented code path allocates or takes a lock in steady state, so
// the PR-2/PR-3 bit-identical determinism contract is untouched —
// metrics observe the computation without participating in it.
//
//   obs::EnableMetrics(true);
//   static obs::Counter calls =
//       obs::Registry::Global().GetCounter("pelican_gemm_calls_total",
//                                          "SGEMM invocations");
//   calls.Inc();
//   std::string text = obs::Registry::Global().RenderPrometheus();
//
// Handles are cheap value types; registration is idempotent (same
// name + labels returns the same series). Instrumentation sites gate
// handle construction on MetricsEnabled() so a fully-disabled process
// never registers a series and a scrape renders empty.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pelican::obs {

namespace detail {
extern std::atomic<bool> g_metrics_enabled;
struct Series;
}  // namespace detail

// Process-wide switch; all handles no-op while false (the default).
void EnableMetrics(bool on);
inline bool MetricsEnabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

// Label set attached to a series, rendered in registration order.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonically increasing integer series.
class Counter {
 public:
  Counter() = default;
  void Inc(std::uint64_t n = 1);

 private:
  friend class Registry;
  explicit Counter(detail::Series* series) : series_(series) {}
  detail::Series* series_ = nullptr;
};

// Last-write-wins double series (rows/s, current loss, ...).
class Gauge {
 public:
  Gauge() = default;
  void Set(double value);

 private:
  friend class Registry;
  explicit Gauge(detail::Series* series) : series_(series) {}
  detail::Series* series_ = nullptr;
};

// Fixed-bucket histogram (Prometheus cumulative-`le` semantics).
class Histogram {
 public:
  Histogram() = default;
  void Observe(double value);

 private:
  friend class Registry;
  friend class HistogramBatch;
  explicit Histogram(detail::Series* series) : series_(series) {}
  detail::Series* series_ = nullptr;
};

// Stack accumulator for a burst of observations into one histogram
// from one thread. Observe() only bumps a local table — no atomics —
// and Flush() (or the destructor) lands the burst on the shared shard
// with at most one RMW per non-empty bucket. The serve reader drains
// a whole micro-batch of stage latencies per histogram this way.
// Histograms wider than the local table (more than 31 bounds;
// DefaultTimeBuckets has 12) fall back to per-value Observe.
class HistogramBatch {
 public:
  explicit HistogramBatch(Histogram h);
  ~HistogramBatch() { Flush(); }
  HistogramBatch(const HistogramBatch&) = delete;
  HistogramBatch& operator=(const HistogramBatch&) = delete;

  void Observe(double value);
  void Flush();

 private:
  static constexpr std::size_t kSlots = 32;  // buckets incl. +Inf
  detail::Series* series_ = nullptr;
  const std::vector<double>* bounds_ = nullptr;  // null → fallback
  std::size_t last_idx_ = 0;  // bucket hint: bursts cluster in one bucket
  double sum_ = 0.0;
  std::uint32_t n_ = 0;
  std::uint32_t counts_[kSlots] = {};
};

// Exponential seconds buckets, 1 µs .. 4 s, for latency histograms.
std::vector<double> DefaultTimeBuckets();

class Registry {
 public:
  // The process-wide registry every built-in instrument registers with.
  // (Intentionally leaked so worker threads may record during static
  // destruction.) Tests may construct private registries; series ids
  // are unique across all of them.
  static Registry& Global();

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Find-or-create. Throws CheckError if the (name, labels) series
  // already exists with a different kind (or, for histograms,
  // different buckets).
  Counter GetCounter(const std::string& name, const std::string& help,
                     Labels labels = {});
  Gauge GetGauge(const std::string& name, const std::string& help,
                 Labels labels = {});
  Histogram GetHistogram(const std::string& name, const std::string& help,
                         std::vector<double> buckets, Labels labels = {});

  // Prometheus text exposition format (HELP/TYPE grouped per name).
  [[nodiscard]] std::string RenderPrometheus();
  // The same scrape as a JSON array of series objects.
  [[nodiscard]] std::string RenderJson();

  // Merged read-back for tests; zeros / empty when the series is absent.
  struct HistogramSnapshot {
    std::vector<double> upper_bounds;        // excludes +Inf
    std::vector<std::uint64_t> bucket_counts;  // per-bucket, incl. +Inf
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  [[nodiscard]] std::uint64_t CounterValue(const std::string& name,
                                           const Labels& labels = {});
  [[nodiscard]] double GaugeValue(const std::string& name,
                                  const Labels& labels = {});
  [[nodiscard]] HistogramSnapshot HistogramValue(const std::string& name,
                                                 const Labels& labels = {});
  [[nodiscard]] std::size_t SeriesCount();

  // Zeroes every cell of every series (callers must be quiescent —
  // intended for tests and benchmarks, not concurrent scrapes).
  void Reset();

 private:
  struct Impl;
  Impl* impl_;
};

// Linear-interpolated quantile (q in [0,1]) of the observation mass
// added between two snapshots of one cumulative-bucket histogram
// series; -1 when no mass was added. Mass landing in the +Inf bucket
// reports that bucket's lower edge rather than inventing an upper
// bound. This is THE quantile reader — the perfbench census serve
// burst and the /serve JSON summary both call it, so the two can't
// silently diverge when series labels or buckets change.
double HistogramQuantileDelta(const Registry::HistogramSnapshot& before,
                              const Registry::HistogramSnapshot& after,
                              double q);

// From-zero read of a single snapshot.
inline double HistogramQuantile(const Registry::HistogramSnapshot& snap,
                                double q) {
  return HistogramQuantileDelta({}, snap, q);
}

}  // namespace pelican::obs
