// pelican::obs tests: disabled-path silence, on-vs-off weight
// determinism, multi-threaded metric merges, Prometheus/JSON rendering,
// the shared histogram-quantile reader, trace validity + balanced
// nesting, flow events, the atomic line sink under contention, run-log
// JSONL structure, history round-trips, and the logging sink/format.
//
// Test order matters for the first two suites: they assert on the
// *global* registry/tracer before any test enables observability, so
// they are declared (and therefore run) first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/core.h"
#include "models/zoo.h"
#include "obs/obs.h"
#include "tensor/kernels.h"

namespace pelican {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

struct Toy {
  Tensor x;
  std::vector<int> y;
};

Toy MakeToy(int n = 96) {
  Rng rng(123);
  Toy t{Tensor::RandomNormal({n, 6}, rng, 0, 1), {}};
  t.y.reserve(n);
  for (int i = 0; i < n; ++i) t.y.push_back(i % 3);
  return t;
}

core::TrainConfig ToyConfig(int epochs) {
  core::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 32;
  tc.seed = 99;
  return tc;
}

std::vector<float> FlattenParams(nn::Sequential& net) {
  std::vector<float> out;
  for (const auto& p : net.Params()) {
    out.insert(out.end(), p.value->data().begin(), p.value->data().end());
  }
  return out;
}

// RAII guard: every test that enables observability restores the
// all-off default even on assertion failure, so later tests (and the
// declared-order-sensitive ones above) see a quiet process.
struct ObsOff {
  ~ObsOff() {
    obs::EnableMetrics(false);
    obs::EnableTracing(false);
    obs::ResetTrace();
  }
};

// ---- 1. disabled path is silent (runs first; see header comment) ----------

TEST(AaDisabledPath, InstrumentedCodeEmitsNothingWhileOff) {
  ASSERT_FALSE(obs::MetricsEnabled());
  ASSERT_FALSE(obs::TracingEnabled());

  // Exercise every instrumented layer: GEMM, pool shards, spans, a
  // full training run, and a log line.
  std::vector<float> a(16, 1.0F), b(16, 2.0F), c(16, 0.0F);
  kernels::Gemm(false, false, 4, 4, 4, a.data(), 4, b.data(), 4, c.data(), 4,
                false);
  ParallelForShards(0, 64, 8,
                    [](std::size_t, std::size_t, std::size_t) {});
  { obs::TraceSpan span("never-recorded", "test"); }
  const auto toy = MakeToy();
  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);
  core::Trainer trainer(*net, ToyConfig(1));
  trainer.Fit(toy.x, toy.y);
  PELICAN_LOG(Debug) << "below threshold, discarded";

  EXPECT_EQ(obs::Registry::Global().SeriesCount(), 0U);
  EXPECT_EQ(obs::TraceEventCount(), 0U);
  EXPECT_EQ(obs::TraceDroppedCount(), 0U);
  EXPECT_EQ(obs::Registry::Global().RenderPrometheus(), "");
}

// ---- 2. observability cannot change the math -------------------------------

TEST(AbDeterminism, WeightsBitIdenticalWithObsOnVsOff) {
  ObsOff guard;
  const auto toy = MakeToy();

  Rng rng_off(7);
  auto net_off = models::BuildMlp(6, 3, rng_off, 16);
  {
    core::Trainer trainer(*net_off, ToyConfig(4));
    trainer.Fit(toy.x, toy.y);
  }

  obs::EnableMetrics(true);
  obs::EnableTracing(true);
  Rng rng_on(7);
  auto net_on = models::BuildMlp(6, 3, rng_on, 16);
  {
    auto tc = ToyConfig(4);
    tc.run_log_path = TempPath("obs_determinism_run.jsonl");
    core::Trainer trainer(*net_on, tc);
    trainer.Fit(toy.x, toy.y);
  }

  // The instrumented run actually observed something...
  EXPECT_GT(obs::Registry::Global().CounterValue("pelican_gemm_calls_total"),
            0U);
  EXPECT_GT(obs::TraceEventCount(), 0U);

  // ...and the weights are bit-for-bit those of the silent run.
  const auto w_off = FlattenParams(*net_off);
  const auto w_on = FlattenParams(*net_on);
  ASSERT_EQ(w_off.size(), w_on.size());
  EXPECT_EQ(std::memcmp(w_off.data(), w_on.data(),
                        w_off.size() * sizeof(float)),
            0);
}

// ---- metrics registry ------------------------------------------------------

TEST(MetricsRegistry, FourThreadCounterAndHistogramMergeIsExact) {
  ObsOff guard;
  obs::EnableMetrics(true);
  obs::Registry registry;  // private; the global stays untouched
  obs::Counter counter = registry.GetCounter("merge_total", "help");
  obs::Histogram hist = registry.GetHistogram(
      "merge_seconds", "help", {0.5, 1.5, 2.5, 3.5});

  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Inc();
        hist.Observe(static_cast<double>(i % 5));
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(registry.CounterValue("merge_total"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto snap = registry.HistogramValue("merge_seconds");
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  // i%5 lands 2000 values per thread in each of buckets 0..3 and +Inf.
  ASSERT_EQ(snap.bucket_counts.size(), 5U);
  for (const auto n : snap.bucket_counts) {
    EXPECT_EQ(n, static_cast<std::uint64_t>(kThreads) * 2000U);
  }
  // Σ (0+1+2+3+4)·2000 per thread.
  EXPECT_DOUBLE_EQ(snap.sum, kThreads * 20000.0);
}

TEST(MetricsRegistry, PrometheusAndJsonRender) {
  ObsOff guard;
  obs::EnableMetrics(true);
  obs::Registry registry;
  registry.GetCounter("pelican_widgets_total", "Widgets made",
                      {{"kind", "round"}})
      .Inc(3);
  registry.GetGauge("pelican_temperature", "Current temp").Set(21.5);
  obs::Histogram hist =
      registry.GetHistogram("pelican_latency_seconds", "Latency", {1.0, 2.0});
  hist.Observe(0.5);
  hist.Observe(1.5);
  hist.Observe(9.0);

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP pelican_widgets_total Widgets made"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pelican_widgets_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("pelican_widgets_total{kind=\"round\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pelican_temperature gauge"), std::string::npos);
  EXPECT_NE(text.find("pelican_temperature 21.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pelican_latency_seconds histogram"),
            std::string::npos);
  // Cumulative le buckets: 1 at le=1, 2 at le=2, 3 at +Inf.
  EXPECT_NE(text.find("pelican_latency_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pelican_latency_seconds_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pelican_latency_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("pelican_latency_seconds_count 3"), std::string::npos);
  EXPECT_NE(text.find("pelican_latency_seconds_sum 11"), std::string::npos);

  const auto json = obs::ParseJson(registry.RenderJson());
  ASSERT_TRUE(json.has_value());
  ASSERT_EQ(json->type, obs::JsonValue::Type::kArray);
  EXPECT_EQ(json->array.size(), registry.SeriesCount());
}

TEST(MetricsRegistry, RegistrationIsIdempotentAndKindSafe) {
  ObsOff guard;
  obs::EnableMetrics(true);
  obs::Registry registry;
  obs::Counter a = registry.GetCounter("twice_total", "h");
  obs::Counter b = registry.GetCounter("twice_total", "h");
  a.Inc();
  b.Inc();
  EXPECT_EQ(registry.CounterValue("twice_total"), 2U);
  EXPECT_EQ(registry.SeriesCount(), 1U);
  EXPECT_THROW(registry.GetGauge("twice_total", "h"), CheckError);
  EXPECT_THROW(registry.GetHistogram("hist", "h", {}), CheckError);
}

// Scrape-format details a real Prometheus parser would choke on if we
// got them wrong: label-value escaping (backslash, quote, newline),
// HELP-text escaping (backslash, newline), and HELP/TYPE emitted
// exactly once per family even with several label sets.
TEST(MetricsRegistry, ScrapeEscapingAndOneHelpTypePerFamily) {
  ObsOff guard;
  obs::EnableMetrics(true);
  obs::Registry registry;
  const std::string help = "paths use \\ and\nspan lines";
  registry.GetCounter("esc_total", help, {{"path", "C:\\tmp"}}).Inc(1);
  registry.GetCounter("esc_total", help, {{"msg", "say \"hi\"\nbye"}})
      .Inc(2);

  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP esc_total paths use \\\\ and\\nspan lines"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("esc_total{path=\"C:\\\\tmp\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("esc_total{msg=\"say \\\"hi\\\"\\nbye\"} 2"),
            std::string::npos)
      << text;

  auto occurrences = [&text](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences("# HELP esc_total"), 1U);
  EXPECT_EQ(occurrences("# TYPE esc_total"), 1U);
  // An escaped newline must not have produced a raw line break: every
  // rendered line is a comment or starts with the family name.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(line.rfind("# ", 0) == 0 || line.rfind("esc_total", 0) == 0)
        << "stray line: " << line;
  }
}

TEST(MetricsRegistry, FamilyKindAndHelpMustAgreeAcrossLabelSets) {
  ObsOff guard;
  obs::EnableMetrics(true);
  obs::Registry registry;
  registry.GetCounter("fam_total", "h", {{"shard", "0"}}).Inc();
  // Same family, different label set: fine.
  registry.GetCounter("fam_total", "h", {{"shard", "1"}}).Inc();
  // Same name as a different kind, or with conflicting help: rejected
  // even though the label set differs (Prometheus families are
  // per-name, not per-series).
  EXPECT_THROW(registry.GetGauge("fam_total", "h", {{"shard", "2"}}),
               CheckError);
  EXPECT_THROW(registry.GetCounter("fam_total", "other", {{"shard", "3"}}),
               CheckError);
}

// The shared quantile reader (the perfbench census serve burst and the
// /serve JSON both call it): linear interpolation inside the crossing
// bucket, the +Inf bucket reports its lower edge, and zero added mass
// reports -1.
TEST(MetricsRegistry, HistogramQuantileDeltaInterpolatesAndHandlesEdges) {
  obs::Registry::HistogramSnapshot snap;
  snap.upper_bounds = {1.0, 2.0, 4.0};
  snap.bucket_counts = {2, 0, 6, 2};  // last entry is the +Inf bucket
  snap.count = 10;

  // No mass: empty snapshot, or identical before/after.
  EXPECT_EQ(obs::HistogramQuantile(obs::Registry::HistogramSnapshot{}, 0.5),
            -1.0);
  EXPECT_EQ(obs::HistogramQuantileDelta(snap, snap, 0.5), -1.0);

  // target 2 lands exactly at the top of bucket [0, 1).
  EXPECT_NEAR(obs::HistogramQuantile(snap, 0.2), 1.0, 1e-12);
  // target 5: 2 below the crossing bucket [2, 4) holding 6 → 2 + 2*3/6.
  EXPECT_NEAR(obs::HistogramQuantile(snap, 0.5), 3.0, 1e-12);
  // target 9.5 crosses into +Inf → its lower edge, not an invented UB.
  EXPECT_NEAR(obs::HistogramQuantile(snap, 0.95), 4.0, 1e-12);

  // Delta form: only mass added between the snapshots counts.
  obs::Registry::HistogramSnapshot after = snap;
  after.bucket_counts = {2, 4, 6, 2};
  after.count = 14;
  EXPECT_NEAR(obs::HistogramQuantileDelta(snap, after, 0.5), 1.5, 1e-12);
}

// ---- tracing ---------------------------------------------------------------

// Returns the "X" (complete) events of `json`, grouped by tid.
std::map<double, std::vector<const obs::JsonValue*>> EventsByTid(
    const obs::JsonValue& doc) {
  std::map<double, std::vector<const obs::JsonValue*>> by_tid;
  const obs::JsonValue* events = doc.Find("traceEvents");
  EXPECT_NE(events, nullptr);
  for (const auto& ev : events->array) {
    const obs::JsonValue* ph = ev.Find("ph");
    if (ph == nullptr || ph->str != "X") continue;
    bool complete = true;
    for (const char* key : {"ts", "dur", "tid", "pid"}) {
      const obs::JsonValue* v = ev.Find(key);
      EXPECT_TRUE(v != nullptr && v->IsNumber()) << key;
      complete = complete && v != nullptr && v->IsNumber();
    }
    EXPECT_TRUE(ev.Find("name") != nullptr && ev.Find("name")->IsString());
    EXPECT_TRUE(ev.Find("cat") != nullptr && ev.Find("cat")->IsString());
    if (complete) by_tid[ev.Find("tid")->number].push_back(&ev);
  }
  return by_tid;
}

TEST(Trace, JsonIsValidAndSpansNestPerThread) {
  ObsOff guard;
  obs::EnableTracing(true);
  obs::ResetTrace();

  {
    obs::TraceSpan parent("parent", "test");
    { obs::TraceSpan child("child-one", "test"); }
    { obs::TraceSpan child("child-two", "test"); }
  }
  std::thread other([] {
    obs::TraceSpan span("other-thread", "test");
  });
  other.join();
  ASSERT_EQ(obs::TraceEventCount(), 4U);

  const auto doc = obs::ParseJson(obs::TraceJson());
  ASSERT_TRUE(doc.has_value());

  // Thread-name metadata rows exist for both participating threads.
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t metadata_rows = 0;
  for (const auto& ev : events->array) {
    const obs::JsonValue* ph = ev.Find("ph");
    if (ph != nullptr && ph->str == "M") ++metadata_rows;
  }
  EXPECT_GE(metadata_rows, 2U);

  auto by_tid = EventsByTid(*doc);
  EXPECT_EQ(by_tid.size(), 2U);
  std::size_t total = 0;
  for (auto& [tid, evs] : by_tid) {
    total += evs.size();
    // Balanced nesting: walking events by start time with a stack of
    // open intervals, every event must fit entirely inside the
    // innermost still-open one. (ts/dur are µs with 3 decimals; allow
    // that rounding at the boundaries.)
    constexpr double kEps = 2e-3;
    std::sort(evs.begin(), evs.end(),
              [](const obs::JsonValue* a, const obs::JsonValue* b) {
                const double ta = a->Find("ts")->number;
                const double tb = b->Find("ts")->number;
                if (ta != tb) return ta < tb;
                return a->Find("dur")->number > b->Find("dur")->number;
              });
    std::vector<double> open_ends;
    for (const auto* ev : evs) {
      const double ts = ev->Find("ts")->number;
      const double end = ts + ev->Find("dur")->number;
      while (!open_ends.empty() && open_ends.back() <= ts + kEps) {
        open_ends.pop_back();
      }
      if (!open_ends.empty()) {
        EXPECT_LE(end, open_ends.back() + kEps)
            << "span overlaps its parent without nesting";
      }
      open_ends.push_back(end);
    }
  }
  EXPECT_EQ(total, 4U);
}

TEST(Trace, OverflowCountsDropsInsteadOfGrowing) {
  ObsOff guard;
  obs::EnableTracing(true);
  obs::EnableMetrics(true);  // drops must also surface to scrapers
  obs::ResetTrace();
  obs::SetTraceCapacity(4);
  const auto dropped0 =
      obs::Registry::Global().CounterValue("pelican_trace_dropped_total");
  // A fresh thread gets a buffer created under the new cap.
  std::thread worker([] {
    for (int i = 0; i < 10; ++i) {
      obs::TraceSpan span("burst", "test");
    }
  });
  worker.join();
  EXPECT_EQ(obs::TraceEventCount(), 4U);
  EXPECT_EQ(obs::TraceDroppedCount(), 6U);
  // The same drops via the pelican_trace_dropped_total counter — a
  // scraper sees buffer overflow without fetching /trace.
  EXPECT_EQ(obs::Registry::Global().CounterValue(
                "pelican_trace_dropped_total") - dropped0,
            6U);
  obs::SetTraceCapacity(1U << 20);
}

// Flow events (the serve plane's cross-thread arrows) serialize as
// valid JSON rows sharing one hex id; the end point binds to its
// enclosing slice.
TEST(Trace, FlowEventsRenderValidJsonAndShareIds) {
  ObsOff guard;
  obs::EnableTracing(true);
  obs::ResetTrace();

  {
    obs::TraceSpan span("producer", "test");
    obs::TraceFlow(obs::FlowPhase::kStart, 0xbeef, "chunk", "test");
  }
  std::thread consumer([] {
    obs::TraceSpan span("consumer", "test");
    obs::TraceFlow(obs::FlowPhase::kStep, 0xbeef, "chunk", "test");
    obs::TraceFlow(obs::FlowPhase::kEnd, 0xbeef, "chunk", "test");
  });
  consumer.join();

  const auto doc = obs::ParseJson(obs::TraceJson());
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  double start_tid = -1, step_tid = -1;
  int flow_points = 0;
  for (const auto& ev : events->array) {
    const obs::JsonValue* ph = ev.Find("ph");
    if (ph == nullptr ||
        (ph->str != "s" && ph->str != "t" && ph->str != "f")) {
      continue;
    }
    ++flow_points;
    const obs::JsonValue* id = ev.Find("id");
    ASSERT_TRUE(id != nullptr && id->IsString());
    EXPECT_EQ(id->str, "0xbeef");
    ASSERT_TRUE(ev.Find("ts") != nullptr && ev.Find("ts")->IsNumber());
    ASSERT_TRUE(ev.Find("tid") != nullptr && ev.Find("tid")->IsNumber());
    if (ph->str == "s") start_tid = ev.Find("tid")->number;
    if (ph->str == "t") step_tid = ev.Find("tid")->number;
    if (ph->str == "f") {
      const obs::JsonValue* bp = ev.Find("bp");
      ASSERT_TRUE(bp != nullptr && bp->IsString());
      EXPECT_EQ(bp->str, "e");  // bind to the enclosing slice
    }
  }
  EXPECT_EQ(flow_points, 3);
  EXPECT_NE(start_tid, step_tid);  // the arrow crosses threads

  // Disabled, TraceFlow records nothing.
  const auto before = obs::TraceEventCount();
  obs::EnableTracing(false);
  obs::TraceFlow(obs::FlowPhase::kStart, 0xdead, "noop", "test");
  EXPECT_EQ(obs::TraceEventCount(), before);
}

// ---- line sink --------------------------------------------------------------

// The "one line, one write" contract under contention: four writers
// hammer one sink (and a copy, which shares the file and mutex); every
// line on disk is exactly one writer's payload, never a splice.
TEST(LineSink, ConcurrentWritersNeverTearLines) {
  const auto path = TempPath("obs_line_sink_tear.txt");
  obs::LineSink sink(path, /*truncate=*/true);
  ASSERT_TRUE(sink.active());
  EXPECT_EQ(sink.path(), path);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&sink, t] {
      obs::LineSink handle = sink;  // copies share file + mutex
      const std::string payload(100, static_cast<char>('a' + t));
      for (int i = 0; i < kPerThread; ++i) {
        EXPECT_TRUE(handle.WriteLine(payload));
      }
    });
  }
  for (auto& w : writers) w.join();

  const auto lines = Lines(ReadAll(path));
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::map<char, int> per_writer;
  for (const auto& line : lines) {
    ASSERT_EQ(line.size(), 100U);
    ASSERT_EQ(line.find_first_not_of(line[0]), std::string::npos)
        << "torn line: " << line;
    ++per_writer[line[0]];
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(per_writer[static_cast<char>('a' + t)], kPerThread);
  }

  // A default-constructed sink is inactive and refuses quietly.
  obs::LineSink inactive;
  EXPECT_FALSE(inactive.active());
  EXPECT_FALSE(inactive.WriteLine("dropped"));
}

// ---- run log ---------------------------------------------------------------

TEST(RunLog, WritesOneParseableFlushedLinePerEvent) {
  const auto path = TempPath("obs_runlog_unit.jsonl");
  obs::RunLog log(path);
  ASSERT_TRUE(log.active());
  log.Write(obs::Json().Set("event", "one").Set("value", 1));
  log.Write(obs::Json().Set("event", "two").Set("quoted", "a\"b\nc"));

  // Flush-per-line: both lines are on disk while the log is open.
  const auto lines = Lines(ReadAll(path));
  ASSERT_EQ(lines.size(), 2U);
  for (const auto& line : lines) {
    const auto parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_NE(parsed->Find("event"), nullptr);
  }
  EXPECT_EQ(obs::ParseJson(lines[1])->Find("quoted")->str, "a\"b\nc");

  obs::RunLog inactive;
  EXPECT_FALSE(inactive.active());
  inactive.Write(obs::Json().Set("dropped", true));  // no-op, no crash
}

TEST(RunLog, TrainerEmitsManifestsAndEpochEvents) {
  const auto path = TempPath("obs_runlog_trainer.jsonl");
  const auto toy = MakeToy();
  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);
  auto tc = ToyConfig(3);
  tc.run_log_path = path;
  core::Trainer trainer(*net, tc);
  trainer.Fit(toy.x, toy.y, &toy.x, toy.y);

  const auto lines = Lines(ReadAll(path));
  ASSERT_EQ(lines.size(), 5U);  // run_start + 3 epochs + run_end
  std::vector<obs::JsonValue> events;
  for (const auto& line : lines) {
    auto parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    events.push_back(std::move(*parsed));
  }

  const auto& start = events.front();
  EXPECT_EQ(start.Find("event")->str, "run_start");
  EXPECT_EQ(start.Find("seed")->number, 99.0);
  EXPECT_GE(start.Find("threads")->number, 1.0);
  EXPECT_EQ(start.Find("train_rows")->number, 96.0);
  ASSERT_NE(start.Find("config"), nullptr);
  EXPECT_EQ(start.Find("config")->Find("epochs")->number, 3.0);
  EXPECT_NE(start.Find("git"), nullptr);
  ASSERT_NE(start.Find("build_flags"), nullptr);
  EXPECT_EQ(start.Find("build_flags")->str.find("native="), std::string::npos);
  ASSERT_NE(start.Find("gemm"), nullptr);
  EXPECT_EQ(start.Find("gemm")->str, kernels::IsaName());

  for (int e = 1; e <= 3; ++e) {
    const auto& ev = events[static_cast<std::size_t>(e)];
    EXPECT_EQ(ev.Find("event")->str, "epoch");
    EXPECT_EQ(ev.Find("epoch")->number, static_cast<double>(e));
    for (const char* key : {"train_loss", "train_accuracy", "test_loss",
                            "test_accuracy", "grad_norm", "lr", "seconds",
                            "rows_per_sec"}) {
      const obs::JsonValue* v = ev.Find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_TRUE(v->IsNumber()) << key;
    }
    EXPECT_GT(ev.Find("grad_norm")->number, 0.0);
    EXPECT_GT(ev.Find("rows_per_sec")->number, 0.0);
  }

  const auto& end = events.back();
  EXPECT_EQ(end.Find("event")->str, "run_end");
  EXPECT_EQ(end.Find("epochs_completed")->number, 3.0);
  EXPECT_EQ(end.Find("stopped_early")->boolean, false);
  EXPECT_GT(end.Find("wall_seconds")->number, 0.0);
}

// ---- history round-trips ---------------------------------------------------

core::TrainHistory MakeHistory() {
  core::TrainHistory history;
  core::EpochStats a;
  a.epoch = 1;
  a.train_loss = 1.2345678F;
  a.train_accuracy = 0.3333333F;
  a.recoveries = 2;
  core::EpochStats b;
  b.epoch = 2;
  b.train_loss = 0.87654321F;
  b.train_accuracy = 0.99999988F;  // needs 9 digits to round-trip
  b.test_loss = 0.5F;
  b.test_accuracy = 0.75F;
  history.push_back(a);
  history.push_back(b);
  return history;
}

void ExpectHistoriesEqual(const core::TrainHistory& lhs,
                          const core::TrainHistory& rhs) {
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].epoch, rhs[i].epoch);
    EXPECT_EQ(lhs[i].train_loss, rhs[i].train_loss);
    EXPECT_EQ(lhs[i].train_accuracy, rhs[i].train_accuracy);
    EXPECT_EQ(lhs[i].test_loss, rhs[i].test_loss);
    EXPECT_EQ(lhs[i].test_accuracy, rhs[i].test_accuracy);
    EXPECT_EQ(lhs[i].recoveries, rhs[i].recoveries);
  }
}

TEST(History, CsvRoundTripsExactly) {
  const auto path = TempPath("obs_history.csv");
  const auto history = MakeHistory();
  core::WriteHistoryCsv(history, path);
  ExpectHistoriesEqual(history, core::ReadHistoryCsv(path));
}

TEST(History, JsonlRoundTripsExactly) {
  const auto path = TempPath("obs_history.jsonl");
  const auto history = MakeHistory();
  core::WriteHistoryJsonl(history, path);
  // Every line is standalone JSON with the run-log epoch schema.
  for (const auto& line : Lines(ReadAll(path))) {
    const auto parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_NE(parsed->Find("epoch"), nullptr);
  }
  ExpectHistoriesEqual(history, core::ReadHistoryJsonl(path));
}

// ---- logging sink + format -------------------------------------------------

TEST(Logging, FileSinkReceivesFormattedLines) {
  const auto path = TempPath("obs_log_sink.log");
  std::error_code ec;
  fs::remove(path, ec);
  SetLogFile(path);
  PELICAN_LOG(Info) << "obs-sink-line " << 42;
  SetLogFile("");  // closes the sink

  const auto lines = Lines(ReadAll(path));
  ASSERT_EQ(lines.size(), 1U);
  // [2026-08-05T12:00:00.123Z INFO tid=1 obs_test.cpp:NNN] obs-sink-line 42
  const std::regex format(
      R"(^\[\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z INFO tid=\d+ )"
      R"(obs_test\.cpp:\d+\] obs-sink-line 42$)");
  EXPECT_TRUE(std::regex_match(lines[0], format)) << lines[0];
  EXPECT_THROW(SetLogFile("/nonexistent-dir-zz/x.log"), CheckError);
}

TEST(Logging, FinalEpochAlwaysLoggedRegardlessOfLogEvery) {
  const auto toy = MakeToy();
  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);
  auto tc = ToyConfig(3);
  tc.verbose = true;
  tc.log_every = 1000;  // never divides 3
  core::Trainer trainer(*net, tc);
  ::testing::internal::CaptureStderr();
  trainer.Fit(toy.x, toy.y);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("epoch 3/3"), std::string::npos) << err;
  EXPECT_NE(err.find("rows/s="), std::string::npos) << err;
  // Non-final epochs stay quiet at this log_every.
  EXPECT_EQ(err.find("epoch 1/3"), std::string::npos) << err;
}

TEST(Logging, EarlyStopFinalEpochIsLogged) {
  const auto toy = MakeToy();
  Rng rng(7);
  auto net = models::BuildMlp(6, 3, rng, 16);
  auto tc = ToyConfig(50);
  tc.verbose = true;
  tc.log_every = 1000;
  tc.early_stopping_patience = 1;
  tc.early_stopping_min_delta = 1e9F;  // nothing ever counts as better
  core::Trainer trainer(*net, tc);
  ::testing::internal::CaptureStderr();
  const auto history = trainer.Fit(toy.x, toy.y, &toy.x, toy.y);
  const std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_LT(history.size(), 50U);
  const std::string last =
      "epoch " + std::to_string(history.back().epoch) + "/50";
  EXPECT_NE(err.find(last), std::string::npos) << err;
  EXPECT_NE(err.find("early stop at epoch"), std::string::npos) << err;
}

}  // namespace
}  // namespace pelican
