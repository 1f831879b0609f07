// Sampling-profiler tests: span-path push/pop + interning, signal-storm
// weight determinism through 4-thread GEMM-backed training, exact drop
// accounting on ring overflow, collapsed-stack format + dual (span +
// native) attribution for synthetic and real samples, and the /profile
// endpoint answering during an active scoring server with at least one
// sample attributed to both a symbolized score frame and the
// "serve batch > serve score" span path. The ASan+UBSan and TSan
// builds run all of this, which is the handler-safety proof.
//
// NOTE on counting: Linux services CPU-time timers at kernel-tick
// granularity (~250 Hz effective ceiling per thread on small boxes),
// so no test asserts an expected number of delivered signals — only
// our own conservation law (taken + dropped) and "got at least N".
#include <gtest/gtest.h>

#include <execinfo.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/core.h"
#include "data/data.h"
#include "line_grammar.h"
#include "models/zoo.h"
#include "obs/obs.h"
#include "serve/serve.h"

namespace pelican {
namespace {

using namespace std::chrono_literals;

// RAII guard: every test restores the all-off default even on
// assertion failure (same convention as obs_test), including the
// profiler and its aggregate.
struct ProfilerOff {
  ~ProfilerOff() {
    obs::StopProfiler();
    obs::EnableSpanTracking(false);
    obs::EnableMetrics(false);
    obs::EnableTracing(false);
    obs::EnableKernelTracing(true);
    obs::ResetTrace();
    obs::ResetProfiler();
  }
};

struct Toy {
  Tensor x;
  std::vector<int> y;
};

Toy MakeToy(int n) {
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

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// Every collapsed line must be "frame(;frame)* SPACE count" with no
// other spaces — exactly what flamegraph.pl / speedscope parse.
void ExpectValidCollapsed(const std::string& folded) {
  for (const std::string& line : Lines(folded)) {
    const std::size_t space = line.find(' ');  // ^[^ ]+ [0-9]+$
    EXPECT_TRUE(space != 0 && space != std::string::npos &&
                grammar::MatchDigits(std::string_view(line).substr(space + 1),
                                     "*"))
        << line;
  }
}

// Re-register the calling thread under the *current* profiler config
// (registration is sticky, so tests that change ring sizing must
// cycle it).
void ReregisterThisThread() {
  obs::ProfileUnregisterCurrentThread();
  obs::ProfileRegisterCurrentThread();
}

// Burn a fixed amount of *this thread's* CPU time. CPU-clock timers
// only advance with CPU time, and the kernel services them at tick
// granularity (~4ms of CPU), so tests that wait for a sample must
// guarantee the registered thread actually accrues that much.
void SpinThreadCpu(double seconds) {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  const double until = static_cast<double>(ts.tv_sec) +
                       1e-9 * static_cast<double>(ts.tv_nsec) + seconds;
  volatile double sink = 0.0;
  for (;;) {
    for (int i = 0; i < 4096; ++i) sink = sink + static_cast<double>(i);
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    if (static_cast<double>(ts.tv_sec) +
            1e-9 * static_cast<double>(ts.tv_nsec) >=
        until) {
      break;
    }
  }
}

// ---- span-path tracking ----------------------------------------------------

TEST(SpanPath, PushPopInternAndRender) {
  ProfilerOff guard;
  obs::EnableSpanTracking(true);
  EXPECT_EQ(obs::CurrentSpanPathId(), 0U);
  std::uint32_t id_a = 0;
  std::uint32_t id_b = 0;
  {
    obs::TraceSpan a("alpha", "test");
    id_a = obs::CurrentSpanPathId();
    ASSERT_NE(id_a, 0U);
    EXPECT_EQ(obs::SpanPathString(id_a), "alpha");
    {
      obs::TraceSpan b("beta", "test");
      id_b = obs::CurrentSpanPathId();
      EXPECT_EQ(obs::SpanPathString(id_b), "alpha > beta");
      const auto parts = obs::SpanPathComponents(id_b);
      ASSERT_EQ(parts.size(), 2U);
      EXPECT_EQ(parts[0], "alpha");
      EXPECT_EQ(parts[1], "beta");
    }
    EXPECT_EQ(obs::CurrentSpanPathId(), id_a);
    {
      // Interning is stable: the same (parent, name) pair yields the
      // same id on re-entry.
      obs::TraceSpan b_again("beta", "test");
      EXPECT_EQ(obs::CurrentSpanPathId(), id_b);
    }
  }
  EXPECT_EQ(obs::CurrentSpanPathId(), 0U);
  EXPECT_EQ(obs::SpanPathString(0), "");

  // Kernel spans stay on the path even while their trace events are
  // gated off (the serve plane's configuration).
  obs::EnableTracing(true);
  obs::EnableKernelTracing(false);
  obs::ResetTrace();
  {
    obs::TraceSpan k("conv1d_gemm_fwd", "kernel");
    EXPECT_NE(obs::CurrentSpanPathId(), 0U);
    EXPECT_EQ(obs::SpanPathString(obs::CurrentSpanPathId()),
              "conv1d_gemm_fwd");
  }
  EXPECT_EQ(obs::TraceEventCount(), 0U);

  // Tracking off: spans leave the slot untouched.
  obs::EnableSpanTracking(false);
  {
    obs::TraceSpan c("gamma", "test");
    EXPECT_EQ(obs::CurrentSpanPathId(), 0U);
  }
}

// ---- determinism under a signal storm --------------------------------------

TEST(SignalStorm, WeightsBitIdenticalProfiledVsNot) {
  ProfilerOff guard;
  const char* env_threads = std::getenv("PELICAN_THREADS");
  SetThreads(4);
  const auto toy = MakeToy(96);

  Rng rng_off(7);
  auto net_off = models::BuildMlp(6, 3, rng_off, 16);
  {
    core::Trainer trainer(*net_off, ToyConfig(4));
    trainer.Fit(toy.x, toy.y);
  }

  // Highest supported rate: at ~kernel-tick delivery this storms every
  // pool worker plus the main thread throughout the run.
  obs::ProfilerConfig pc;
  pc.hz = 10000;
  obs::StartProfiler(pc);
  obs::ResetProfiler();
  ReregisterThisThread();
  Rng rng_on(7);
  auto net_on = models::BuildMlp(6, 3, rng_on, 16);
  {
    core::Trainer trainer(*net_on, ToyConfig(4));
    trainer.Fit(toy.x, toy.y);
  }
  // Don't assert a sample count from this one run (tick ceiling, fast
  // machines) — keep burning CPU until samples prove signals landed.
  // The toy Fits are small enough that on a loaded box no single
  // thread may cross the ~4ms CPU-tick delivery granularity, so each
  // try also spins guaranteed main-thread CPU.
  for (int tries = 0; obs::ProfileSampleCount() == 0 && tries < 50;
       ++tries) {
    Rng rng_burn(7);
    auto burn = models::BuildMlp(6, 3, rng_burn, 16);
    core::Trainer trainer(*burn, ToyConfig(2));
    trainer.Fit(toy.x, toy.y);
    SpinThreadCpu(0.01);
    obs::profiler_detail::DrainNow();
  }
  obs::StopProfiler();
  EXPECT_GT(obs::ProfileSampleCount(), 0U);

  const auto w_off = FlattenParams(*net_off);
  const auto w_on = FlattenParams(*net_on);
  ASSERT_EQ(w_off.size(), w_on.size());
  EXPECT_EQ(std::memcmp(w_off.data(), w_on.data(),
                        w_off.size() * sizeof(float)),
            0);

  SetThreads(env_threads != nullptr
                 ? static_cast<std::size_t>(std::atol(env_threads))
                 : 0);
}

// ---- exact drop accounting --------------------------------------------------

TEST(RingOverflow, ExactDropAccounting) {
  ProfilerOff guard;
  obs::EnableMetrics(true);
  // hz 0: no timers, so the ring sees exactly the samples we push.
  // A frozen collector (huge interval) means nothing drains between
  // pushes.
  obs::ProfilerConfig pc;
  pc.hz = 0;
  pc.ring_slots = 8;
  pc.collect_interval_ms = 1000000;
  obs::StartProfiler(pc);
  obs::ResetProfiler();
  ReregisterThisThread();

  const std::uint64_t metric_before = obs::Registry::Global().CounterValue(
      "pelican_profile_samples_dropped_total");
  void* pcs[4];
  const int depth = ::backtrace(pcs, 4);
  ASSERT_GT(depth, 0);
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    accepted += obs::profiler_detail::RecordSyntheticSample(pcs, depth, 0)
                    ? 1
                    : 0;
  }
  // 8 slots: exactly 8 accepted, exactly 12 dropped — never silently
  // overwritten, never blocking.
  EXPECT_EQ(accepted, 8);
  EXPECT_EQ(obs::ProfileDroppedCount(), 12U);
  obs::profiler_detail::DrainNow();
  EXPECT_EQ(obs::ProfileSampleCount(), 8U);
  EXPECT_EQ(obs::Registry::Global().CounterValue(
                "pelican_profile_samples_dropped_total") -
                metric_before,
            12U);

  // The drain freed every slot: the next burst fits again, and the
  // accounting stays conserved (taken 8+5, dropped still 12).
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(obs::profiler_detail::RecordSyntheticSample(pcs, depth, 0));
  }
  obs::profiler_detail::DrainNow();
  EXPECT_EQ(obs::ProfileSampleCount(), 13U);
  EXPECT_EQ(obs::ProfileDroppedCount(), 12U);
  obs::StopProfiler();
}

// ---- ring retirement --------------------------------------------------------

// A long-running serve registers/unregisters one profiled thread per
// connection. Retired rings must be drained once, their accounting
// folded, and the ~1MB ring freed — never accumulated (that was a
// leak: only ResetProfiler ever cleared the retired list).
TEST(RingRetirement, RetiredRingsFoldAccountingAndFree) {
  ProfilerOff guard;
  obs::ProfilerConfig pc;
  pc.hz = 0;
  pc.ring_slots = 8;
  pc.collect_interval_ms = 1000000;
  obs::StartProfiler(pc);
  obs::ResetProfiler();

  void* pcs[4];
  const int depth = ::backtrace(pcs, 4);
  ASSERT_GT(depth, 0);

  // Three short-lived threads, each overflowing its 8-slot ring
  // (12 pushes: 8 taken + 4 dropped), exiting with samples undrained.
  for (int t = 0; t < 3; ++t) {
    std::thread([&] {
      obs::ProfileRegisterCurrentThread();
      for (int i = 0; i < 12; ++i) {
        obs::profiler_detail::RecordSyntheticSample(pcs, depth, 0);
      }
      obs::ProfileUnregisterCurrentThread();
    }).join();
  }
  EXPECT_EQ(obs::profiler_detail::RetiredRingCount(), 3U);
  EXPECT_EQ(obs::ProfileDroppedCount(), 12U);

  // One collect drains, folds, and frees every retired ring; the
  // accounting survives the free and a second pass never double-counts.
  obs::profiler_detail::DrainNow();
  EXPECT_EQ(obs::profiler_detail::RetiredRingCount(), 0U);
  EXPECT_EQ(obs::ProfileSampleCount(), 24U);
  EXPECT_EQ(obs::ProfileDroppedCount(), 12U);
  obs::profiler_detail::DrainNow();
  EXPECT_EQ(obs::ProfileSampleCount(), 24U);
  EXPECT_EQ(obs::ProfileDroppedCount(), 12U);

  // A ring that is already drained at unregister time (the common case
  // when no timer ever fired) is freed on the spot, not retired.
  std::thread([&] {
    obs::ProfileRegisterCurrentThread();
    for (int i = 0; i < 5; ++i) {
      obs::profiler_detail::RecordSyntheticSample(pcs, depth, 0);
    }
    obs::profiler_detail::DrainNow();
    obs::ProfileUnregisterCurrentThread();
  }).join();
  EXPECT_EQ(obs::profiler_detail::RetiredRingCount(), 0U);
  EXPECT_EQ(obs::ProfileSampleCount(), 29U);
  EXPECT_EQ(obs::ProfileDroppedCount(), 12U);
  obs::StopProfiler();
}

// Threads that register and exit while NO profiler is running (every
// serve connection thread in an unprofiled run) must not leave rings
// behind either — there is no collector to clean up after them.
TEST(RingRetirement, UnprofiledThreadsLeaveNothingBehind) {
  ProfilerOff guard;
  obs::ResetProfiler();
  ASSERT_FALSE(obs::ProfilerRunning());
  for (int t = 0; t < 16; ++t) {
    std::thread([] {
      obs::ProfileRegisterCurrentThread();
      obs::ProfileUnregisterCurrentThread();
    }).join();
  }
  EXPECT_EQ(obs::profiler_detail::RetiredRingCount(), 0U);
}

// Negative depth must clamp to zero, not wrap the memcpy size (that
// was a buffer overflow under a hostile caller).
TEST(RingOverflow, SyntheticSampleClampsNegativeDepth) {
  ProfilerOff guard;
  obs::ProfilerConfig pc;
  pc.hz = 0;
  pc.collect_interval_ms = 1000000;
  obs::StartProfiler(pc);
  obs::ResetProfiler();
  ReregisterThisThread();
  void* pcs[1] = {nullptr};
  EXPECT_TRUE(obs::profiler_detail::RecordSyntheticSample(pcs, -3, 0));
  obs::profiler_detail::DrainNow();
  EXPECT_EQ(obs::ProfileSampleCount(), 1U);
  obs::StopProfiler();
}

// ---- collapsed format + dual attribution (synthetic) -----------------------

TEST(Collapsed, FormatDualAttributionAndWindowedDelta) {
  ProfilerOff guard;
  obs::ProfilerConfig pc;
  pc.hz = 0;
  pc.collect_interval_ms = 1000000;
  obs::StartProfiler(pc);
  obs::ResetProfiler();
  ReregisterThisThread();

  std::uint32_t path = 0;
  {
    obs::TraceSpan a("alpha span", "test");  // space must sanitize
    obs::TraceSpan b("beta", "test");
    path = obs::CurrentSpanPathId();
  }
  ASSERT_NE(path, 0U);
  void* pcs[16];
  const int depth = ::backtrace(pcs, 16);
  ASSERT_GT(depth, 1);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(obs::profiler_detail::RecordSyntheticSample(pcs, depth, path));
  }

  const std::string folded = obs::ProfileCollapsed();
  ExpectValidCollapsed(folded);
  // Dual attribution on one line: sanitized span path components
  // first, then native frames, then the count.
  bool found = false;
  for (const std::string& line : Lines(folded)) {
    if (line.rfind("alpha_span;beta;", 0) == 0) {
      found = true;
      EXPECT_TRUE(line.size() >= 2 && line.compare(line.size() - 2, 2, " 3")
                      == 0)
          << line;
    }
  }
  EXPECT_TRUE(found) << folded;

  // Windowed delta: a snapshot splits old from new mass.
  const obs::ProfileSnapshot snap = obs::SnapshotProfile();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(obs::profiler_detail::RecordSyntheticSample(pcs, depth, path));
  }
  const std::string delta = obs::ProfileCollapsed(&snap);
  ExpectValidCollapsed(delta);
  bool found_delta = false;
  for (const std::string& line : Lines(delta)) {
    if (line.rfind("alpha_span;beta;", 0) == 0) {
      found_delta = true;
      EXPECT_TRUE(line.size() >= 2 && line.compare(line.size() - 2, 2, " 2")
                      == 0)
          << line;
    }
  }
  EXPECT_TRUE(found_delta) << delta;

  // The JSON self-time table parses and carries both attributions.
  const auto parsed = obs::ParseJson(obs::ProfileTopJson());
  ASSERT_TRUE(parsed.has_value());
  const auto* samples = parsed->Find("samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_EQ(samples->number, 5.0);
  const auto* spans = parsed->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_FALSE(spans->array.empty());
  EXPECT_EQ(spans->array[0].Find("path")->str, "alpha_span;beta");
  obs::StopProfiler();
}

// ---- real samples through training -----------------------------------------

TEST(Sampling, TrainingSamplesCarrySpanAndNativeFrames) {
  ProfilerOff guard;
  obs::ProfilerConfig pc;
  pc.hz = 1997;
  obs::StartProfiler(pc);
  obs::ResetProfiler();
  ReregisterThisThread();

  const auto toy = MakeToy(192);
  for (int tries = 0; obs::ProfileSampleCount() < 10 && tries < 50;
       ++tries) {
    Rng rng(7);
    auto net = models::BuildMlp(6, 3, rng, 24);
    core::Trainer trainer(*net, ToyConfig(3));
    trainer.Fit(toy.x, toy.y);
    obs::profiler_detail::DrainNow();
  }
  obs::StopProfiler();
  ASSERT_GT(obs::ProfileSampleCount(), 0U);

  const std::string folded = obs::ProfileCollapsed();
  ExpectValidCollapsed(folded);
  // At least one line carries the training span path AND a native
  // frame from this process (symbolized name or module-relative
  // fallback — both contain "pelican").
  bool dual = false;
  for (const std::string& line : Lines(folded)) {
    if (line.find("epoch") != std::string::npos &&
        line.find("pelican") != std::string::npos) {
      dual = true;
      break;
    }
  }
  EXPECT_TRUE(dual) << folded;
}

// ---- /profile during an active scoring server ------------------------------

// Minimal HTTP GET against the introspection server (serve_test /
// introspect_test convention).
std::string HttpGet(std::uint16_t port, const std::string& target,
                    int* status_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  const std::string raw =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t sent = 0;
  while (sent < raw.size()) {
    const ssize_t n =
        ::send(fd, raw.data() + sent, raw.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const auto head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) return "";
  if (status_out != nullptr && response.size() >= 12) {
    *status_out = std::atoi(response.c_str() + 9);
  }
  return response.substr(head_end + 4);
}

TEST(ServeProfile, EndpointAttributesScoreFramesAndSpans) {
  ProfilerOff guard;
  obs::EnableMetrics(true);
  obs::ProfilerConfig pc;
  pc.hz = 1997;
  obs::StartProfiler(pc);
  obs::ResetProfiler();
  ReregisterThisThread();

  // Small trained model + live scoring server.
  Rng rng(77);
  auto ds = data::GenerateNslKdd(240, rng);
  core::IdsConfig config;
  config.n_blocks = 2;
  config.channels = 8;
  config.train.epochs = 2;
  config.train.batch_size = 32;
  config.train.seed = 7;
  core::PelicanIds ids(data::NslKddSchema(), config);
  ids.Train(ds);

  std::stringstream csv;
  data::WriteCsv(ds, csv);
  std::vector<std::string> lines;
  {
    std::string line;
    bool header = true;
    while (std::getline(csv, line)) {
      if (header) {
        header = false;
        continue;
      }
      if (!line.empty()) lines.push_back(line);
    }
  }

  obs::IntrospectConfig ic;
  obs::IntrospectionServer intro(ic);
  intro.Start();
  serve::ScoringServerConfig sc;
  sc.scorers = 2;
  serve::ScoringServer server(ids, sc);
  server.Start();

  std::atomic<bool> stop{false};
  std::thread pump([&] {
    while (!stop.load()) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) break;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(server.Port());
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
          0) {
        ::close(fd);
        break;
      }
      // Burst-send then drain replies so micro-batches form and the
      // scorer stays busy.
      std::string burst;
      for (const auto& l : lines) {
        burst += l;
        burst += '\n';
      }
      for (int round = 0; round < 200 && !stop.load(); ++round) {
        std::size_t sent = 0;
        bool ok = true;
        while (sent < burst.size()) {
          const ssize_t n = ::send(fd, burst.data() + sent,
                                   burst.size() - sent, MSG_NOSIGNAL);
          if (n <= 0) {
            ok = false;
            break;
          }
          sent += static_cast<std::size_t>(n);
        }
        if (!ok) break;
        std::size_t newlines = 0;
        char buf[4096];
        while (newlines < lines.size()) {
          const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
          if (n <= 0) break;
          for (ssize_t i = 0; i < n; ++i) {
            if (buf[i] == '\n') ++newlines;
          }
        }
      }
      ::close(fd);
      break;
    }
  });

  // A windowed scrape mid-traffic; retry a few short windows until a
  // sample lands in the score path (tick-granularity delivery makes
  // any single short window probabilistic).
  bool dual = false;
  std::string last_folded;
  for (int attempt = 0; attempt < 10 && !dual; ++attempt) {
    int status = 0;
    const std::string folded =
        HttpGet(intro.Port(), "/profile?seconds=1", &status);
    EXPECT_EQ(status, 200);
    ExpectValidCollapsed(folded);
    last_folded = folded;
    for (const std::string& line : Lines(folded)) {
      const bool span_hit =
          line.find("serve_batch;serve_score") != std::string::npos;
      const bool native_hit = line.find("Score") != std::string::npos ||
                              line.find("Gemm") != std::string::npos ||
                              line.find("gemm") != std::string::npos ||
                              line.find("Predict") != std::string::npos;
      if (span_hit && native_hit) {
        dual = true;
        break;
      }
    }
  }
  EXPECT_TRUE(dual) << last_folded;

  stop.store(true);
  pump.join();
  server.Drain();
  intro.Stop();
  obs::StopProfiler();

  // Stopped profiler: the endpoint reports 503, not stale data.
  obs::IntrospectionServer intro2(ic);
  intro2.Start();
  int status = 0;
  HttpGet(intro2.Port(), "/profile", &status);
  EXPECT_EQ(status, 503);
  intro2.Stop();
}

}  // namespace
}  // namespace pelican
