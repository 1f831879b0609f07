// Scoring data plane throughput/latency tracker: drives a live
// serve::ScoringServer over loopback TCP and writes BENCH_serve.json.
//
//   serve_bench [--smoke] [--json=PATH]
//
// Two experiment families:
//   closed-loop   1/2/4 clients in lockstep (send a 32-line chunk, wait
//                 for the 32 verdicts) — the flows/sec-vs-latency curve
//                 under well-behaved load.
//   overload      open-loop blast writers offering ≥2× the closed-loop
//                 capacity. The bounded ingest queue sheds the excess
//                 (busy,queue_full) and the scoring deadline drops
//                 stale work, so the p99 of what IS served stays
//                 bounded instead of the queue-growth death spiral.
//                 Server-side latency comes from the
//                 pelican_serve_record_seconds histogram delta.
//
// A closed_profiled row re-runs the 1-client closed loop with the
// sampling CPU profiler armed at its default rate (profile_hz field);
// the full run asserts its flows/sec and p99 stay within the same
// noise tolerance the scaling arm uses.
//
// --smoke shrinks durations for ctest and asserts the robustness
// invariants (reply conservation, bounded served p99 under overload)
// rather than absolute throughput.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "serve/serve.h"

namespace {

using namespace pelican;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kChunk = 32;  // records per lockstep round trip

double g_arm_seconds = 2.0;  // per measurement arm; --smoke shrinks this

// ---- tiny client -----------------------------------------------------------

int ConnectTo(std::uint16_t port) {
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
  // Lockstep chunks are exactly the Nagle + delayed-ACK worst case:
  // without this, a 1-client closed loop serializes on the peer's
  // ~40ms delayed ACK instead of the scorer.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool SendStr(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Counts newline-terminated replies until `count` or EOF.
std::size_t ReadReplies(int fd, std::size_t count, std::string& buf) {
  std::size_t seen = 0;
  char tmp[8192];
  for (;;) {
    std::size_t pos = 0;
    while (seen < count && (pos = buf.find('\n')) != std::string::npos) {
      buf.erase(0, pos + 1);
      ++seen;
    }
    if (seen >= count) return seen;
    ssize_t n = 0;
    do {
      n = ::recv(fd, tmp, sizeof tmp, 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return seen;
    buf.append(tmp, static_cast<std::size_t>(n));
  }
}

// ---- fixture ---------------------------------------------------------------

struct Fixture {
  std::unique_ptr<core::PelicanIds> ids;
  std::vector<std::string> chunks;  // pre-joined kChunk-line payloads
  std::size_t corpus_lines = 0;
};

Fixture BuildFixture() {
  Fixture fx;
  Rng rng(2020);
  const auto train = data::GenerateNslKdd(240, rng);
  core::IdsConfig config;
  config.n_blocks = 2;
  config.channels = 8;
  config.train.epochs = 2;
  config.train.batch_size = 32;
  config.train.seed = 7;
  fx.ids = std::make_unique<core::PelicanIds>(data::NslKddSchema(), config);
  fx.ids->Train(train);

  const auto score_set = data::GenerateNslKdd(256, rng);
  std::stringstream csv;
  data::WriteCsv(score_set, csv);
  std::string line;
  std::vector<std::string> lines;
  bool header = true;
  while (std::getline(csv, line)) {
    if (header) {
      header = false;
      continue;
    }
    if (!line.empty()) lines.push_back(line);
  }
  for (std::size_t off = 0; off + kChunk <= lines.size(); off += kChunk) {
    std::string payload;
    for (std::size_t j = 0; j < kChunk; ++j) {
      payload += lines[off + j];
      payload += '\n';
    }
    fx.chunks.push_back(std::move(payload));
  }
  fx.corpus_lines = fx.chunks.size() * kChunk;
  return fx;
}

// ---- result rows -----------------------------------------------------------

struct ServeRow {
  std::string arm;         // "closed" / "closed_profiled" / "overload" / ...
  std::size_t clients = 0;
  std::size_t scorers = 0; // resolved scorer-thread count
  int profile_hz = 0;      // sampling profiler rate during the arm (0 = off)
  double seconds = 0.0;
  double flows_per_sec = 0.0;   // verdicts served (ok replies) per second
  double offered_per_sec = 0.0; // records pushed at the server per second
  double p50_ms = -1.0;         // per-record latency (closed: client RTT/
  double p99_ms = -1.0;         //   chunk; overload: server-side histogram)
  double shed_pct = 0.0;        // busy,queue_full fraction of offered
  double late_pct = 0.0;        // late,* fraction of offered
};

void WriteServeJson(const std::string& path,
                    const std::vector<ServeRow>& rows) {
  std::vector<obs::Json> out;
  out.reserve(rows.size());
  for (const ServeRow& r : rows) {
    obs::Json& row = out.emplace_back();
    row.Set("arm", r.arm)
        .Set("clients", static_cast<std::uint64_t>(r.clients))
        .Set("scorers", static_cast<std::uint64_t>(r.scorers))
        .Set("profile_hz", r.profile_hz)
        .Set("seconds", r.seconds)
        .Set("flows_per_sec", r.flows_per_sec)
        .Set("offered_per_sec", r.offered_per_sec)
        .Set("p50_ms", r.p50_ms)
        .Set("p99_ms", r.p99_ms)
        .Set("shed_pct", r.shed_pct)
        .Set("late_pct", r.late_pct);
  }
  bench::WriteJsonArray(path, out);
}

double Quantile(std::vector<double>& values, double q) {
  if (values.empty()) return -1.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

// Histogram-delta quantiles come from obs::HistogramQuantileDelta —
// the same reader the /serve JSON summary uses, so the bench and the
// live endpoint can't silently diverge.

// ---- arms ------------------------------------------------------------------

// Lockstep clients: every in-flight chunk is awaited before the next,
// so latency is honest RTT and the server is never overcommitted.
ServeRow ClosedLoopArm(const Fixture& fx, std::size_t clients) {
  serve::ScoringServer server(*fx.ids);
  server.Start();
  const std::size_t n_scorers = server.ScorerCount();

  std::mutex mu;
  std::vector<double> latencies_ms;  // one sample per chunk, RTT/kChunk
  std::atomic<std::uint64_t> replies{0};
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(g_arm_seconds);

  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      const int fd = ConnectTo(server.Port());
      if (fd < 0) return;
      std::string rbuf;
      std::vector<double> local;
      std::size_t next = c;  // stagger corpus position per client
      while (Clock::now() < deadline) {
        const std::string& payload = fx.chunks[next++ % fx.chunks.size()];
        const auto t0 = Clock::now();
        if (!SendStr(fd, payload)) break;
        if (ReadReplies(fd, kChunk, rbuf) != kChunk) break;
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        local.push_back(ms / static_cast<double>(kChunk));
        replies.fetch_add(kChunk);
      }
      ::close(fd);
      const std::scoped_lock lock(mu);
      latencies_ms.insert(latencies_ms.end(), local.begin(), local.end());
    });
  }
  Stopwatch sw;
  for (auto& t : workers) t.join();
  const double elapsed = sw.Seconds();
  server.Drain();
  const auto stats = server.Stats();

  ServeRow row;
  row.arm = "closed";
  row.clients = clients;
  row.scorers = n_scorers;
  row.seconds = elapsed;
  row.flows_per_sec = static_cast<double>(stats.ok) / elapsed;
  row.offered_per_sec = static_cast<double>(stats.records) / elapsed;
  row.p50_ms = Quantile(latencies_ms, 0.50);
  row.p99_ms = Quantile(latencies_ms, 0.99);
  row.shed_pct = 100.0 * static_cast<double>(stats.shed) /
                 static_cast<double>(std::max<std::uint64_t>(1, stats.records));
  row.late_pct = 100.0 * static_cast<double>(stats.late) /
                 static_cast<double>(std::max<std::uint64_t>(1, stats.records));
  return row;
}

// Open-loop blast: writers push records with no reply pacing (readers
// drain so TCP flow control can't throttle the offer). On loopback
// this offers far more than the scorer pool can absorb — the 2×+
// overload arm. Shedding + deadlines must keep the served p99 bounded.
// `scorers` = 0 uses the server default (min(4, cores)); explicit
// counts drive the scorers-1/2/4 scaling arm.
ServeRow OverloadArm(const Fixture& fx, std::size_t writers,
                     std::size_t scorers, const char* arm_name,
                     serve::ServeStats* out_stats) {
  const bool had_metrics = obs::MetricsEnabled();
  obs::EnableMetrics(true);
  auto& reg = obs::Registry::Global();
  // Serve series carry the predict-engine label; the registry lookup is
  // exact-match, so an unlabeled query would see an empty histogram.
  const obs::Labels engine_labels{{"engine", "fp32"}};
  const auto hist_before =
      reg.HistogramValue("pelican_serve_record_seconds", engine_labels);

  serve::ScoringServerConfig cfg;
  // The per-connection pipeline bound (max_pipeline records in flight
  // per conn) is itself backpressure, so overload means aggregate
  // in-flight demand above queue capacity: writers × max_pipeline =
  // 4 × 128 = 4× this queue. That is the regime admission control is
  // for — TryPush failures surface as busy,queue_full sheds.
  cfg.queue_depth = 128;
  cfg.max_connections = writers + 4;
  cfg.scorers = scorers;
  serve::ScoringServer server(*fx.ids, cfg);
  server.Start();
  const std::size_t n_scorers = server.ScorerCount();

  const auto deadline =
      Clock::now() + std::chrono::duration<double>(g_arm_seconds);
  std::atomic<std::uint64_t> replies{0};
  std::vector<std::thread> conns;
  conns.reserve(writers);
  for (std::size_t w = 0; w < writers; ++w) {
    conns.emplace_back([&, w] {
      const int fd = ConnectTo(server.Port());
      if (fd < 0) return;
      std::thread reader([&] {
        std::string rbuf;
        // Drain until EOF (server answers everything it accepted, then
        // sees our half-close and FINs back).
        for (;;) {
          const std::size_t n =
              ReadReplies(fd, static_cast<std::size_t>(-1), rbuf);
          replies.fetch_add(n);
          if (n == 0) break;
        }
      });
      std::size_t next = w;
      while (Clock::now() < deadline) {
        if (!SendStr(fd, fx.chunks[next++ % fx.chunks.size()])) break;
      }
      ::shutdown(fd, SHUT_WR);
      reader.join();
      ::close(fd);
    });
  }
  Stopwatch sw;
  for (auto& t : conns) t.join();
  const double elapsed = sw.Seconds();
  server.Drain();
  const auto stats = server.Stats();
  if (out_stats != nullptr) *out_stats = stats;

  const auto hist_after =
      reg.HistogramValue("pelican_serve_record_seconds", engine_labels);
  obs::EnableMetrics(had_metrics);

  ServeRow row;
  row.arm = arm_name;
  row.clients = writers;
  row.scorers = n_scorers;
  row.seconds = elapsed;
  row.flows_per_sec = static_cast<double>(stats.ok) / elapsed;
  row.offered_per_sec = static_cast<double>(stats.records) / elapsed;
  row.p50_ms = 1e3 * obs::HistogramQuantileDelta(hist_before, hist_after, 0.50);
  row.p99_ms = 1e3 * obs::HistogramQuantileDelta(hist_before, hist_after, 0.99);
  row.shed_pct = 100.0 * static_cast<double>(stats.shed) /
                 static_cast<double>(std::max<std::uint64_t>(1, stats.records));
  row.late_pct = 100.0 * static_cast<double>(stats.late) /
                 static_cast<double>(std::max<std::uint64_t>(1, stats.records));
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_serve.json";
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
  if (smoke) g_arm_seconds = 0.3;

  const Fixture fx = BuildFixture();
  std::vector<ServeRow> rows;
  for (const std::size_t clients : {1u, 2u, 4u}) {
    rows.push_back(ClosedLoopArm(fx, clients));
  }
  const ServeRow closed_plain = rows.front();  // 1-client baseline

  // Profiler-on closed loop: the always-on sampler at its default rate
  // must not move flows/sec or tail latency outside loopback noise.
  // The scorer threads self-register (and get timers armed) when the
  // server inside the arm spawns them.
  obs::ProfilerConfig profiler_cfg;
  profiler_cfg.hz = obs::kDefaultProfileHz;
  obs::StartProfiler(profiler_cfg);
  obs::ProfileRegisterCurrentThread();
  rows.push_back(ClosedLoopArm(fx, 1));
  obs::StopProfiler();
  obs::ResetProfiler();
  rows.back().arm = "closed_profiled";
  rows.back().profile_hz = obs::kDefaultProfileHz;
  const ServeRow closed_profiled = rows.back();

  serve::ServeStats overload_stats;
  rows.push_back(OverloadArm(fx, 4, 0, "overload", &overload_stats));
  const ServeRow over = rows.back();

  // Scorer-scaling arm: the same 4-writer overload workload against an
  // explicit 1/2/4-thread scorer pool. On a multi-core host the served
  // flows/sec climbs and the shed fraction falls with the pool size; on
  // a single core the rows record honestly that there is nothing to
  // scale into.
  std::vector<ServeRow> scaling;
  for (const std::size_t scorers : {1u, 2u, 4u}) {
    rows.push_back(OverloadArm(fx, 4, scorers, "scaling", nullptr));
    scaling.push_back(rows.back());
  }

  WriteServeJson(json_path, rows);
  std::printf("%-10s %8s %8s %14s %14s %10s %10s %9s %9s\n", "arm",
              "clients", "scorers", "flows/s", "offered/s", "p50 ms",
              "p99 ms", "shed %", "late %");
  for (const auto& r : rows) {
    std::printf("%-10s %8zu %8zu %14.1f %14.1f %10.3f %10.3f %9.2f %9.2f\n",
                r.arm.c_str(), r.clients, r.scorers, r.flows_per_sec,
                r.offered_per_sec, r.p50_ms, r.p99_ms, r.shed_pct,
                r.late_pct);
  }

  // Robustness acceptance: every accepted record was answered exactly
  // once even while overloaded, and the latency of what WAS served
  // stays bounded by the scoring deadline (admission control + late
  // dropping prevent unbounded queue-wait inflation).
  bool pass = true;
  if (overload_stats.records !=
      overload_stats.ok + overload_stats.quarantined + overload_stats.shed +
          overload_stats.late) {
    std::fprintf(stderr, "FAIL: overload conservation violated\n");
    pass = false;
  }
  const double deadline_ms =
      static_cast<double>(serve::ScoringServerConfig{}.score_deadline_ms);
  if (over.p99_ms > deadline_ms + 500.0) {
    std::fprintf(stderr, "FAIL: overload served p99 %.1f ms unbounded\n",
                 over.p99_ms);
    pass = false;
  }
  if (!smoke && over.shed_pct + over.late_pct <= 0.0 &&
      over.offered_per_sec < 2.0 * rows[0].flows_per_sec) {
    // The full run must actually demonstrate the overload regime.
    std::fprintf(stderr, "FAIL: overload arm never overloaded the server\n");
    pass = false;
  }
  // Multi-scorer must not serve fewer flows than a single scorer on the
  // overload workload. Only asserted when there is real parallelism to
  // claim: on a single hardware core a 4-thread pool just time-slices,
  // so the rows are recorded but the bound is not enforced. A 15%
  // tolerance absorbs run-to-run loopback jitter.
  // The profiled closed loop must stay within loopback noise of the
  // plain one. Only the full run's 2s arms average enough round trips
  // to make the bound meaningful; the 0.3s smoke arms just record the
  // row. 15% matches the scaling-arm jitter tolerance; p99 gets 2×
  // because a single slow chunk moves a short arm's tail.
  if (!smoke &&
      (closed_profiled.flows_per_sec < 0.85 * closed_plain.flows_per_sec ||
       (closed_plain.p99_ms > 0.0 &&
        closed_profiled.p99_ms > 2.0 * closed_plain.p99_ms))) {
    std::fprintf(stderr,
                 "FAIL: profiled closed loop %.1f flows/s p99 %.3f ms vs "
                 "plain %.1f flows/s p99 %.3f ms\n",
                 closed_profiled.flows_per_sec, closed_profiled.p99_ms,
                 closed_plain.flows_per_sec, closed_plain.p99_ms);
    pass = false;
  }
  if (std::thread::hardware_concurrency() > 1 &&
      scaling.back().flows_per_sec < 0.85 * scaling.front().flows_per_sec) {
    std::fprintf(stderr,
                 "FAIL: 4-scorer overload throughput %.1f below "
                 "1-scorer %.1f\n",
                 scaling.back().flows_per_sec, scaling.front().flows_per_sec);
    pass = false;
  }
  if (!pass) return 1;
  std::printf("serve bench %s: conservation + bounded served p99 hold\n",
              smoke ? "smoke" : "full");
  return 0;
}
