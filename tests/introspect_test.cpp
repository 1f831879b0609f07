// Introspection server tests: every endpoint answers, readiness flips,
// malformed/unknown requests get the right status codes, the Prometheus
// scrape is format-valid, process metrics exist, concurrent scrapes
// during training are safe (the TSan build exercises this), and
// shutdown stays clean with an in-flight connection.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/core.h"
#include "line_grammar.h"
#include "models/zoo.h"
#include "obs/obs.h"

namespace pelican {
namespace {

// RAII guard: restore the all-off default even on assertion failure so
// other suites see a quiet process (same convention as obs_test).
struct ObsOff {
  ~ObsOff() {
    obs::EnableMetrics(false);
    obs::EnableTracing(false);
    obs::ResetTrace();
  }
};

struct Response {
  bool connected = false;
  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;
};

// Sends a raw byte string to 127.0.0.1:port and reads until the server
// closes the connection (it always does: Connection: close).
Response RawRequest(std::uint16_t port, const std::string& raw) {
  Response r;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return r;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return r;
  }
  r.connected = true;
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
  if (head_end == std::string::npos) return r;
  std::istringstream head(response.substr(0, head_end));
  std::string line;
  std::getline(head, line);  // "HTTP/1.1 200 OK\r"
  if (line.size() >= 12) r.status = std::atoi(line.c_str() + 9);
  while (std::getline(head, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto colon = line.find(": ");
    if (colon != std::string::npos) {
      r.headers[line.substr(0, colon)] = line.substr(colon + 2);
    }
  }
  r.body = response.substr(head_end + 4);
  return r;
}

Response Get(std::uint16_t port, const std::string& path,
             const std::string& method = "GET") {
  return RawRequest(port, method + " " + path +
                              " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

// Minimal Prometheus text-format validator: every line must be a
// comment (# HELP / # TYPE, well-formed) or a sample
// (name{labels} value), HELP/TYPE appear at most once per family, and
// every sample's family has a TYPE.
// ^name(\{[^{}]*\})? -?[0-9eE.+\-]+$, name = [a-zA-Z_:][a-zA-Z0-9_:]*
bool IsPrometheusSample(std::string_view line) {
  std::size_t i = grammar::NameLength(line, 0);
  if (i == 0) return false;
  if (i < line.size() && line[i] == '{') {
    const std::size_t close = line.find_first_of("{}", i + 1);
    if (close == std::string_view::npos || line[close] != '}') return false;
    i = close + 1;
  }
  return i < line.size() && line[i] == ' ' &&
         grammar::IsNumber(line.substr(i + 1));
}

// ^# HELP name .*$ (kind "HELP"), ^# TYPE name
// (counter|gauge|histogram)$ (kind "TYPE").
bool IsPrometheusComment(std::string_view line, std::string_view kind) {
  const std::string prefix = "# " + std::string(kind) + " ";
  if (line.substr(0, prefix.size()) != prefix) return false;
  const std::size_t n = grammar::NameLength(line, prefix.size());
  const std::size_t rest = prefix.size() + n;
  if (n == 0 || rest >= line.size() || line[rest] != ' ') return false;
  if (kind == "HELP") return true;
  const std::string_view type = line.substr(rest + 1);
  return type == "counter" || type == "gauge" || type == "histogram";
}

void ExpectValidPrometheus(const std::string& text) {
  std::set<std::string> help_seen;
  std::set<std::string> type_seen;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      EXPECT_TRUE(IsPrometheusComment(line, "HELP")) << line;
      const std::string name = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(help_seen.insert(name).second)
          << "duplicate HELP for " << name;
    } else if (line.rfind("# TYPE ", 0) == 0) {
      EXPECT_TRUE(IsPrometheusComment(line, "TYPE")) << line;
      const std::string name = line.substr(7, line.find(' ', 7) - 7);
      EXPECT_TRUE(type_seen.insert(name).second)
          << "duplicate TYPE for " << name;
    } else {
      EXPECT_TRUE(IsPrometheusSample(line)) << line;
      std::string family = line.substr(0, line.find_first_of("{ "));
      // Histogram samples belong to the family without the suffix.
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        const std::string s = suffix;
        if (family.size() > s.size() &&
            family.compare(family.size() - s.size(), s.size(), s) == 0 &&
            type_seen.count(family) == 0) {
          family = family.substr(0, family.size() - s.size());
        }
      }
      EXPECT_EQ(type_seen.count(family), 1U) << "sample without TYPE: "
                                             << line;
    }
  }
}

// A tiny training run so the registry holds realistic series.
void TrainToy(int epochs = 1) {
  Rng rng(123);
  Tensor x = Tensor::RandomNormal({96, 6}, rng, 0, 1);
  std::vector<int> y;
  for (int i = 0; i < 96; ++i) y.push_back(i % 3);
  Rng net_rng(7);
  auto net = models::BuildMlp(6, 3, net_rng, 16);
  core::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 32;
  tc.seed = 99;
  core::Trainer trainer(*net, tc);
  trainer.Fit(x, y);
}

// ---- endpoints ------------------------------------------------------------

TEST(Introspect, AllEndpointsRespond) {
  ObsOff guard;
  obs::EnableMetrics(true);
  obs::EnableTracing(true);
  TrainToy();

  obs::IntrospectionServer server;
  server.Start();
  ASSERT_TRUE(server.Running());
  ASSERT_NE(server.Port(), 0);
  server.SetReady(true);

  for (const char* path : {"/healthz", "/readyz", "/buildinfo", "/metrics",
                           "/metrics.json", "/trace", "/stream"}) {
    const Response r = Get(server.Port(), path);
    ASSERT_TRUE(r.connected) << path;
    EXPECT_EQ(r.status, 200) << path;
    EXPECT_FALSE(r.body.empty()) << path;
    EXPECT_EQ(r.headers.at("Connection"), "close") << path;
    EXPECT_EQ(r.headers.at("Content-Length"), std::to_string(r.body.size()))
        << path;
  }
  EXPECT_GE(server.RequestCount(), 7U);

  // JSON endpoints parse; /metrics is Prometheus text.
  for (const char* path : {"/buildinfo", "/metrics.json", "/trace"}) {
    const Response r = Get(server.Port(), path);
    EXPECT_TRUE(obs::ParseJson(r.body).has_value()) << path;
  }
  const Response metrics = Get(server.Port(), "/metrics");
  EXPECT_EQ(metrics.headers.at("Content-Type"),
            "text/plain; version=0.0.4; charset=utf-8");
  ExpectValidPrometheus(metrics.body);
  EXPECT_NE(metrics.body.find("pelican_train_epochs_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("process_uptime_seconds"), std::string::npos);
  EXPECT_NE(metrics.body.find("pelican_build_info{"), std::string::npos);

  const Response build = Get(server.Port(), "/buildinfo");
  const auto parsed = obs::ParseJson(build.body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NE(parsed->Find("git"), nullptr);
  EXPECT_NE(parsed->Find("compiler"), nullptr);
  ASSERT_NE(parsed->Find("uptime_seconds"), nullptr);
  EXPECT_GT(parsed->Find("uptime_seconds")->number, 0.0);

  server.Stop();
  EXPECT_FALSE(server.Running());
}

TEST(Introspect, ReadyzFlipsWithSetReady) {
  obs::IntrospectionServer server;
  server.Start();
  EXPECT_EQ(Get(server.Port(), "/readyz").status, 503);
  EXPECT_EQ(Get(server.Port(), "/healthz").status, 200);  // alive regardless
  server.SetReady(true);
  EXPECT_EQ(Get(server.Port(), "/readyz").status, 200);
  server.SetReady(false);
  EXPECT_EQ(Get(server.Port(), "/readyz").status, 503);
  server.Stop();
}

TEST(Introspect, StreamSourceInjection) {
  obs::IntrospectionServer server;
  server.Start();
  const Response before = Get(server.Port(), "/stream");
  EXPECT_EQ(before.status, 200);
  const auto inactive = obs::ParseJson(before.body);
  ASSERT_TRUE(inactive.has_value());
  ASSERT_NE(inactive->Find("active"), nullptr);
  EXPECT_FALSE(inactive->Find("active")->boolean);

  server.SetStreamSource(
      [] { return std::string(R"({"active": true, "processed": 42})"); });
  const Response after = Get(server.Port(), "/stream");
  const auto active = obs::ParseJson(after.body);
  ASSERT_TRUE(active.has_value());
  EXPECT_TRUE(active->Find("active")->boolean);
  EXPECT_EQ(active->Find("processed")->number, 42.0);
  server.Stop();
}

TEST(Introspect, DisabledScrapeRegistersNothing) {
  ASSERT_FALSE(obs::MetricsEnabled());
  const std::size_t before = obs::Registry::Global().SeriesCount();
  obs::IntrospectionServer server;
  server.Start();
  const Response r = Get(server.Port(), "/metrics");
  EXPECT_EQ(r.status, 200);
  ExpectValidPrometheus(r.body);
  // Gated registration: while metrics are off, a scrape must not
  // register the process series (or anything else).
  EXPECT_EQ(obs::Registry::Global().SeriesCount(), before);
  server.Stop();
}

// ---- process metrics ------------------------------------------------------

TEST(Introspect, ProcessMetricsRegisterUptimeAndBuildInfo) {
  ObsOff guard;
  obs::EnableMetrics(true);
  obs::UpdateProcessMetrics();
  const std::string text = obs::Registry::Global().RenderPrometheus();
  ExpectValidPrometheus(text);
  // The first "process_uptime_seconds " followed by [0-9eE.+\-]+.
  std::string uptime;
  const std::string key = "process_uptime_seconds ";
  for (std::size_t at = text.find(key);
       uptime.empty() && at != std::string::npos; at = text.find(key, at + 1)) {
    std::size_t end = at + key.size();
    while (end < text.size() && grammar::IsNumberChar(text[end])) ++end;
    uptime = text.substr(at + key.size(), end - at - key.size());
  }
  ASSERT_FALSE(uptime.empty()) << text;
  EXPECT_GT(std::stod(uptime), 0.0);
  // The info-gauge convention: constant 1, identity in the labels:
  // pelican_build_info\{[^}]*git="[^"]*"[^}]*\} 1.
  bool info = false;
  const std::string info_key = "pelican_build_info{";
  for (std::size_t at = text.find(info_key);
       !info && at != std::string::npos; at = text.find(info_key, at + 1)) {
    const std::size_t labels = at + info_key.size();
    const std::size_t git = text.find("git=\"", labels);
    if (git == std::string::npos || text.find('}', labels) < git) continue;
    const std::size_t quote = text.find('"', git + 5);
    if (quote == std::string::npos) continue;
    const std::size_t close = text.find('}', quote + 1);
    info = close != std::string::npos && text.compare(close, 3, "} 1") == 0;
  }
  EXPECT_TRUE(info) << text;
  EXPECT_GT(obs::ProcessUptimeSeconds(), 0.0);
}

TEST(Introspect, ProcSelfMetricsMonotoneCpuAndPositiveRssFds) {
  ObsOff guard;
  obs::EnableMetrics(true);
  obs::UpdateProcessMetrics();
  auto& reg = obs::Registry::Global();
  const double cpu1 = reg.GaugeValue("process_cpu_seconds_total");
  EXPECT_GE(cpu1, 0.0);
  EXPECT_GT(reg.GaugeValue("process_resident_memory_bytes"), 0.0);
  // At least stdin/stdout/stderr are open.
  EXPECT_GE(reg.GaugeValue("process_open_fds"), 3.0);

  // /proc/self/stat ticks at clock granularity (typically 10ms), so
  // burn CPU in slices until the counter visibly advances — asserting
  // monotonicity at every scrape along the way.
  double cpu_prev = cpu1;
  double cpu_now = cpu1;
  volatile double sink = 0.0;
  for (int tries = 0; tries < 200 && cpu_now <= cpu1; ++tries) {
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 <
           std::chrono::milliseconds(5)) {
      for (int i = 0; i < 10000; ++i) sink = sink + i * 1e-9;
    }
    obs::UpdateProcessMetrics();
    cpu_now = reg.GaugeValue("process_cpu_seconds_total");
    EXPECT_GE(cpu_now, cpu_prev);
    cpu_prev = cpu_now;
  }
  EXPECT_GT(cpu_now, cpu1);
}

// ---- scrape self-observability --------------------------------------------

TEST(Introspect, ScrapeSelfMetricsCountRequestsAndLatency) {
  ObsOff guard;
  obs::EnableMetrics(true);
  obs::IntrospectionServer server;
  server.Start();
  auto& reg = obs::Registry::Global();

  const std::uint64_t metrics_before = reg.CounterValue(
      "pelican_scrape_requests_total", {{"path", "/metrics"}, {"code", "200"}});
  const std::uint64_t other_before = reg.CounterValue(
      "pelican_scrape_requests_total", {{"path", "other"}, {"code", "404"}});

  const std::uint64_t rejected_before = reg.CounterValue(
      "pelican_scrape_requests_total", {{"path", "other"}, {"code", "405"}});

  EXPECT_EQ(Get(server.Port(), "/metrics").status, 200);
  EXPECT_EQ(Get(server.Port(), "/metrics").status, 200);
  // Unknown paths fold into the bounded "other" label, so a scanner
  // can't mint unbounded series.
  EXPECT_EQ(Get(server.Port(), "/definitely-not-a-route").status, 404);
  // Rejected methods share "other" too, even on a registered path —
  // only answered GET/HEAD scrapes earn a per-path series.
  EXPECT_EQ(Get(server.Port(), "/metrics", "POST").status, 405);

  EXPECT_EQ(reg.CounterValue("pelican_scrape_requests_total",
                             {{"path", "/metrics"}, {"code", "200"}}) -
                metrics_before,
            2U);
  EXPECT_EQ(reg.CounterValue("pelican_scrape_requests_total",
                             {{"path", "other"}, {"code", "404"}}) -
                other_before,
            1U);
  EXPECT_EQ(reg.CounterValue("pelican_scrape_requests_total",
                             {{"path", "other"}, {"code", "405"}}) -
                rejected_before,
            1U);
  EXPECT_EQ(reg.CounterValue("pelican_scrape_requests_total",
                             {{"path", "/metrics"}, {"code", "405"}}),
            0U);

  // The latency histogram renders as valid Prometheus with the path
  // label attached.
  const Response r = Get(server.Port(), "/metrics");
  ExpectValidPrometheus(r.body);
  EXPECT_NE(r.body.find("pelican_scrape_seconds_bucket{"),
            std::string::npos);
  EXPECT_NE(r.body.find("path=\"/metrics\""), std::string::npos);
  server.Stop();
}

// An unparsable ?seconds= must fall back to the documented default
// window, not the cumulative dump (strtod returns 0.0 on garbage,
// which used to read as seconds=0).
TEST(Introspect, ProfileSecondsUnparsableUsesFallbackWindow) {
  ObsOff guard;
  obs::ProfilerConfig pc;
  pc.hz = 0;
  pc.collect_interval_ms = 1000000;
  obs::StartProfiler(pc);
  obs::IntrospectionServer server;
  server.Start();
  const auto t0 = std::chrono::steady_clock::now();
  const Response r = Get(server.Port(), "/profile?seconds=abc");
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(r.status, 200);
  EXPECT_GE(elapsed, 1.5);  // 2-second default window, not instant
  server.Stop();
  obs::StopProfiler();
  obs::ResetProfiler();
}

// ---- malformed requests ---------------------------------------------------

TEST(HttpErrors, UnknownPathIs404) {
  obs::IntrospectionServer server;
  server.Start();
  EXPECT_EQ(Get(server.Port(), "/nope").status, 404);
  server.Stop();
}

TEST(HttpErrors, WrongMethodIs405WithAllow) {
  obs::IntrospectionServer server;
  server.Start();
  const Response r = Get(server.Port(), "/metrics", "POST");
  EXPECT_EQ(r.status, 405);
  EXPECT_EQ(r.headers.at("Allow"), "GET, HEAD");
  EXPECT_EQ(Get(server.Port(), "/metrics", "DELETE").status, 405);
  server.Stop();
}

TEST(HttpErrors, MalformedRequestLineIs400) {
  obs::IntrospectionServer server;
  server.Start();
  EXPECT_EQ(RawRequest(server.Port(), "garbage\r\n\r\n").status, 400);
  EXPECT_EQ(RawRequest(server.Port(), "GET\r\n\r\n").status, 400);
  server.Stop();
}

TEST(HttpErrors, OversizedRequestHeadIs431) {
  obs::IntrospectionServer server;
  server.Start();
  std::string huge = "GET /metrics HTTP/1.1\r\nX-Pad: ";
  huge.append(16384, 'a');  // past the 8192-byte default cap
  huge += "\r\n\r\n";
  EXPECT_EQ(RawRequest(server.Port(), huge).status, 431);
  server.Stop();
}

TEST(HttpErrors, HeadHasHeadersButNoBody) {
  obs::IntrospectionServer server;
  server.Start();
  const Response r = Get(server.Port(), "/healthz", "HEAD");
  EXPECT_EQ(r.status, 200);
  EXPECT_TRUE(r.body.empty());
  EXPECT_NE(r.headers.at("Content-Length"), "0");  // length of GET body
  server.Stop();
}

TEST(HttpErrors, QueryStringIsStrippedFromPath) {
  obs::IntrospectionServer server;
  server.Start();
  EXPECT_EQ(Get(server.Port(), "/healthz?verbose=1").status, 200);
  server.Stop();
}

// ---- concurrency + shutdown ----------------------------------------------

// Scrapes hammer /metrics and /trace while a training run mutates both
// structures. The TSan configuration turns any unsynchronized access
// into a failure; the assert here is just that every scrape answers.
TEST(IntrospectConcurrency, ScrapeDuringTraining) {
  ObsOff guard;
  obs::EnableMetrics(true);
  obs::EnableTracing(true);

  obs::IntrospectionServer server;
  server.Start();
  server.SetReady(true);

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    int i = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const char* path = (i++ % 2 == 0) ? "/metrics" : "/trace";
      const Response r = Get(server.Port(), path);
      if (r.status == 200) scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  TrainToy(/*epochs=*/3);
  // The toy run can finish before the scraper completes a round trip;
  // keep serving until at least one scrape has landed.
  while (scrapes.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_GT(scrapes.load(), 0);
  const Response final_scrape = Get(server.Port(), "/metrics");
  EXPECT_EQ(final_scrape.status, 200);
  ExpectValidPrometheus(final_scrape.body);
  server.Stop();
}

// Serve-enabled arm of the PR-4 determinism contract: training with
// the server up and a client scraping throughout must produce weights
// bit-identical to the fully silent run (scrapes only read under
// locks; they never perturb the numerics).
TEST(IntrospectConcurrency, WeightsBitIdenticalUnderLiveScrape) {
  ObsOff guard;
  auto fit = [] {
    Rng rng(123);
    Tensor x = Tensor::RandomNormal({96, 6}, rng, 0, 1);
    std::vector<int> y;
    for (int i = 0; i < 96; ++i) y.push_back(i % 3);
    Rng net_rng(7);
    auto net = models::BuildMlp(6, 3, net_rng, 16);
    core::TrainConfig tc;
    tc.epochs = 3;
    tc.batch_size = 32;
    tc.seed = 99;
    core::Trainer trainer(*net, tc);
    trainer.Fit(x, y);
    std::vector<float> w;
    for (const auto& p : net->Params()) {
      w.insert(w.end(), p.value->data().begin(), p.value->data().end());
    }
    return w;
  };

  const std::vector<float> w_off = fit();  // obs fully off, no server

  obs::EnableMetrics(true);
  obs::EnableTracing(true);
  obs::IntrospectionServer server;
  server.Start();
  server.SetReady(true);
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      Get(server.Port(), "/metrics");
    }
  });
  const std::vector<float> w_serve = fit();
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  server.Stop();

  ASSERT_EQ(w_off.size(), w_serve.size());
  EXPECT_EQ(std::memcmp(w_off.data(), w_serve.data(),
                        w_off.size() * sizeof(float)),
            0);
}

// Stop() while a client holds an open connection without sending a
// complete request: the receive timeout bounds the wait and the join
// must still complete.
TEST(IntrospectShutdown, CleanWithInFlightConnection) {
  obs::HttpServerConfig config;
  config.recv_timeout_ms = 100;  // keep the test fast
  obs::HttpServer server(config);
  server.Handle("/x", [](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain; charset=utf-8", "x\n"};
  });
  server.Start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.Port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const std::string partial = "GET /x HTTP/1.1\r\n";  // never finished
  ASSERT_EQ(::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));

  server.Stop();  // must not hang on the half-open request
  EXPECT_FALSE(server.Running());
  ::close(fd);
}

TEST(IntrospectShutdown, StopIsIdempotent) {
  obs::IntrospectionServer server;
  server.Start();
  const std::uint16_t port = server.Port();
  EXPECT_EQ(Get(port, "/healthz").status, 200);
  server.Stop();
  server.Stop();  // second call is a no-op
  EXPECT_FALSE(server.Running());
  EXPECT_FALSE(Get(port, "/healthz").connected);
}

}  // namespace
}  // namespace pelican
