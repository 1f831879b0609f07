// pelican::obs — live introspection endpoints over HttpServer.
//
// Turns the PR-4 telemetry core (metrics registry, trace buffers) into
// something an operator or a Prometheus scraper can point at while the
// process is training or streaming:
//
//   GET /metrics       Prometheus text exposition of the global registry
//   GET /metrics.json  the same scrape as JSON
//   GET /healthz       liveness: 200 "ok" whenever the thread serves
//   GET /readyz        readiness: 503 until SetReady(true) (model loaded)
//   GET /buildinfo     git describe, compiler, build flags, pid, uptime
//   GET /trace         snapshot of the trace buffers as Chrome trace JSON
//   GET /stream        detector stats JSON from SetStreamSource, or
//                      {"active": false} before a detector registers
//
// The obs library sits below core, so the server knows nothing about
// StreamDetector: the CLI (or any embedder) injects a JSON provider via
// SetStreamSource. Scrapes are read-only snapshots of structures that
// are already safe to read concurrently with writers (registry merges
// under per-series locks, trace buffers under per-buffer locks), so a
// scrape never perturbs training — the weight memcmp under a live
// scraper (introspect_test) covers the server, and bench/obs_overhead
// reports what serving scrapes costs a training run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "obs/http_server.h"

namespace pelican::obs {

// Process-wide metrics every scrape refreshes (registered lazily, only
// while MetricsEnabled()): `process_uptime_seconds` and the constant-1
// `pelican_build_info{git,compiler,flags}` info gauge. Callable on its
// own (the CLI refreshes before a final --metrics-out render).
void UpdateProcessMetrics();

// Seconds since the process first touched the obs clock.
double ProcessUptimeSeconds();

struct IntrospectConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read back via Port()
};

class IntrospectionServer {
 public:
  explicit IntrospectionServer(IntrospectConfig config = {});
  ~IntrospectionServer();

  // Binds and serves; throws CheckError when the port can't be taken.
  void Start();
  // Graceful: in-flight request answered, thread joined. Idempotent.
  void Stop();

  [[nodiscard]] bool Running() const { return server_->Running(); }
  [[nodiscard]] std::uint16_t Port() const { return server_->Port(); }
  [[nodiscard]] std::uint64_t RequestCount() const {
    return server_->RequestCount();
  }

  // /readyz flips 503 → 200; call once the model is loaded/built.
  void SetReady(bool ready);

  // Installs the /stream payload provider (returns a JSON object).
  // May be called while serving; last writer wins.
  void SetStreamSource(std::function<std::string()> provider);

  // Escape hatch for embedders: extra endpoints on the same listener.
  void Handle(const std::string& path, HttpHandler handler);

 private:
  std::unique_ptr<HttpServer> server_;
  std::shared_ptr<std::atomic<bool>> ready_;
};

}  // namespace pelican::obs
