#include "obs/http_server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/net_util.h"
#include "obs/profiler.h"

namespace pelican::obs {

namespace {

const char* StatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

// Best-effort full write via the shared EINTR-safe helper (the client
// may have hung up, which is its problem, not ours).
void SendResponse(const SocketOps& ops, int fd, const std::string& method,
                  const HttpResponse& response) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     StatusText(response.status) + "\r\n";
  head += "Content-Type: " + response.content_type + "\r\n";
  head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  if (response.status == 405) head += "Allow: GET, HEAD\r\n";
  head += "Connection: close\r\n\r\n";
  SendAll(ops, fd, head);
  if (method != "HEAD") SendAll(ops, fd, response.body);
}

}  // namespace

HttpServer::HttpServer(HttpServerConfig config)
    : config_(std::move(config)) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(const std::string& path, HttpHandler handler) {
  std::lock_guard lock(handlers_mu_);
  handlers_[path] = std::move(handler);
}

void HttpServer::Start() {
  PELICAN_CHECK(!running_.load(), "HttpServer already started");
  listen_fd_ =
      ListenTcp(config_.bind_address, config_.port, config_.backlog, &port_);

  stop_.store(false);
  running_.store(true);
  thread_ = std::thread([this] { Serve(); });
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::Serve() {
  // Render work (Prometheus text, trace JSON, profile symbolization)
  // burns CPU on this thread; sample it like any other.
  ProfiledThreadScope profiled;
  while (!stop_.load()) {
    // Poll with a short timeout so Stop() is observed promptly even
    // when no client ever connects; accept itself never blocks.
    if (!PollIn(listen_fd_, 50)) continue;
    const int fd = AcceptRetry(listen_fd_);
    if (fd < 0) continue;
    timeval tv{};
    tv.tv_sec = config_.recv_timeout_ms / 1000;
    tv.tv_usec = (config_.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    HandleConnection(fd);
    // Count before shutdown: the client observes completion (EOF) at
    // the shutdown below, and must not race ahead of the counter.
    requests_.fetch_add(1, std::memory_order_relaxed);
    // Lingering close: shut our write side, then drain (bounded) what
    // the client is still sending, so close() doesn't turn into an RST
    // that discards the response — matters for 431, where we answer
    // before the client finishes transmitting the oversized head.
    LingeringClose(config_.ops, fd, 10 * config_.max_request_bytes);
  }
}

void HttpServer::HandleConnection(int fd) {
  // Scrape self-observability: every answered request lands one
  // observation in pelican_scrape_seconds{path} and one count in
  // pelican_scrape_requests_total{path,code}, so a slow /metrics or a
  // 30-second /profile window is itself visible on the next scrape.
  // The path label is bounded: only exactly-registered paths get their
  // own series; malformed, unknown, and rejected requests share
  // "other". Requests dropped before a response (timeout, hangup) are
  // not scrapes and record nothing.
  const auto started = std::chrono::steady_clock::now();
  std::string method = "GET";
  std::string path_label = "other";
  HttpResponse response;
  if (!DispatchRequest(fd, method, path_label, response)) return;
  SendResponse(config_.ops, fd, method, response);
  if (MetricsEnabled()) {
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    auto& reg = Registry::Global();
    reg.GetHistogram("pelican_scrape_seconds",
                     "Introspection request duration (handler + send)",
                     DefaultTimeBuckets(), {{"path", path_label}})
        .Observe(seconds);
    reg.GetCounter("pelican_scrape_requests_total",
                   "Introspection requests answered",
                   {{"path", path_label},
                    {"code", std::to_string(response.status)}})
        .Inc();
  }
}

bool HttpServer::DispatchRequest(int fd, std::string& method,
                                 std::string& path_label,
                                 HttpResponse& response) {
  // Read until the end of the request head; a GET carries no body we
  // care about, so everything past "\r\n\r\n" is ignored.
  std::string head;
  char buf[1024];
  while (head.find("\r\n\r\n") == std::string::npos) {
    if (head.size() > config_.max_request_bytes) {
      response = {431, "text/plain; charset=utf-8", "request too large\n"};
      return true;
    }
    // RecvRetry absorbs EINTR, so only a real timeout (EAGAIN via
    // SO_RCVTIMEO) or hangup drops the request — a signal landing
    // mid-read no longer kills an otherwise healthy scrape.
    const ssize_t n = RecvRetry(config_.ops, fd, buf, sizeof buf);
    if (n <= 0) return false;  // timeout or client hangup: drop silently
    head.append(buf, static_cast<std::size_t>(n));
  }

  // Request line: METHOD SP TARGET SP HTTP/1.x
  const std::size_t line_end = head.find("\r\n");
  const std::string line = head.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos
                              ? std::string::npos
                              : line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos ||
      line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    response = {400, "text/plain; charset=utf-8", "malformed request line\n"};
    return true;
  }
  HttpRequest request;
  request.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t qmark = target.find('?');
  request.path = target.substr(0, qmark);
  if (qmark != std::string::npos) request.query = target.substr(qmark + 1);

  HttpHandler handler;
  {
    std::lock_guard lock(handlers_mu_);
    auto it = handlers_.find(request.path);
    if (it != handlers_.end()) handler = it->second;
  }

  method = request.method;
  if (request.method != "GET" && request.method != "HEAD") {
    // path_label stays "other": rejected requests share one series
    // even when the target path is registered.
    response = {405, "text/plain; charset=utf-8", "method not allowed\n"};
    return true;
  }
  if (!handler) {
    response = {404, "text/plain; charset=utf-8", "not found\n"};
    return true;
  }
  path_label = request.path;
  response = handler(request);
  return true;
}

}  // namespace pelican::obs
