#include "obs/net_util.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>

#include "common/check.h"

namespace pelican::obs {
namespace {

ssize_t OpsRecv(const SocketOps& ops, int fd, void* buf, std::size_t len) {
  if (ops.recv) return ops.recv(fd, buf, len);
  return ::recv(fd, buf, len, 0);
}

ssize_t OpsSend(const SocketOps& ops, int fd, const void* buf,
                std::size_t len) {
  if (ops.send) return ops.send(fd, buf, len);
  // MSG_NOSIGNAL: a dead peer yields EPIPE instead of killing the
  // process with SIGPIPE.
  return ::send(fd, buf, len, MSG_NOSIGNAL);
}

}  // namespace

int ListenTcp(const std::string& bind_address, std::uint16_t port,
              int backlog, std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  PELICAN_CHECK(fd >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    PELICAN_CHECK(false, "bad bind address: " + bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    PELICAN_CHECK(false, "cannot listen on " + bind_address + ":" +
                             std::to_string(port) + ": " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  *bound_port = ntohs(bound.sin_port);
  return fd;
}

ssize_t RecvRetry(const SocketOps& ops, int fd, void* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = OpsRecv(ops, fd, buf, len);
    if (n >= 0 || errno != EINTR) return n;
  }
}

bool SendAll(const SocketOps& ops, int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = OpsSend(ops, fd, p + sent, len - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool SendAll(const SocketOps& ops, int fd, std::string_view data) {
  return SendAll(ops, fd, data.data(), data.size());
}

int AcceptRetry(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

bool PollIn(int fd, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  int remaining = timeout_ms;
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, remaining);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
    if (timeout_ms < 0) continue;  // infinite wait: just retry
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return false;
    remaining = static_cast<int>(left.count());
  }
}

void LingeringClose(const SocketOps& ops, int fd, std::size_t drain_limit,
                    int linger_ms) {
  ::shutdown(fd, SHUT_WR);
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(linger_ms);
  char drain[1024];
  std::size_t drained = 0;
  while (drained < drain_limit) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) break;  // silent peer: time is up, just close
    if (!PollIn(fd, static_cast<int>(left.count()))) break;
    const ssize_t n = RecvRetry(ops, fd, drain, sizeof drain);
    if (n <= 0) break;  // EOF, timeout, or error — all end the linger
    drained += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

}  // namespace pelican::obs
