// Shared socket primitives for the blocking network servers
// (obs::HttpServer control plane, serve::ScoringServer data plane).
//
// Two jobs live here:
//  1. Correctness under signals and partial I/O: every helper retries
//     EINTR, SendAll resumes short writes, PollIn recomputes the
//     remaining timeout after an interrupted poll.
//  2. A seam for deterministic fault injection: all reads and writes
//     go through a SocketOps vtable that tests can replace with a
//     misbehaving implementation (see common/fault_injection.h).
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace pelican::obs {

// Pluggable syscall layer. Empty std::functions mean "use the real
// ::recv / ::send" (the default-constructed SocketOps is the real
// one); tests install lambdas that inject short reads, EINTR,
// ECONNRESET, truncation, or delays.
struct SocketOps {
  std::function<ssize_t(int fd, void* buf, std::size_t len)> recv;
  std::function<ssize_t(int fd, const void* buf, std::size_t len)> send;
};

// A TCP listener on `bind_address`:`port` (0: the kernel picks) with
// SO_REUSEADDR; returns its fd and sets `*bound_port`. Throws CheckError,
// the socket closed, on a bad address or a failed bind or listen.
int ListenTcp(const std::string& bind_address, std::uint16_t port,
              int backlog, std::uint16_t* bound_port);

// One recv through `ops`, retrying EINTR. Returns >0 on data, 0 on
// peer EOF, -1 with errno set otherwise (including EAGAIN when the
// socket carries a receive timeout).
ssize_t RecvRetry(const SocketOps& ops, int fd, void* buf, std::size_t len);

// Writes the whole buffer, retrying EINTR and resuming short writes.
// Returns false on any other error (EPIPE, ECONNRESET, or EAGAIN when
// the socket carries a send timeout — the slow-client case).
bool SendAll(const SocketOps& ops, int fd, const void* data, std::size_t len);
bool SendAll(const SocketOps& ops, int fd, std::string_view data);

// accept(2) retrying EINTR; returns the connected fd or -1.
int AcceptRetry(int listen_fd);

// Waits for readability. EINTR-aware: an interrupted poll resumes
// with the remaining time, so a signal storm cannot extend the
// deadline. timeout_ms < 0 waits forever; 0 is a non-blocking check.
// Returns true when readable (or the peer hung up — the next read
// surfaces it), false on timeout.
bool PollIn(int fd, int timeout_ms);

// Half-close then drain: shutdown(SHUT_WR) so the peer sees FIN after
// the final response, swallow up to `drain_limit` bytes of anything
// still in flight (avoids RST-before-delivery on Linux), then close.
// The drain is bounded in time as well as bytes — a silent peer that
// holds its end open cannot pin the closing thread (or a server
// drain) past `linger_ms`.
void LingeringClose(const SocketOps& ops, int fd, std::size_t drain_limit,
                    int linger_ms = 1000);

}  // namespace pelican::obs
