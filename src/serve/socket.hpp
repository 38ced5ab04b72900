/// \file socket.hpp
/// \brief The daemon's tiny socket layer: Unix / loopback-TCP endpoints,
///        line-framed I/O, and disconnect-safe writes.
///
/// Everything here is a thin POSIX wrapper shared by the serving daemon
/// (src/serve/daemon.hpp), its example front-end, the sustained-QPS
/// bench, and the tests - so all of them exercise the exact I/O path
/// production clients see.
///
/// Writes never raise SIGPIPE: write_all_fd sends with MSG_NOSIGNAL, and
/// a peer that vanished mid-response (EPIPE/ECONNRESET) surfaces as a
/// SocketError with disconnect() set. A disconnect is a per-connection
/// event - the daemon counts it and serves the next connection; it is
/// never allowed to take the process down (a client closing early must
/// not kill a daemon mid-::write, which is exactly what an unhandled
/// SIGPIPE does).

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "util/error.hpp"

namespace adtp::serve {

/// A socket operation failed. \p disconnect marks the peer going away
/// (EPIPE, ECONNRESET): routine per-connection trouble, not a server
/// fault.
class SocketError : public Error {
 public:
  explicit SocketError(const std::string& what, bool disconnect = false)
      : Error(what), disconnect_(disconnect) {}

  [[nodiscard]] bool disconnect() const noexcept { return disconnect_; }

 private:
  bool disconnect_;
};

/// A Unix-domain path or a loopback TCP host:port.
struct Endpoint {
  bool is_unix = true;
  std::string path;        ///< unix socket path
  std::string host;        ///< tcp host
  std::uint16_t port = 0;  ///< tcp port

  [[nodiscard]] std::string describe() const {
    return is_unix ? path : host + ":" + std::to_string(port);
  }
};

/// "host:port" (no '/') parses as TCP; anything else is a unix path.
[[nodiscard]] Endpoint parse_endpoint(const std::string& spec);

/// Binds and listens (unlinking a stale unix path first). Throws Error.
[[nodiscard]] int listen_on(const Endpoint& ep);

/// Connects; throws SocketError on failure.
[[nodiscard]] int connect_to(const Endpoint& ep);

/// connect_to with doubling backoff from 50ms (~6s total): the daemon
/// may still be booting, or a previous instance may just have died.
[[nodiscard]] int connect_with_retry(const Endpoint& ep);

/// Writes all \p n bytes via send(MSG_NOSIGNAL) - no SIGPIPE, ever.
/// Throws SocketError; disconnect() is set when the peer went away.
void write_all_fd(int fd, const char* data, std::size_t n);

/// Polls \p fd without blocking for up to \p budget, yielding the CPU
/// between polls; true as soon as a read would not block (bytes, EOF or
/// an error are pending), false when the budget ran out first. A
/// closed-loop client's next request follows the reply within
/// microseconds: caught here, it costs the reader no sleep and no
/// wake-up.
bool poll_readable_fd(int fd, std::chrono::microseconds budget);

/// Reads one '\n'-terminated line from stream socket \p fd (terminator
/// consumed, not returned) and never consumes a byte past it, so a body
/// that follows the line stays readable - by the same or another reader.
/// Frames the line with recv(MSG_PEEK) and one consuming recv: two
/// syscalls for a short line. Empty optional on clean EOF before any
/// byte; EOF mid-line hands back what arrived. Throws SocketError
/// (disconnect() for a reset peer) and when the line exceeds \p max bytes.
[[nodiscard]] std::optional<std::string> read_line_fd(int fd,
                                                      std::size_t max = 4096);

/// Reads exactly \p n bytes; throws SocketError on EOF or failure.
[[nodiscard]] std::string read_exact_fd(int fd, std::size_t n);

/// Client helper: sends \p line, returns the single-line reply. Throws
/// SocketError when the daemon closed the connection instead.
[[nodiscard]] std::string request_line(int fd, const std::string& line);

}  // namespace adtp::serve
