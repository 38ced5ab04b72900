#include "serve/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace adtp::serve {

namespace {

[[noreturn]] void throw_socket(const std::string& what) {
  const int err = errno;
  throw SocketError(what + ": " + std::strerror(err),
                    /*disconnect=*/err == EPIPE || err == ECONNRESET);
}

}  // namespace

Endpoint parse_endpoint(const std::string& spec) {
  Endpoint ep;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos && spec.find('/') == std::string::npos) {
    ep.is_unix = false;
    ep.host = spec.substr(0, colon);
    ep.port = static_cast<std::uint16_t>(std::stoul(spec.substr(colon + 1)));
  } else {
    ep.path = spec;
  }
  return ep;
}

int listen_on(const Endpoint& ep) {
  if (ep.is_unix) {
    ::unlink(ep.path.c_str());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_socket("socket()");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (ep.path.size() >= sizeof(addr.sun_path)) {
      ::close(fd);
      throw SocketError("unix socket path too long: " + ep.path);
    }
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      throw_socket("bind(" + ep.path + ")");
    }
    if (::listen(fd, 64) != 0) {
      ::close(fd);
      throw_socket("listen()");
    }
    return fd;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_socket("socket()");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(ep.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_socket("bind(port " + std::to_string(ep.port) + ")");
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw_socket("listen()");
  }
  return fd;
}

int connect_to(const Endpoint& ep) {
  if (ep.is_unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_socket("socket()");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      throw_socket("connect(" + ep.path + ")");
    }
    return fd;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_socket("socket()");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw SocketError("bad host: " + ep.host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw_socket("connect(" + ep.describe() + ")");
  }
  return fd;
}

int connect_with_retry(const Endpoint& ep) {
  double backoff = 0.05;
  for (int attempt = 0;; ++attempt) {
    try {
      return connect_to(ep);
    } catch (const SocketError&) {
      if (attempt >= 7) throw;
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff *= 2;
    }
  }
}

void write_all_fd(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that closed early yields EPIPE instead of a
    // process-fatal SIGPIPE (see the file comment).
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_socket("socket write failed");
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

namespace {

/// recv() retried on EINTR; throws SocketError on failure.
std::size_t recv_some(int fd, char* into, std::size_t n, int flags) {
  while (true) {
    const ssize_t r = ::recv(fd, into, n, flags);
    if (r >= 0) return static_cast<std::size_t>(r);
    if (errno != EINTR) throw_socket("socket read failed");
  }
}

}  // namespace

std::optional<std::string> read_line_fd(int fd, std::size_t max) {
  // Each round peeks at what has arrived, then consumes it up to and
  // including the first '\n' - so nothing past the line ever leaves the
  // socket. A request header fits in the first window; longer lines
  // (replies read by clients) double it each round.
  std::string line;
  std::size_t window = 256;
  while (true) {
    const std::size_t have = line.size();
    line.resize(have + window);
    char* const chunk = line.data() + have;
    const std::size_t peeked = recv_some(fd, chunk, window, MSG_PEEK);
    if (peeked == 0) {
      line.resize(have);
      if (line.empty()) return std::nullopt;
      return line;  // EOF mid-line: hand back what arrived
    }
    const auto* newline =
        static_cast<const char*>(std::memchr(chunk, '\n', peeked));
    const std::size_t content =
        newline != nullptr ? static_cast<std::size_t>(newline - chunk) : peeked;
    if (have + content > max) throw SocketError("request line too long");
    const std::size_t take = newline != nullptr ? content + 1 : peeked;
    // The peeked bytes are already in place; this read only consumes them.
    for (std::size_t taken = 0; taken < take;) {
      const std::size_t r = recv_some(fd, chunk + taken, take - taken, 0);
      if (r == 0) {
        throw SocketError("connection closed mid-line", /*disconnect=*/true);
      }
      taken += r;
    }
    line.resize(have + content);
    if (newline != nullptr) return line;
    window = std::min<std::size_t>(window * 2, 1u << 16);
  }
}

std::string read_exact_fd(int fd, std::size_t n) {
  std::string body(n, '\0');
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, body.data() + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_socket("socket read failed");
    }
    if (r == 0) {
      throw SocketError("connection closed mid-payload", /*disconnect=*/true);
    }
    got += static_cast<std::size_t>(r);
  }
  return body;
}

std::string request_line(int fd, const std::string& line) {
  write_all_fd(fd, line.data(), line.size());
  const auto response = read_line_fd(fd, 1u << 22);
  if (!response.has_value()) {
    throw SocketError("daemon closed the connection", /*disconnect=*/true);
  }
  return *response;
}

}  // namespace adtp::serve
