/// \file daemon.hpp
/// \brief The embeddable analysis daemon: a bounded worker pool serving
///        the ANALYZE/STATS/PING wire protocol over a shared,
///        crash-safe front store.
///
/// DaemonServer is the serving core behind examples/serving_daemon.cpp,
/// factored into the library so tests and the sustained-QPS bench run
/// the real accept loop, the real protocol, and the real cache in
/// process. One server owns one PersistentFrontCache (writer or
/// follower; see store/shard.hpp's multi-process model) and serves:
///
///   ANALYZE <format> <nbytes>\n<payload>   format in {text, xml, json}
///               json wraps {"model", "format", "algorithm", "deadline"};
///               a positive "deadline" (seconds) can only shorten the
///               server's deadline_seconds, never extend it
///   STATS\n     serving + cache + store metrics as one JSON line
///   PING\n      liveness probe
///   REFRESH\n   follower: pick up the writer's committed appends now
///   PROMOTE\n   follower: try to take the writer lease (retryable
///               error while the writer lives)
///
/// Concurrency model - two explicit bounds, no unbounded anything:
///
///   * max_connections worker threads are spawned once; each serves one
///     connection at a time. The acceptor hands a new connection to an
///     idle worker or, when all are busy, answers with a retryable
///     over-capacity JSON line and closes - the cap is enforced at
///     accept time, so a connection storm cannot spawn a thread per
///     socket (the failure mode this class replaced).
///   * max_inflight bounds concurrent *analyses* across all
///     connections; excess ANALYZE requests are rejected retryably up
///     front instead of queueing past their deadline.
///
/// After each reply a worker polls its connection for kRequestPoll,
/// yielding the CPU between polls, before it blocks in recv(). Under
/// load the next request arrives within that window, and a worker that
/// catches it awake saves the sleep and wake-up that would otherwise
/// bracket a memo hit of a few microseconds.
///
/// A client disconnecting mid-response is a counted per-connection
/// event (SIGPIPE is never raised - src/serve/socket.hpp): the worker
/// finishes the connection and picks up the next one. stop() is
/// idempotent, wakes every blocked thread, and joins them all - a
/// stopped server has provably no threads left.
///
/// In follower mode with store_refresh_seconds > 0 a refresher thread
/// calls cache().refresh() on that period, so a follower daemon trails
/// the writer's appends without client action.
///
/// The reply memo sits in front of all of it. A cached reply depends
/// only on the request's bytes, so the daemon keeps one more LruCache
/// (util/lru_cache.hpp) from a request's exact bytes (format and body)
/// to the JSON line it sent as that request's "cached":true reply, and
/// serve_analyze looks the bytes up before it parses. A hit returns the
/// stored line: no parsing, no cache key, no FrontCache lookup or copy,
/// no encoding, no analysis. It counts in `requests` and `cache_hits`,
/// never against max_inflight. Fill rule: only a "cached":true reply is
/// stored, and only when the body and the reply each fit in
/// kReplyMemoMaxBytes; parse errors, rejections, failures and cold
/// "cached":false replies never are, nor is anything for a larger
/// body. Keys compare every byte (a hash collision cannot serve another
/// request's reply), and both of a key's copies in the LruCache share
/// one body buffer, so the memo holds at most memory_capacity entries
/// of at most 128 KiB each (body plus reply); memory_capacity 0
/// disables it as it disables the memory tier. STATS reports it as
/// "replies", and "memory" counts only the requests it missed.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "serve/socket.hpp"
#include "store/persistent_cache.hpp"
#include "util/lru_cache.hpp"

namespace adtp::serve {

struct DaemonConfig {
  /// Per-analysis kernel deadline (a Deadline, not a socket timeout);
  /// <= 0 means none. A request's own "deadline" may only shorten it.
  double deadline_seconds = 10.0;
  /// Concurrent analyses admitted across all connections.
  std::size_t max_inflight = 8;
  /// Worker pool size = concurrent connections served; beyond it a new
  /// connection gets a retryable over-capacity reply and is closed.
  std::size_t max_connections = 64;
  /// Intra-model threads per analysis (AnalysisOptions::
  /// intra_model_threads; 0 and 1 analyze sequentially).
  unsigned threads = 0;
  /// Entry bound of both memory tiers: the cache's and the reply
  /// memo's (see the file comment); 0 disables both.
  std::size_t memory_capacity = 256;
  /// Store directory (the cache degrades to memory-only on store
  /// trouble; it never fails the daemon).
  std::string store_dir = "adtp_store";
  /// Attach the store as a read-only follower of another daemon's
  /// writer lease (store/persistent_cache.hpp).
  bool store_follower = false;
  /// Follower auto-refresh period; <= 0 disables the refresher thread.
  double store_refresh_seconds = 0;
  /// Diagnostics sink (store degradation, per-connection errors);
  /// null discards. Called from server threads: keep it cheap.
  std::function<void(const std::string&)> log;
};

/// Monotone serving counters (atomics: read them live via STATS).
struct DaemonMetrics {
  std::atomic<std::uint64_t> requests{0};     ///< ANALYZE accepted
  std::atomic<std::uint64_t> computed{0};     ///< served by a kernel run
  std::atomic<std::uint64_t> cache_hits{0};   ///< memo, memory or store hit
  std::atomic<std::uint64_t> rejected{0};     ///< max_inflight rejections
  std::atomic<std::uint64_t> failed{0};       ///< parse/model/deadline errors
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_rejected{0};  ///< pool saturated
  std::atomic<std::uint64_t> disconnects{0};  ///< peer vanished mid-exchange
  std::atomic<std::uint64_t> refreshes{0};    ///< follower refreshes run
  std::atomic<std::uint64_t> promotions{0};   ///< successful PROMOTEs
};

class DaemonServer {
 public:
  /// The reply memo's cap on a request body and on a reply alike.
  static constexpr std::size_t kReplyMemoMaxBytes = std::size_t{64} << 10;
  /// How long a worker polls its connection for the next request before
  /// it blocks in recv() (see the file comment).
  static constexpr std::chrono::microseconds kRequestPoll{50};

  /// Opens the cache (never throws for store trouble) but does not
  /// listen yet; call start().
  explicit DaemonServer(Endpoint endpoint, DaemonConfig config);
  /// stop()s.
  ~DaemonServer();

  DaemonServer(const DaemonServer&) = delete;
  DaemonServer& operator=(const DaemonServer&) = delete;

  /// Binds, listens, and spawns the acceptor + workers (+ refresher in
  /// follower mode). Throws SocketError when the endpoint cannot be
  /// bound. For a TCP endpoint with port 0 the kernel picks a port;
  /// endpoint() reports the real one after start().
  void start();

  /// Idempotent: wakes and joins every server thread, closes every
  /// connection. After stop() returns no server thread exists.
  void stop();

  [[nodiscard]] const Endpoint& endpoint() const noexcept {
    return endpoint_;
  }
  [[nodiscard]] const DaemonMetrics& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] store::PersistentFrontCache& cache() noexcept {
    return cache_;
  }

  /// The STATS response body (also handy for tests and the bench).
  [[nodiscard]] std::string stats_json();

 private:
  void accept_loop();
  void worker_loop();
  void refresher_loop();
  void serve_connection(int fd);
  [[nodiscard]] std::string serve_request(int fd, const std::string& line);
  [[nodiscard]] std::string serve_analyze(
      const std::string& format, std::shared_ptr<const std::string> body);
  void log(const std::string& what);

  /// A reply memo key: one request's exact bytes. The body is shared, so
  /// the LruCache's two copies of a key hold one buffer.
  struct RequestBytes {
    RequestBytes(std::string format, std::shared_ptr<const std::string> body);
    bool operator==(const RequestBytes& other) const noexcept;

    std::string format;
    std::shared_ptr<const std::string> body;
    std::size_t hash;  ///< of format and body, computed once
  };
  struct RequestBytesHash {
    std::size_t operator()(const RequestBytes& key) const noexcept {
      return key.hash;
    }
  };

  Endpoint endpoint_;
  DaemonConfig config_;
  store::PersistentFrontCache cache_;
  /// The reply memo: request bytes -> the "cached":true reply line.
  LruCache<RequestBytes, std::string, RequestBytesHash> replies_;
  DaemonMetrics metrics_;
  std::atomic<std::size_t> inflight_{0};

  std::atomic<bool> stopping_{false};
  bool started_ = false;
  int listener_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< stop() pokes the acceptor's poll
  std::thread acceptor_;
  std::thread refresher_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;  ///< guards the three fields below
  std::condition_variable cv_;
  std::deque<int> pending_;            ///< accepted, waiting for a worker
  std::unordered_set<int> active_;     ///< every open connection fd
  std::size_t serving_ = 0;            ///< workers mid-connection

  /// The refresher sleeps on its own condvar so a worker wake-up is
  /// never consumed by it (a lost notify would strand a connection).
  std::mutex refresh_mutex_;
  std::condition_variable refresh_cv_;
};

}  // namespace adtp::serve
