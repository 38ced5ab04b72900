#include "serve/daemon.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "adt/adtool_xml.hpp"
#include "adt/text_format.hpp"
#include "core/analyzer.hpp"
#include "util/cancel.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace adtp::serve {

namespace {

struct ParsedRequest {
  std::optional<AugmentedAdt> aadt;  ///< engaged after a successful parse
  AnalysisOptions options;
  double deadline = 0;  ///< json envelope only; <= 0 = server default
};

Algorithm parse_algorithm(const std::string& name) {
  if (name == "auto") return Algorithm::Auto;
  if (name == "naive") return Algorithm::Naive;
  if (name == "bottom_up" || name == "bottom-up") return Algorithm::BottomUp;
  if (name == "bdd_bu" || name == "bdd-bu") return Algorithm::BddBu;
  if (name == "hybrid") return Algorithm::Hybrid;
  throw Error("unknown algorithm: " + name);
}

AugmentedAdt model_from(const std::string& format, const std::string& body) {
  if (format == "text") return parse_adt_text(body).augmented();
  if (format == "xml") {
    AdtoolImport imported = import_adtool_xml(body);
    return AugmentedAdt(std::move(imported.adt),
                        std::move(imported.attribution), Semiring::min_cost(),
                        Semiring::min_cost());
  }
  throw Error("unknown model format: " + format);
}

ParsedRequest parse_request(const std::string& format,
                            const std::string& body) {
  ParsedRequest req;
  if (format == "json") {
    const JsonValue doc = parse_json(body);
    const std::string inner =
        doc.has("format") ? doc.at("format").as_string() : "text";
    if (inner == "json") throw Error("json envelope cannot nest json");
    req.aadt = model_from(inner, doc.at("model").as_string());
    if (doc.has("algorithm")) {
      req.options.algorithm = parse_algorithm(doc.at("algorithm").as_string());
    }
    if (doc.has("deadline")) req.deadline = doc.at("deadline").as_number();
    return req;
  }
  req.aadt = model_from(format, body);
  return req;
}

std::string error_json(const std::string& what, bool retryable) {
  JsonWriter json;
  json.begin_object();
  json.key("ok").value(false);
  json.key("error").value(what);
  json.key("retryable").value(retryable);
  json.end_object();
  return json.str();
}

std::string result_json(const AnalysisResult& result, bool cached,
                        std::size_t nodes) {
  JsonWriter json;
  json.begin_object();
  json.key("ok").value(true);
  json.key("cached").value(cached);
  json.key("algorithm").value(to_string(result.used));
  json.key("nodes").value(static_cast<std::uint64_t>(nodes));
  json.key("seconds").value(result.seconds);
  json.key("front").begin_array();
  for (const ValuePoint& p : result.front.points()) {
    json.begin_array();
    json.value(p.def);
    json.value(p.att);
    json.end_array();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace

DaemonServer::DaemonServer(Endpoint endpoint, DaemonConfig config)
    : endpoint_(std::move(endpoint)),
      config_(std::move(config)),
      cache_(config_.store_dir, [this] {
        store::PersistentCacheOptions options;
        options.memory_capacity = config_.memory_capacity;
        // A follower daemon is routinely started alongside its writer;
        // give the writer a moment to initialize the directory instead
        // of degrading on the startup race.
        if (config_.store_follower) {
          options.store.mode = store::AttachMode::Follower;
          options.open_retry_seconds = 5.0;
        }
        options.on_store_error = [this](const std::string& what) {
          log("[store] " + what);
        };
        return options;
      }()),
      replies_(config_.memory_capacity) {}

DaemonServer::RequestBytes::RequestBytes(
    std::string request_format,
    std::shared_ptr<const std::string> request_body)
    : format(std::move(request_format)),
      body(std::move(request_body)),
      hash(static_cast<std::size_t>(
          hash_combine(std::hash<std::string_view>{}(*body),
                       std::hash<std::string_view>{}(format)))) {}

bool DaemonServer::RequestBytes::operator==(
    const RequestBytes& other) const noexcept {
  return hash == other.hash && format == other.format &&
         *body == *other.body;
}

DaemonServer::~DaemonServer() { stop(); }

void DaemonServer::log(const std::string& what) {
  if (config_.log) config_.log(what);
}

void DaemonServer::start() {
  if (started_) return;
  listener_ = listen_on(endpoint_);
  if (!endpoint_.is_unix && endpoint_.port == 0) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len) ==
        0) {
      endpoint_.port = ntohs(addr.sin_port);
    }
  }
  if (::pipe(wake_pipe_) != 0) {
    ::close(listener_);
    listener_ = -1;
    throw SocketError(std::string("pipe() failed: ") + std::strerror(errno));
  }
  started_ = true;
  stopping_.store(false);
  workers_.reserve(config_.max_connections);
  for (std::size_t i = 0; i < config_.max_connections; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  if (cache_.follower() && config_.store_refresh_seconds > 0) {
    refresher_ = std::thread([this] { refresher_loop(); });
  }
}

void DaemonServer::stop() {
  if (!started_) return;
  if (stopping_.exchange(true)) return;
  // Wake the acceptor's poll, then every blocked thread and connection.
  if (wake_pipe_[1] >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // In-flight reads on every open connection return EOF/reset now.
    for (const int fd : active_) ::shutdown(fd, SHUT_RDWR);
  }
  cv_.notify_all();
  refresh_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  if (refresher_.joinable()) refresher_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Workers closed what they served; close what never got picked up.
  for (const int fd : pending_) ::close(fd);
  pending_.clear();
  active_.clear();
  if (listener_ >= 0) ::close(listener_);
  listener_ = -1;
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  started_ = false;
}

void DaemonServer::accept_loop() {
  while (!stopping_.load()) {
    pollfd fds[2] = {{listener_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      log(std::string("[daemon] poll failed: ") + std::strerror(errno));
      break;
    }
    if (stopping_.load()) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listener_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED) continue;
      log(std::string("[daemon] accept failed: ") + std::strerror(errno));
      break;
    }
    bool admitted = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (pending_.size() + serving_ < config_.max_connections) {
        active_.insert(fd);
        pending_.push_back(fd);
        admitted = true;
      }
    }
    if (admitted) {
      metrics_.connections_accepted.fetch_add(1);
      cv_.notify_one();
    } else {
      // Saturated pool: the cap is enforced here, at accept time - a
      // connection storm never grows the thread count.
      metrics_.connections_rejected.fetch_add(1);
      const std::string reply =
          error_json("over capacity (max-connections reached)",
                     /*retryable=*/true) +
          "\n";
      try {
        write_all_fd(fd, reply.data(), reply.size());
      } catch (const SocketError&) {
        // Best effort; the peer may already be gone.
      }
      ::close(fd);
    }
  }
}

void DaemonServer::worker_loop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock,
               [this] { return stopping_.load() || !pending_.empty(); });
      if (stopping_.load()) return;
      fd = pending_.front();
      pending_.pop_front();
      ++serving_;
    }
    serve_connection(fd);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      active_.erase(fd);
      --serving_;
    }
    ::close(fd);
  }
}

void DaemonServer::refresher_loop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(refresh_mutex_);
      refresh_cv_.wait_for(
          lock,
          std::chrono::duration<double>(config_.store_refresh_seconds),
          [this] { return stopping_.load(); });
      if (stopping_.load()) return;
    }
    if (cache_.refresh().has_value()) metrics_.refreshes.fetch_add(1);
  }
}

void DaemonServer::serve_connection(int fd) {
  try {
    while (!stopping_.load()) {
      (void)poll_readable_fd(fd, kRequestPoll);
      const std::optional<std::string> line = read_line_fd(fd);
      if (!line.has_value()) break;
      const std::string response = serve_request(fd, *line) + "\n";
      write_all_fd(fd, response.data(), response.size());
    }
  } catch (const SocketError& e) {
    // A peer that vanished (EPIPE on our write, reset on our read) is
    // routine: count it, drop the connection, serve the next one.
    if (e.disconnect()) {
      metrics_.disconnects.fetch_add(1);
    } else {
      log(std::string("[conn] ") + e.what());
    }
  } catch (const std::exception& e) {
    log(std::string("[conn] ") + e.what());
  }
}

std::string DaemonServer::serve_request(int fd, const std::string& line) {
  std::istringstream words(line);
  std::string verb;
  words >> verb;
  if (verb == "PING") return R"({"ok":true,"pong":true})";
  if (verb == "STATS") return stats_json();
  if (verb == "REFRESH") {
    const auto report = cache_.refresh();
    if (!report.has_value()) {
      return error_json("store degraded; nothing to refresh", false);
    }
    metrics_.refreshes.fetch_add(1);
    JsonWriter json;
    json.begin_object();
    json.key("ok").value(true);
    json.key("new_entries").value(report->new_entries);
    json.key("generation_changed").value(report->generation_changed);
    json.end_object();
    return json.str();
  }
  if (verb == "PROMOTE") {
    if (!cache_.follower()) {
      return error_json("not a follower (already the writer or degraded)",
                        false);
    }
    if (!cache_.promote()) {
      return error_json("writer lease unavailable (writer still alive?)",
                        /*retryable=*/true);
    }
    metrics_.promotions.fetch_add(1);
    return R"({"ok":true,"promoted":true})";
  }
  if (verb == "ANALYZE") {
    std::string format;
    std::size_t nbytes = 0;
    if (!(words >> format >> nbytes) || nbytes > (16u << 20)) {
      return error_json("malformed ANALYZE header", false);
    }
    return serve_analyze(
        format, std::make_shared<const std::string>(read_exact_fd(fd, nbytes)));
  }
  return error_json("unknown verb: " + verb, false);
}

/// Serves one ANALYZE request body; returns the JSON response line.
/// Bytes already answered as cached get the stored reply line; the rest
/// are parsed, and identical concurrent requests coalesce on the
/// cache's single-flight path, so a thundering herd computes each front
/// exactly once.
std::string DaemonServer::serve_analyze(
    const std::string& format, std::shared_ptr<const std::string> body) {
  std::optional<RequestBytes> memo_key;
  if (replies_.capacity() > 0 && body->size() <= kReplyMemoMaxBytes) {
    memo_key.emplace(format, body);
    std::string reply;
    if (replies_.lookup(*memo_key, reply)) {
      metrics_.requests.fetch_add(1);
      metrics_.cache_hits.fetch_add(1);
      return reply;
    }
  }

  ParsedRequest req;
  try {
    req = parse_request(format, *body);
  } catch (const std::exception& e) {
    metrics_.failed.fetch_add(1);
    return error_json(e.what(), /*retryable=*/false);
  }

  // Admission: reject past the in-flight cap instead of queueing a
  // request that would expire before a worker even picks it up.
  if (inflight_.fetch_add(1) >= config_.max_inflight) {
    inflight_.fetch_sub(1);
    metrics_.rejected.fetch_add(1);
    return error_json("over capacity (max-inflight reached)",
                      /*retryable=*/true);
  }
  struct InflightRelease {
    std::atomic<std::size_t>& n;
    ~InflightRelease() { n.fetch_sub(1); }
  } release{inflight_};

  metrics_.requests.fetch_add(1);
  // A request may only shorten the server's per-analysis budget, never
  // lift it: the server's guard is what bounds a hostile request.
  const double server = config_.deadline_seconds;
  const bool shorter =
      req.deadline > 0 && (server <= 0 || req.deadline < server);
  const Deadline deadline(shorter ? req.deadline : server);
  req.options.run.deadline = &deadline;
  if (config_.threads > 0) req.options.intra_model_threads = config_.threads;

  FrontCache::Served served;
  try {
    served = cache_.get_or_compute(
        front_cache_key(*req.aadt, req.options),
        [&] { return analyze(*req.aadt, req.options); });
  } catch (const std::exception& e) {
    metrics_.failed.fetch_add(1);
    return error_json(e.what(), /*retryable=*/false);
  }
  (served.cached ? metrics_.cache_hits : metrics_.computed).fetch_add(1);
  std::string reply =
      result_json(served.result, served.cached, req.aadt->adt().size());
  if (served.cached && memo_key && reply.size() <= kReplyMemoMaxBytes) {
    replies_.insert(*memo_key, reply);
  }
  return reply;
}

std::string DaemonServer::stats_json() {
  const FrontCache::Stats memory = cache_.stats();
  const LruStats replies = replies_.stats();
  const store::PersistentCacheStats persistence = cache_.persistence_stats();
  JsonWriter json;
  json.begin_object();
  json.key("ok").value(true);
  json.key("requests").value(metrics_.requests.load());
  json.key("computed").value(metrics_.computed.load());
  json.key("cache_hits").value(metrics_.cache_hits.load());
  json.key("rejected").value(metrics_.rejected.load());
  json.key("failed").value(metrics_.failed.load());
  const std::uint64_t served =
      metrics_.computed.load() + metrics_.cache_hits.load();
  json.key("hit_rate")
      .value(served == 0 ? 0.0
                         : static_cast<double>(metrics_.cache_hits.load()) /
                               static_cast<double>(served));
  json.key("connections").begin_object();
  json.key("accepted").value(metrics_.connections_accepted.load());
  json.key("rejected").value(metrics_.connections_rejected.load());
  json.key("disconnects").value(metrics_.disconnects.load());
  json.end_object();
  json.key("memory").begin_object();
  json.key("hits").value(memory.hits);
  json.key("misses").value(memory.misses);
  json.key("entries").value(static_cast<std::uint64_t>(memory.entries));
  json.key("coalesced").value(memory.coalesced);
  json.end_object();
  json.key("replies").begin_object();
  json.key("hits").value(replies.hits);
  json.key("misses").value(replies.misses);
  json.key("entries").value(static_cast<std::uint64_t>(replies.entries));
  json.end_object();
  json.key("persistent").value(cache_.persistent());
  json.key("follower").value(cache_.follower());
  json.key("refreshes").value(metrics_.refreshes.load());
  json.key("promotions").value(metrics_.promotions.load());
  json.key("store").begin_object();
  json.key("hits").value(persistence.store_hits);
  json.key("writes").value(persistence.store_writes);
  json.key("errors").value(persistence.store_errors);
  json.key("retries").value(persistence.retries);
  json.key("decode_failures").value(persistence.decode_failures);
  json.key("degraded").value(persistence.degraded);
  json.end_object();
  if (const auto recovery = cache_.recovery()) {
    json.key("recovery").begin_object();
    json.key("entries_recovered").value(recovery->entries_recovered);
    json.key("records_skipped").value(recovery->records_skipped);
    json.key("tail_bytes_truncated").value(recovery->tail_bytes_truncated);
    json.key("stale_generation").value(recovery->stale_generation);
    json.end_object();
  }
  json.end_object();
  return json.str();
}

}  // namespace adtp::serve
