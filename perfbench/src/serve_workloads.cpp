// The two serving workloads: serve_warm (the read path over a reopened
// store) and serve_cold (the paper's random models, every request a cache
// miss that runs a kernel and appends to the store). Both are closed
// loops of nproc connections against an in-process DaemonServer, read
// with the benchmark's own buffered reader. serve_warm has a timed run
// and a traced run; serve_cold only a traced run, for the write path's
// layers (its timed figures hang on fsync and are too noisy to gate).

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <latch>
#include <memory>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>
#include <unordered_map>

#include "adt/adtool_xml.hpp"
#include "adt/text_format.hpp"
#include "bdd/build.hpp"
#include "core/front_cache.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"
#include "harness.hpp"
#include "serve/daemon.hpp"
#include "serve/socket.hpp"
#include "store/codec.hpp"
#include "store/shard.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using adtp::serve::DaemonConfig;
using adtp::serve::DaemonServer;
using adtp::serve::Endpoint;

namespace {

/// The serve_warm corpus and its popularity order are fixed by this seed,
/// so every --seed serves the same models at the same ranks; --seed
/// draws the request stream.
constexpr std::uint64_t kWarmMixSeed = 0x6d6978'2024ULL;
constexpr std::size_t kWarmModels = 64;
constexpr double kZipfExponent = 1.1;
/// serve_cold: distinct models per stream, half trees and half DAGs.
constexpr std::size_t kColdStream = 3000;
/// Warm restarts measured for setup_s (and store recoveries for
/// store.recovery_s); the median is reported.
constexpr int kSetupRepeats = 31;
/// Requests per connection in a traced serve_warm pass.
constexpr std::size_t kTracedWarmPerClient = 1500;
/// Cold requests replayed layer by layer in a traced run.
constexpr std::size_t kColdReplay = 200;

/// A directory under the run's working directory, emptied on entry and
/// removed on exit.
struct ScratchDir {
  explicit ScratchDir(std::string p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string path;
};

Endpoint unix_endpoint(const std::string& path) {
  Endpoint ep;
  ep.path = path;
  return ep;
}

DaemonConfig daemon_config(const std::string& store_dir,
                           std::size_t memory_capacity,
                           std::size_t connections) {
  DaemonConfig config;  // the defaults, except what the workload names
  config.store_dir = store_dir;
  config.memory_capacity = memory_capacity;
  // nproc connections must never meet a retryable over-capacity reply.
  config.max_inflight = std::max(config.max_inflight, connections);
  config.max_connections = std::max(config.max_connections, connections);
  return config;
}

/// Constructs and starts a daemon and waits for its first PING reply;
/// returns the seconds that took (the daemon's set-up time).
double start_daemon(std::unique_ptr<DaemonServer>& server,
                    const Endpoint& ep, const DaemonConfig& config) {
  const Clock::time_point t0 = Clock::now();
  server = std::make_unique<DaemonServer>(ep, config);
  server->start();
  const int fd = adtp::serve::connect_with_retry(ep);
  std::string reply;
  std::int64_t first_byte = 0;
  LineReader reader(fd);
  const bool ok = send_all(fd, "PING\n") && reader.read_line(reply, first_byte);
  const Clock::time_point t1 = Clock::now();
  ::close(fd);
  if (!ok || reply.find("\"pong\":true") == std::string::npos) {
    throw adtp::Error("daemon did not answer PING: " + reply);
  }
  return seconds_between(t0, t1);
}

// ---- the load generator ----------------------------------------------------

struct RequestRecord {
  std::uint64_t id = 0;
  std::uint32_t item = 0;
  std::int64_t start_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t first_byte_ns = 0;
  std::int64_t read_ns = 0;
  std::int64_t end_ns = 0;  ///< after the reply was checked
};

struct ClientTally {
  LatencyWindows latency;  ///< send start -> reply line read; timed passes
  std::vector<RequestRecord> records;  ///< traced passes only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

/// One closed-loop connection: send, wait for the whole reply, check it,
/// repeat while next(item) hands out another request.
template <typename Next>
void client_loop(int fd, std::uint32_t client,
                 const std::vector<RequestItem>& items, Next&& next,
                 bool record, ClientTally& tally) {
  ReplyChecker checker(items);
  LineReader reader(fd);
  std::string reply;
  std::string why;
  std::size_t item = 0;
  std::uint64_t seq = 0;
  while (next(item)) {
    RequestRecord r;
    r.id = (static_cast<std::uint64_t>(client + 1) << 40) | seq++;
    r.item = static_cast<std::uint32_t>(item);
    ++tally.attempted;
    r.start_ns = now_ns();
    bool ok = send_all(fd, items[item].wire);
    r.sent_ns = now_ns();
    ok = ok && reader.read_line(reply, r.first_byte_ns);
    r.read_ns = now_ns();
    if (!ok) {
      ++tally.failed;
      tally.errors.push_back("connection lost");
      return;
    }
    if (!checker.check(item, reply, why)) {
      ++tally.failed;
      if (tally.errors.size() < 4) {
        tally.errors.push_back(items[item].name + ": " + why);
      }
      continue;
    }
    r.end_ns = now_ns();
    tally.latency.add(r.read_ns,
                      static_cast<double>(r.read_ns - r.start_ns) / 1e6);
    if (record) tally.records.push_back(r);
  }
}

struct PassResult {
  std::vector<ClientTally> clients;
  std::int64_t end_ns = 0;
  double wall_s = 0;
};

/// Runs \p connections clients at once; make_next(client, start) builds
/// each client's request source once every connection is open. With
/// \p window_ns set, each client samples its latencies into time windows
/// of that length from the start.
template <typename MakeNext>
PassResult run_pass(const Endpoint& ep, std::size_t connections,
                    const std::vector<RequestItem>& items, bool record,
                    std::int64_t window_ns, MakeNext&& make_next) {
  PassResult pass;
  pass.clients.resize(connections);
  std::vector<int> fds;
  for (std::size_t c = 0; c < connections; ++c) {
    fds.push_back(adtp::serve::connect_with_retry(ep));
  }
  std::latch go(1);
  Clock::time_point start;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      go.wait();
      client_loop(fds[c], static_cast<std::uint32_t>(c), items,
                  make_next(c, start), record, pass.clients[c]);
    });
  }
  start = Clock::now();
  const std::int64_t start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          start.time_since_epoch())
          .count();
  if (window_ns > 0) {
    for (std::size_t c = 0; c < connections; ++c) {
      pass.clients[c].latency = LatencyWindows(start_ns, window_ns, c + 1);
    }
  }
  go.count_down();
  for (std::thread& t : threads) t.join();
  pass.end_ns = now_ns();
  pass.wall_s = static_cast<double>(pass.end_ns - start_ns) / 1e9;
  for (const int fd : fds) ::close(fd);
  return pass;
}

void tally_pass(Outcome& out, const PassResult& pass) {
  for (const ClientTally& t : pass.clients) {
    out.attempted += t.attempted;
    out.failed += t.failed;
    for (const std::string& e : t.errors) out.fail(e);
  }
}

std::vector<RequestRecord> records_in_daemon_order(const PassResult& pass) {
  std::vector<RequestRecord> all;
  for (const ClientTally& t : pass.clients) {
    all.insert(all.end(), t.records.begin(), t.records.end());
  }
  std::sort(all.begin(), all.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

/// Client-side spans of a traced pass: one request span per reply with
/// its send, wait, read and check phases as children.
void record_client_spans(SpanRecorder& spans,
                         const std::vector<RequestRecord>& records) {
  for (const RequestRecord& r : records) {
    const std::int64_t root =
        spans.record("client.request", r.start_ns, r.end_ns, r.id);
    spans.record("client.send", r.start_ns, r.sent_ns, r.id, root);
    spans.record("client.wait", r.sent_ns, r.first_byte_ns, r.id, root);
    spans.record("client.read", r.first_byte_ns, r.read_ns, r.id, root);
    spans.record("client.check", r.read_ns, r.end_ns, r.id, root);
  }
}

// ---- in-process replay of the daemon's layers --------------------------------

/// A socket pair standing in for one client connection: the replay
/// writes a request into the client end and the layer functions read it
/// from the server end, exactly as the daemon's worker would.
struct WirePair {
  WirePair() {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw adtp::Error("socketpair failed");
    }
  }
  ~WirePair() {
    ::close(fds[0]);
    ::close(fds[1]);
  }
  WirePair(const WirePair&) = delete;
  WirePair& operator=(const WirePair&) = delete;
  int fds[2] = {-1, -1};
  [[nodiscard]] int client() const { return fds[0]; }
  [[nodiscard]] int server() const { return fds[1]; }
};

/// The daemon's reply, written with the library's JsonWriter.
std::string reply_json(const adtp::AnalysisResult& result, bool cached,
                       std::size_t nodes) {
  adtp::JsonWriter json;
  json.begin_object();
  json.key("ok").value(true);
  json.key("cached").value(cached);
  json.key("algorithm").value(adtp::to_string(result.used));
  json.key("nodes").value(static_cast<std::uint64_t>(nodes));
  json.key("seconds").value(result.seconds);
  json.key("front").begin_array();
  for (const adtp::ValuePoint& p : result.front.points()) {
    json.begin_array();
    json.value(p.def);
    json.value(p.att);
    json.end_array();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

/// Calls \p fn; when \p spans is set, as a span named \p name under
/// \p root. The untimed replay passes null to measure what tracing costs.
template <typename Fn>
auto layer_call(SpanRecorder* spans, std::string_view name, std::uint64_t id,
                std::int64_t root, Fn&& fn) {
  if (spans == nullptr) return fn();
  return spans->timed(std::string(name), id, root, std::forward<Fn>(fn));
}

/// The span name of the parser a request format goes through.
const std::string& parse_span(const std::string& format) {
  static const std::string text = "adt.parse_text";
  static const std::string xml = "adt.parse_xml";
  static const std::string json = "adt.parse_json";
  return format == "xml" ? xml : format == "json" ? json : text;
}

/// Reads one request off the wire pair with the daemon's socket layer.
struct WireRequest {
  std::string format;
  std::string body;
};

WireRequest replay_read(SpanRecorder* spans, std::uint64_t id,
                        std::int64_t root, const WirePair& wire,
                        const RequestItem& item) {
  if (!send_all(wire.client(), item.wire)) {
    throw adtp::Error("replay send failed");
  }
  const auto line = layer_call(spans, "serve.header_read", id, root, [&] {
    return adtp::serve::read_line_fd(wire.server());
  });
  WireRequest req;
  std::size_t nbytes = 0;
  {
    const std::string header = line.value_or("");
    const std::size_t a = header.find(' ');
    const std::size_t b = header.find(' ', a + 1);
    req.format = header.substr(a + 1, b - a - 1);
    nbytes = std::stoul(header.substr(b + 1));
  }
  req.body = layer_call(spans, "serve.body_read", id, root, [&] {
    return adtp::serve::read_exact_fd(wire.server(), nbytes);
  });
  return req;
}

void replay_write(SpanRecorder* spans, std::uint64_t id, std::int64_t root,
                  const WirePair& wire, LineReader& drain,
                  const std::string& reply) {
  layer_call(spans, "serve.reply_write", id, root, [&] {
    adtp::serve::write_all_fd(wire.server(), reply.data(), reply.size());
  });
  std::string echoed;
  std::int64_t first_byte = 0;
  if (!drain.read_line(echoed, first_byte)) {
    throw adtp::Error("replay reply lost");
  }
}

double median_self_us(const std::map<std::string, LayerSummary>& summary,
                      const std::string& name) {
  const auto it = summary.find(name);
  return it == summary.end() ? 0.0 : median(it->second.self_us);
}

// ---- serve_warm --------------------------------------------------------------

std::vector<RequestItem> warm_corpus() {
  using namespace adtp;
  std::vector<RequestItem> items;
  auto text = [&](std::string name, const AugmentedAdt& m) {
    items.emplace_back(std::move(name), "text", to_text_format(m));
  };
  auto xml = [&](std::string name, const AugmentedAdt& m) {
    items.emplace_back(std::move(name), "xml",
                       export_adtool_xml(m.adt(), m.attribution()));
  };
  auto json = [&](std::string name, const AugmentedAdt& m,
                  const char* algorithm) {
    JsonWriter envelope;
    envelope.begin_object();
    envelope.key("format").value("text");
    envelope.key("model").value(to_text_format(m));
    envelope.key("algorithm").value(algorithm);
    envelope.end_object();
    items.emplace_back(std::move(name), "json", envelope.str());
  };
  text("fig3", catalog::fig3_example());
  json("fig3_json", catalog::fig3_example(), "bottom_up");
  text("fig5", catalog::fig5_example());
  json("fig5_json", catalog::fig5_example(), "naive");
  text("money_dag", catalog::money_theft_dag());
  xml("money_dag_xml", catalog::money_theft_dag());
  text("money_tree", catalog::money_theft_tree());
  xml("money_tree_xml", catalog::money_theft_tree());
  for (int n = 4; n <= 12; ++n) {
    text("fig4_" + std::to_string(n), catalog::fig4_exponential(n));
  }
  Rng rng(kWarmMixSeed);
  for (std::size_t i = 0; items.size() < kWarmModels; ++i) {
    const bool dag = i % 2 == 1;
    RandomAdtOptions options;
    options.target_nodes = 20 + below(rng, 101);
    options.share_probability = dag ? 0.15 : 0.0;
    options.max_defenses = 10;
    const AugmentedAdt m = generate_random_aadt(
        options, rng(), Semiring::min_cost(), Semiring::min_cost());
    const std::string name =
        std::string(dag ? "dag_" : "tree_") + std::to_string(i);
    if (!dag && i % 4 == 0) {
      xml(name + "_xml", m);
    } else if (dag && i % 5 == 1) {
      json(name + "_json", m, "auto");
    } else {
      text(name, m);
    }
  }
  return items;
}

/// Everything serve_warm sets up before it measures.
struct WarmSetup {
  std::vector<RequestItem> items;
  std::vector<std::size_t> rank_to_item;  ///< the seeded popularity shuffle
  std::size_t distinct_keys = 0;
  std::size_t connections = 1;
  std::unique_ptr<ScratchDir> dir;
  Endpoint ep;
  DaemonConfig config;
  std::unique_ptr<DaemonServer> server;
  std::vector<double> restart_s;
};

WarmSetup prepare_warm(const RunOptions& options, Outcome& out,
                       int restarts) {
  WarmSetup w;
  w.items = warm_corpus();
  std::vector<std::string> errors;
  (void)compute_references(w.items, {}, options.nproc, errors);
  for (std::string& e : errors) out.fail(std::move(e));
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> keys;
  for (const RequestItem& item : w.items) {
    const ParsedItem parsed = parse_item(item.format, item.body);
    const adtp::FrontCacheKey k =
        adtp::front_cache_key(parsed.aadt, parsed.options);
    keys.emplace(k.structure, k.attribution, k.options);
  }
  w.distinct_keys = keys.size();

  w.rank_to_item.resize(w.items.size());
  std::iota(w.rank_to_item.begin(), w.rank_to_item.end(), 0);
  Rng shuffle(kWarmMixSeed + 1);
  for (std::size_t i = w.rank_to_item.size(); i > 1; --i) {
    std::swap(w.rank_to_item[i - 1], w.rank_to_item[below(shuffle, i)]);
  }

  w.connections = options.nproc;
  w.dir = std::make_unique<ScratchDir>("warm");
  w.ep = unix_endpoint(w.dir->path + "/d.sock");
  w.config = daemon_config(w.dir->path + "/store", kWarmModels / 2,
                           w.connections);

  // Untimed populate: every model once through the daemon, so the store
  // holds the whole corpus.
  {
    std::unique_ptr<DaemonServer> server;
    (void)start_daemon(server, w.ep, w.config);
    std::size_t next = 0;
    const PassResult pass = run_pass(
        w.ep, 1, w.items, false, 0, [&](std::size_t, Clock::time_point) {
          return [&](std::size_t& item) {
            if (next >= w.items.size()) return false;
            item = next++;
            return true;
          };
        });
    Outcome populate;
    tally_pass(populate, pass);
    for (std::string& e : populate.errors) out.fail("populate: " + e);
    server->stop();
  }

  // From here on the peak resident set is the serving program's: the
  // reference kernels and the populate pass above are left out of it.
  out.fact("peak_rss_reset", reset_peak_rss() ? 1 : 0);
  out.fact("rss_after_setup_mb", peak_rss_mb());

  // Warm restarts: construction, recovery, start() and the first PING.
  for (int r = 0; r < restarts; ++r) {
    if (w.server) w.server->stop();
    w.server.reset();
    w.restart_s.push_back(start_daemon(w.server, w.ep, w.config));
  }
  const auto recovery = w.server->cache().recovery();
  if (!w.server->cache().persistent() || !recovery ||
      recovery->entries_recovered != w.distinct_keys) {
    out.fail("warm restart recovered " +
             std::to_string(recovery ? recovery->entries_recovered : 0) +
             " entries, expected " + std::to_string(w.distinct_keys));
  }
  out.fact("models", static_cast<double>(w.items.size()));
  out.fact("distinct_keys", static_cast<double>(w.distinct_keys));
  out.fact("connections", static_cast<double>(w.connections));
  return w;
}

/// A client's Zipf request source: seeded by --seed and the client index.
struct ZipfSource {
  Rng rng;
  const Zipf* zipf;
  const std::vector<std::size_t>* rank_to_item;
  std::size_t item() { return (*rank_to_item)[(*zipf)(rng)]; }
};

ZipfSource zipf_source(const RunOptions& options, const WarmSetup& w,
                       const Zipf& zipf, std::size_t client) {
  return {Rng(options.seed * 0x9E3779B97F4A7C15ULL + client + 1), &zipf,
          &w.rank_to_item};
}

/// \p per_client requests on each connection, recorded for the replay.
PassResult warm_pass_counted(const RunOptions& options, const WarmSetup& w,
                             const Zipf& zipf, std::size_t per_client) {
  std::vector<ZipfSource> sources;
  std::vector<std::size_t> sent(w.connections, 0);
  for (std::size_t c = 0; c < w.connections; ++c) {
    sources.push_back(zipf_source(options, w, zipf, c));
  }
  return run_pass(w.ep, w.connections, w.items, true, 0,
                  [&](std::size_t c, Clock::time_point) {
                    return [&, c](std::size_t& item) {
                      if (sent[c]++ >= per_client) return false;
                      item = sources[c].item();
                      return true;
                    };
                  });
}

}  // namespace

Outcome run_serve_warm(const RunOptions& options) {
  Outcome out;
  WarmSetup w = prepare_warm(options, out, kSetupRepeats);
  const Zipf zipf(w.items.size(), kZipfExponent);

  std::vector<ZipfSource> sources;
  for (std::size_t c = 0; c < w.connections; ++c) {
    sources.push_back(zipf_source(options, w, zipf, c));
  }
  out.fact("rss_before_serving_mb", peak_rss_mb());
  std::atomic<std::size_t> done{0};
  const auto window_ns = static_cast<std::int64_t>(
      options.seconds * 1e9 / static_cast<double>(kMaxWindows));
  const PassResult pass = run_pass(
      w.ep, w.connections, w.items, false, window_ns,
      [&](std::size_t c, Clock::time_point start) {
        const Clock::time_point until =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(options.seconds));
        const Clock::time_point cap = start + 3 * (until - start);
        return [&, c, until, cap](std::size_t& item) {
          const Clock::time_point now = Clock::now();
          if (now >= cap) return false;
          if (now >= until &&
              done.load(std::memory_order_relaxed) >= kMinOps) {
            return false;
          }
          done.fetch_add(1, std::memory_order_relaxed);
          item = sources[c].item();
          return true;
        };
      });
  const double peak_mb = peak_rss_mb();
  tally_pass(out, pass);
  const adtp::FrontCache::Stats memory = w.server->cache().stats();
  const adtp::store::PersistentCacheStats disk =
      w.server->cache().persistence_stats();
  w.server->stop();

  std::vector<const LatencyWindows*> clients;
  for (const ClientTally& t : pass.clients) clients.push_back(&t.latency);
  add_window_metrics(out, LatencyWindows::merge(clients, pass.end_ns));
  out.add("setup_s", median(w.restart_s), "s");
  out.add("peak_rss_mb", peak_mb, "MiB");
  out.fact("memory_hits", static_cast<double>(memory.hits));
  out.fact("memory_misses", static_cast<double>(memory.misses));
  out.fact("store_hits", static_cast<double>(disk.store_hits));
  out.fact("wall_s", pass.wall_s);
  return out;
}

namespace {

/// Replays \p records through the warm read path's layer functions, in
/// the order the daemon received them. With \p spans set, each record is
/// a request span with one child span per call; with it null, the same
/// calls run untraced. Returns the replay's seconds.
double replay_warm(const WarmSetup& w, const std::vector<RequestRecord>& records,
                   adtp::store::FrontStore& store, SpanRecorder* spans,
                   Outcome& out) {
  adtp::FrontCache memory_tier(w.config.memory_capacity);
  WirePair wire;
  LineReader drain(wire.client());
  const Clock::time_point t0 = Clock::now();
  for (const RequestRecord& r : records) {
    const RequestItem& item = w.items[r.item];
    const std::int64_t root = spans != nullptr
                                  ? spans->begin("replay.request", r.id)
                                  : SpanRecorder::kRoot;
    const WireRequest req = replay_read(spans, r.id, root, wire, item);
    const ParsedItem parsed =
        layer_call(spans, parse_span(req.format), r.id, root,
                   [&] { return parse_item(req.format, req.body); });
    const adtp::FrontCacheKey key =
        layer_call(spans, "core.cache_key", r.id, root, [&] {
          return adtp::front_cache_key(parsed.aadt, parsed.options);
        });
    const std::int64_t lookup_start = spans != nullptr ? now_ns() : 0;
    std::optional<adtp::AnalysisResult> hit = memory_tier.lookup(key);
    if (spans != nullptr) {
      spans->record(hit ? "cache.lookup_hit" : "cache.lookup_miss",
                    lookup_start, now_ns(), r.id, root);
    }
    adtp::AnalysisResult result;
    if (hit) {
      result = std::move(*hit);
    } else {
      const auto bytes = layer_call(spans, "store.get", r.id, root,
                                    [&] { return store.get(key); });
      if (!bytes) {
        out.fail(item.name + ": replay store miss");
        if (spans != nullptr) spans->end(root);
        continue;
      }
      result = layer_call(spans, "store.decode", r.id, root, [&] {
        return adtp::store::decode_result(bytes->data(), bytes->size());
      });
      layer_call(spans, "cache.insert", r.id, root,
                 [&] { (void)memory_tier.insert(key, result); });
    }
    if (!result.front.bit_identical_values(item.reference)) {
      out.fail(item.name + ": replayed front differs from the reference");
    }
    const std::string reply =
        layer_call(spans, "util.json_encode", r.id, root, [&] {
          return reply_json(result, true, parsed.aadt.adt().size()) + "\n";
        });
    replay_write(spans, r.id, root, wire, drain, reply);
    if (spans != nullptr) spans->end(root);
  }
  return seconds_between(t0, Clock::now());
}

}  // namespace

Outcome trace_serve_warm(const RunOptions& options, SpanRecorder& spans) {
  Outcome out;
  WarmSetup w = prepare_warm(options, out, 1);
  const Zipf zipf(w.items.size(), kZipfExponent);

  // One pass of the seeded stream with client request records, from the
  // warm restart above; the replay below pushes each request through the
  // layer functions.
  const PassResult traced =
      warm_pass_counted(options, w, zipf, kTracedWarmPerClient);
  tally_pass(out, traced);
  const adtp::FrontCache::Stats memory = w.server->cache().stats();
  const adtp::store::PersistentCacheStats disk =
      w.server->cache().persistence_stats();
  w.server->stop();
  w.server.reset();

  const std::vector<RequestRecord> records = records_in_daemon_order(traced);
  record_client_spans(spans, records);

  // Store recovery, timed on the directory the daemon just released.
  std::vector<double> recovery_s;
  std::unique_ptr<adtp::store::FrontStore> store;
  for (int r = 0; r < kSetupRepeats; ++r) {
    store.reset();
    const Clock::time_point t0 = Clock::now();
    store = std::make_unique<adtp::store::FrontStore>(w.config.store_dir);
    recovery_s.push_back(seconds_between(t0, Clock::now()));
  }

  // The replay untraced, traced, untraced: the traced replay's time over
  // the mean of the two untraced ones around it is what recording the
  // spans costs.
  const double plain_a = replay_warm(w, records, *store, nullptr, out);
  const double traced_s = replay_warm(w, records, *store, &spans, out);
  const double plain_b = replay_warm(w, records, *store, nullptr, out);
  const double plain_s = (plain_a + plain_b) / 2;

  const std::vector<Span> all = spans.spans();
  const auto summary = summarize(all);
  // Hand-off: client latency minus the layer self time of the replay.
  const std::vector<std::int64_t> self = self_times_ns(all);
  std::unordered_map<std::uint64_t, double> layer_us;
  std::map<std::string, double> layer_total_us;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.parent < 0 ||
        all[static_cast<std::size_t>(s.parent)].name != "replay.request") {
      continue;
    }
    const double us = static_cast<double>(self[i]) / 1e3;
    layer_us[s.request] += us;
    std::string layer = s.name.substr(0, s.name.find('.'));
    if (layer == "cache") layer = "core";
    layer_total_us[layer] += us;
  }
  std::vector<double> handoff_us;
  std::vector<double> client_read_us;
  double latency_total_us = 0;
  for (const RequestRecord& r : records) {
    const double latency_us = static_cast<double>(r.read_ns - r.start_ns) / 1e3;
    latency_total_us += latency_us;
    handoff_us.push_back(latency_us - layer_us[r.id]);
    client_read_us.push_back(static_cast<double>(r.read_ns - r.first_byte_ns) /
                             1e3);
  }

  out.add("serve.header_read_us", median_self_us(summary, "serve.header_read"),
          "us");
  out.add("serve.body_read_us", median_self_us(summary, "serve.body_read"),
          "us");
  out.add("serve.reply_write_us", median_self_us(summary, "serve.reply_write"),
          "us");
  out.add("serve.handoff_us", median(handoff_us), "us");
  out.add("client.read_us", median(client_read_us), "us");
  out.add("adt.parse_text_us", median_self_us(summary, "adt.parse_text"), "us");
  out.add("adt.parse_xml_us", median_self_us(summary, "adt.parse_xml"), "us");
  out.add("adt.parse_json_us", median_self_us(summary, "adt.parse_json"), "us");
  out.add("core.cache_key_us", median_self_us(summary, "core.cache_key"), "us");
  out.add("cache.lookup_hit_us", median_self_us(summary, "cache.lookup_hit"),
          "us");
  const std::uint64_t lookups = memory.hits + memory.misses;
  out.add("cache.memory_hit_ratio",
          lookups == 0 ? 0.0
                       : static_cast<double>(memory.hits) /
                             static_cast<double>(lookups),
          "ratio");
  out.add("store.get_us", median_self_us(summary, "store.get"), "us");
  out.add("store.decode_us", median_self_us(summary, "store.decode"), "us");
  out.add("store.hit_ratio",
          memory.misses == 0 ? 0.0
                             : static_cast<double>(disk.store_hits) /
                                   static_cast<double>(memory.misses),
          "ratio");
  out.add("store.recovery_s", median(recovery_s), "s");
  out.add("util.json_encode_us", median_self_us(summary, "util.json_encode"),
          "us");
  const double handoff_total =
      std::accumulate(handoff_us.begin(), handoff_us.end(), 0.0);
  for (const char* layer : {"serve", "adt", "core", "store", "util"}) {
    out.add(std::string("share.") + layer + "_pct",
            100.0 * layer_total_us[layer] / latency_total_us, "%");
  }
  out.add("share.handoff_pct", 100.0 * handoff_total / latency_total_us, "%");
  out.add("trace.serve_overhead_pct", 100.0 * (traced_s - plain_s) / plain_s,
          "%");
  out.fact("warm_traced_requests", static_cast<double>(records.size()));
  out.fact("warm_replay_untraced_s", plain_s);
  out.fact("warm_replay_traced_s", traced_s);
  return out;
}

// ---- serve_cold --------------------------------------------------------------

namespace {

/// The paper's appendix generator: kColdStream distinct models, half
/// trees and half DAGs, 50-250 nodes, each kernel-checked; a seed whose
/// reference analysis exceeds the caps is replaced by the next one.
std::vector<RequestItem> cold_stream(const RunOptions& options,
                                     Outcome& out) {
  using namespace adtp;
  const ReferenceCaps caps{500, std::size_t{1} << 15};
  std::vector<RequestItem> kinds[2];
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> keys;
  std::size_t dropped = 0;
  for (int dag = 0; dag < 2; ++dag) {
    Rng rng(options.seed * 0x2545F4914F6CDD1DULL + 17 + dag);
    std::size_t serial = 0;
    while (kinds[dag].size() < kColdStream / 2) {
      std::vector<RequestItem> batch;
      for (std::size_t i = 0; i < kColdStream / 4; ++i, ++serial) {
        RandomAdtOptions gen;
        gen.target_nodes = 50 + below(rng, 201);
        gen.share_probability = dag ? 0.15 : 0.0;
        gen.max_defenses = 16;
        const AugmentedAdt m = generate_random_aadt(
            gen, rng(), Semiring::min_cost(), Semiring::min_cost());
        batch.emplace_back((dag ? "dag_" : "tree_") + std::to_string(serial),
                           "text", to_text_format(m));
      }
      std::vector<std::string> errors;
      const std::vector<int> status =
          compute_references(batch, caps, options.nproc, errors);
      for (std::string& e : errors) out.fail(std::move(e));
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (kinds[dag].size() >= kColdStream / 2) break;
        if (status[i] != 0) {
          dropped += status[i] == 1 ? 1 : 0;
          continue;
        }
        const ParsedItem parsed = parse_item(batch[i].format, batch[i].body);
        const FrontCacheKey k = front_cache_key(parsed.aadt, parsed.options);
        if (!keys.emplace(k.structure, k.attribution, k.options).second) {
          continue;  // a repeat would hit the cache
        }
        kinds[dag].push_back(std::move(batch[i]));
      }
    }
  }
  std::vector<RequestItem> stream;
  for (std::size_t i = 0; i < kColdStream / 2; ++i) {
    stream.push_back(std::move(kinds[0][i]));
    stream.push_back(std::move(kinds[1][i]));
  }
  std::vector<double> reference_ms;
  for (const RequestItem& item : stream) {
    reference_ms.push_back(item.reference_s * 1e3);
  }
  out.fact("stream_models", static_cast<double>(stream.size()));
  out.fact("stream_reference_p50_ms", percentile(reference_ms, 0.5));
  out.fact("stream_reference_p99_ms", percentile(reference_ms, 0.99));
  out.fact("stream_reference_max_ms", percentile(reference_ms, 1.0));
  out.fact("stream_reference_sum_ms",
           std::accumulate(reference_ms.begin(), reference_ms.end(), 0.0));
  out.fact("stream_dropped_over_cap", static_cast<double>(dropped));
  return stream;
}

/// One recorded pass of the stream through a daemon on an empty store.
struct ColdPass {
  PassResult pass;
  std::uint64_t computed = 0;
  std::uint64_t hits = 0;
  std::uint64_t store_writes = 0;
};

ColdPass cold_pass(const std::vector<RequestItem>& stream,
                   std::size_t connections) {
  ColdPass p;
  const ScratchDir dir("cold");
  const Endpoint ep = unix_endpoint(dir.path + "/d.sock");
  std::unique_ptr<DaemonServer> server;
  (void)start_daemon(server, ep,
                     daemon_config(dir.path + "/store", 256, connections));
  std::atomic<std::size_t> next{0};
  p.pass = run_pass(ep, connections, stream, true, 0,
                    [&](std::size_t, Clock::time_point) {
                      return [&](std::size_t& item) {
                        item = next.fetch_add(1);
                        return item < stream.size();
                      };
                    });
  p.computed = server->metrics().computed.load();
  p.hits = server->metrics().cache_hits.load();
  p.store_writes = server->cache().persistence_stats().store_writes;
  server->stop();
  return p;
}

void check_cold_pass(Outcome& out, const ColdPass& p, std::size_t n) {
  if (p.computed != n || p.hits != 0 || p.store_writes != n) {
    out.fail("cold pass: computed " + std::to_string(p.computed) + ", hits " +
             std::to_string(p.hits) + ", store writes " +
             std::to_string(p.store_writes) + " for " + std::to_string(n) +
             " distinct models");
  }
}

}  // namespace

Outcome trace_serve_cold(const RunOptions& options, SpanRecorder& spans) {
  Outcome out;
  const std::vector<RequestItem> stream = cold_stream(options, out);
  const ColdPass p = cold_pass(stream, options.nproc);
  check_cold_pass(out, p, stream.size());
  tally_pass(out, p.pass);
  std::vector<RequestRecord> records = records_in_daemon_order(p.pass);
  record_client_spans(spans, records);
  if (records.size() > kColdReplay) records.resize(kColdReplay);

  // Replay the first requests through the write path's layer functions.
  const ScratchDir dir("cold_replay");
  adtp::store::FrontStore store(dir.path + "/store");
  adtp::FrontCache memory_tier(256);
  WirePair wire;
  LineReader drain(wire.client());
  std::uint64_t writes = 0;
  std::uint64_t front_points = 0;
  std::uint64_t bdd_nodes = 0;
  std::vector<double> propagate_ms;
  std::vector<double> build_ms;
  for (const RequestRecord& r : records) {
    const RequestItem& item = stream[r.item];
    const std::int64_t root = spans.begin("replay.request", r.id);
    const WireRequest req = replay_read(&spans, r.id, root, wire, item);
    const ParsedItem parsed =
        spans.timed(parse_span(req.format), r.id, root,
                    [&] { return parse_item(req.format, req.body); });
    const adtp::FrontCacheKey key =
        spans.timed("core.cache_key", r.id, root, [&] {
          return adtp::front_cache_key(parsed.aadt, parsed.options);
        });
    const bool missed = spans.timed("cache.lookup_miss", r.id, root, [&] {
      return !memory_tier.lookup(key).has_value();
    });
    if (!missed) out.fail(item.name + ": replay hit on a distinct model");
    const std::int64_t analyze_start = now_ns();
    const adtp::AnalysisResult result =
        adtp::analyze(parsed.aadt, parsed.options);
    const std::int64_t analyze_ns = now_ns() - analyze_start;
    spans.record(item.dag ? "core.analyze_dag" : "core.analyze_tree",
                 analyze_start, analyze_start + analyze_ns, r.id, root);
    if (!result.front.bit_identical_values(item.reference)) {
      out.fail(item.name + ": replayed front differs from the reference");
    }
    front_points += result.front.size();
    const std::vector<std::uint8_t> bytes = spans.timed(
        "store.encode", r.id, root,
        [&] { return adtp::store::encode_result(result); });
    writes += spans.timed("store.put", r.id, root,
                          [&] { return store.put(key, bytes); })
                  ? 1
                  : 0;
    spans.timed("cache.insert", r.id, root,
                [&] { (void)memory_tier.insert(key, result); });
    const std::string reply =
        spans.timed("util.json_encode", r.id, root, [&] {
          return reply_json(result, false, parsed.aadt.adt().size()) + "\n";
        });
    replay_write(&spans, r.id, root, wire, drain, reply);
    spans.end(root);

    if (item.dag) {
      // The BDD build on its own, outside the request: BDDBU's share of
      // analyze() that is not front propagation.
      const adtp::Adt& adt = parsed.aadt.adt();
      const adtp::bdd::VarOrder order =
          adtp::bdd::VarOrder::defense_first(adt);
      adtp::bdd::Manager manager(order.num_vars());
      const std::int64_t build_start = now_ns();
      (void)adtp::bdd::build_structure_function(manager, adt, order);
      const std::int64_t build_ns = now_ns() - build_start;
      spans.record("bdd.build", build_start, build_start + build_ns, r.id);
      bdd_nodes += manager.num_nodes();
      build_ms.push_back(static_cast<double>(build_ns) / 1e6);
      propagate_ms.push_back(static_cast<double>(analyze_ns - build_ns) / 1e6);
    }
  }

  const auto summary = summarize(spans.spans());
  auto median_ms = [&](const std::string& name) {
    return median_self_us(summary, name) / 1e3;
  };
  out.add("store.put_us", median_self_us(summary, "store.put"), "us");
  out.add("store.encode_us", median_self_us(summary, "store.encode"), "us");
  out.add("store.writes", static_cast<double>(writes), "count");
  out.add("core.analyze_tree_ms", median_ms("core.analyze_tree"), "ms");
  out.add("core.analyze_dag_ms", median_ms("core.analyze_dag"), "ms");
  out.add("bdd.build_ms", median(build_ms), "ms");
  out.add("core.propagate_ms", median(propagate_ms), "ms");
  out.add("core.front_points", static_cast<double>(front_points), "count");
  out.add("bdd.nodes", static_cast<double>(bdd_nodes), "count");
  out.fact("cold_replayed_requests", static_cast<double>(records.size()));
  return out;
}

}  // namespace perfbench
