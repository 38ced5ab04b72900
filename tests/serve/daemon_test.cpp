/// The serving daemon as a library (src/serve/daemon.hpp): wire
/// protocol round-trips, the two satellite fixes of PR 10 - a client
/// disconnect storm must not crash or wedge the daemon (SIGPIPE /
/// EPIPE handling), and a connection flood must be bounded by the
/// worker pool, not answered with unbounded thread spawning - plus the
/// writer/follower/promote flow over one shared store directory and the
/// reply memo (byte-identical repeats, keys on exact bytes, what is
/// never stored, concurrent clients), all in-process over real unix
/// sockets.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adt/adtool_xml.hpp"
#include "adt/text_format.hpp"
#include "core/analyzer.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"
#include "serve/daemon.hpp"
#include "serve/socket.hpp"
#include "util/json.hpp"

namespace adtp::serve {
namespace {

/// A scratch directory for socket + store, removed on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static std::uint64_t counter = 0;
    path_ = std::filesystem::temp_directory_path() /
            ("adtp_serve_" + tag + "_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter++));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  [[nodiscard]] Endpoint socket(const std::string& name) const {
    Endpoint ep;
    ep.path = (path_ / (name + ".sock")).string();
    return ep;
  }
  [[nodiscard]] std::string store() const {
    return (path_ / "store").string();
  }

 private:
  std::filesystem::path path_;
};

std::string analyze_header(const std::string& format,
                           const std::string& body) {
  return "ANALYZE " + format + " " + std::to_string(body.size()) + "\n";
}

JsonValue analyze(int fd, const std::string& format,
                  const std::string& body) {
  return parse_json(request_line(fd, analyze_header(format, body) + body));
}

/// Connects and PINGs like a well-behaved client: over-capacity replies
/// are retryable by contract, so back off and try again until admitted.
int connect_admitted(const Endpoint& endpoint) {
  for (int attempt = 0; attempt < 250; ++attempt) {
    const int fd = connect_with_retry(endpoint);
    try {
      if (parse_json(request_line(fd, "PING\n")).at("ok").as_bool()) return fd;
    } catch (const SocketError&) {
      // Rejected connections may be closed before the reply is read.
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return -1;
}

TEST(Daemon, ServesTheProtocolRoundTrip) {
  const ScratchDir dir("roundtrip");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 4;
  DaemonServer server(dir.socket("d"), config);
  server.start();

  const int fd = connect_with_retry(server.endpoint());
  EXPECT_EQ(request_line(fd, "PING\n"), R"({"ok":true,"pong":true})");

  const std::string model = to_text_format(catalog::fig3_example());
  const JsonValue cold = analyze(fd, "text", model);
  ASSERT_TRUE(cold.at("ok").as_bool());
  EXPECT_FALSE(cold.at("cached").as_bool());
  const JsonValue warm = analyze(fd, "text", model);
  ASSERT_TRUE(warm.at("ok").as_bool());
  EXPECT_TRUE(warm.at("cached").as_bool());

  const JsonValue stats = parse_json(request_line(fd, "STATS\n"));
  EXPECT_EQ(stats.at("requests").as_number(), 2);
  EXPECT_EQ(stats.at("computed").as_number(), 1);
  EXPECT_EQ(stats.at("cache_hits").as_number(), 1);
  EXPECT_TRUE(stats.at("persistent").as_bool());

  const JsonValue bad = parse_json(request_line(fd, "FROBNICATE\n"));
  EXPECT_FALSE(bad.at("ok").as_bool());
  ::close(fd);
  server.stop();
}

TEST(Daemon, SurvivesAClientDisconnectStorm) {
  // Satellite fix 1: clients that hang up mid-exchange - after sending
  // a request but before reading its reply - make the daemon write
  // into a closed socket. Unhandled, that is a fatal SIGPIPE; handled,
  // it is a counted disconnect and the daemon keeps serving.
  const ScratchDir dir("storm");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 4;
  DaemonServer server(dir.socket("d"), config);
  server.start();

  // A slow-ish compute so the daemon's reply write reliably lands
  // after the client is gone.
  const std::string model = to_text_format(catalog::fig4_exponential(10));
  const std::string request = analyze_header("text", model) + model;
  for (int round = 0; round < 8; ++round) {
    const int fd = connect_with_retry(server.endpoint());
    try {
      write_all_fd(fd, request.data(), request.size());
    } catch (const SocketError& e) {
      // At capacity the daemon rejects a connection and closes it, which
      // can beat the request write (EPIPE/ECONNRESET): one more hangup.
      if (!e.disconnect()) throw;
    }
    ::close(fd);  // vanish without reading the reply
  }

  // The daemon is alive and still serves full round-trips. (The
  // abandoned connections pin workers until their computes finish, so
  // admission may take a few retryable rejections first.)
  const int fd = connect_admitted(server.endpoint());
  ASSERT_GE(fd, 0) << "the daemon never readmitted after the storm";
  const JsonValue reply = analyze(
      fd, "text", to_text_format(catalog::fig3_example()));
  EXPECT_TRUE(reply.at("ok").as_bool());
  ::close(fd);

  // Every hangup whose reply write failed is booked as a disconnect,
  // never as a server failure. (Replies that won the race and were
  // written before the close are legal, so >= 1, not == 8.)
  EXPECT_GE(server.metrics().disconnects.load(), 1u);
  EXPECT_EQ(server.metrics().failed.load(), 0u);
  server.stop();
}

TEST(Daemon, HostileXmlNestingGetsAReply) {
  // 100k nested <node>s - about 3 MB, far under the 16 MiB ANALYZE cap.
  // Every byte reaching the daemon is untrusted; a deep document must be
  // a model like any other (parsed, analyzed, answered), not a stack
  // overflow that takes the process down.
  constexpr int kDepth = 100000;
  std::string body = "<adtree>";
  for (int i = 0; i < kDepth; ++i) {
    body += "<node><label>n" + std::to_string(i) + "</label>";
  }
  body += "<parameter domainId=\"c\">3</parameter>";
  for (int i = 0; i < kDepth; ++i) body += "</node>";
  body += "</adtree>";

  const ScratchDir dir("deep");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 2;
  DaemonServer server(dir.socket("d"), config);
  server.start();
  const int fd = connect_with_retry(server.endpoint());
  const JsonValue reply = analyze(fd, "xml", body);
  ASSERT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("nodes").as_number(), kDepth);
  EXPECT_EQ(reply.at("front").size(), 1u);
  // A truncated copy is a typed error reply on the same connection.
  const std::string cut = body.substr(0, body.size() / 2);
  const JsonValue rejected = analyze(fd, "xml", cut);
  EXPECT_FALSE(rejected.at("ok").as_bool());
  EXPECT_EQ(request_line(fd, "PING\n"), R"({"ok":true,"pong":true})");
  ::close(fd);
  server.stop();
}

TEST(Daemon, BoundsConcurrentConnectionsAtAcceptTime) {
  // Satellite fix 2: the worker pool is the connection cap. With 2
  // workers pinned by held-open connections, a third connection gets a
  // retryable over-capacity reply instead of a third thread.
  const ScratchDir dir("flood");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 2;
  DaemonServer server(dir.socket("d"), config);
  server.start();

  const int a = connect_with_retry(server.endpoint());
  const int b = connect_with_retry(server.endpoint());
  // Round-trips prove both workers are now owned by these connections.
  EXPECT_EQ(request_line(a, "PING\n"), R"({"ok":true,"pong":true})");
  EXPECT_EQ(request_line(b, "PING\n"), R"({"ok":true,"pong":true})");

  const int c = connect_to(server.endpoint());
  const auto rejection = read_line_fd(c);
  ASSERT_TRUE(rejection.has_value()) << "over-capacity reply expected";
  const JsonValue reply = parse_json(*rejection);
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_TRUE(reply.at("retryable").as_bool());
  ::close(c);
  EXPECT_GE(server.metrics().connections_rejected.load(), 1u);

  // Freeing a slot readmits: close one, the retry connects and serves.
  ::close(a);
  const int retry = connect_admitted(server.endpoint());
  ASSERT_GE(retry, 0) << "a freed slot was never reused";
  ::close(retry);
  ::close(b);
  server.stop();
}

TEST(Daemon, StopJoinsEveryThreadWithConnectionsHeldOpen) {
  // Structural no-leak guarantee: stop() must return even while idle
  // clients hold connections open (workers blocked in read).
  const ScratchDir dir("stop");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 3;
  auto server = std::make_unique<DaemonServer>(dir.socket("d"), config);
  server->start();
  const int a = connect_with_retry(server->endpoint());
  const int b = connect_with_retry(server->endpoint());
  EXPECT_EQ(request_line(a, "PING\n"), R"({"ok":true,"pong":true})");
  server->stop();   // joins the acceptor and all workers or hangs here
  server.reset();
  ::close(a);
  ::close(b);
}

TEST(Daemon, WriterAndFollowerShareOneStoreAndPromotionHandsOver) {
  // The tentpole, end to end over sockets: a writer daemon computes
  // and persists; a follower daemon on the same directory serves the
  // same fronts warm after REFRESH; when the writer dies, PROMOTE
  // turns the follower into the writer and its inserts persist.
  const ScratchDir dir("fleet");
  const std::string model = to_text_format(catalog::fig3_example());

  DaemonConfig writer_config;
  writer_config.store_dir = dir.store();
  writer_config.max_connections = 2;
  auto writer = std::make_unique<DaemonServer>(dir.socket("w"),
                                               writer_config);
  writer->start();
  {
    const int fd = connect_with_retry(writer->endpoint());
    const JsonValue cold = analyze(fd, "text", model);
    ASSERT_TRUE(cold.at("ok").as_bool());
    EXPECT_FALSE(cold.at("cached").as_bool());
    ::close(fd);
  }

  DaemonConfig follower_config;
  follower_config.store_dir = dir.store();
  follower_config.store_follower = true;
  follower_config.max_connections = 2;
  auto follower = std::make_unique<DaemonServer>(dir.socket("f"),
                                                 follower_config);
  follower->start();
  ASSERT_TRUE(follower->cache().follower());

  const int fd = connect_with_retry(follower->endpoint());
  const JsonValue refreshed = parse_json(request_line(fd, "REFRESH\n"));
  ASSERT_TRUE(refreshed.at("ok").as_bool());
  const JsonValue warm = analyze(fd, "text", model);
  ASSERT_TRUE(warm.at("ok").as_bool());
  EXPECT_TRUE(warm.at("cached").as_bool())
      << "the writer's front must be served warm from the shared store";

  // Premature promotion is refused retryably while the writer lives.
  const JsonValue premature = parse_json(request_line(fd, "PROMOTE\n"));
  EXPECT_FALSE(premature.at("ok").as_bool());
  EXPECT_TRUE(premature.at("retryable").as_bool());

  writer.reset();  // the writer "dies"; its lease evaporates
  const JsonValue promoted = parse_json(request_line(fd, "PROMOTE\n"));
  ASSERT_TRUE(promoted.at("ok").as_bool());
  EXPECT_FALSE(follower->cache().follower());

  // A model the fleet has never seen: computed here, persisted here.
  const std::string fresh = to_text_format(catalog::fig5_example());
  const JsonValue computed = analyze(fd, "text", fresh);
  ASSERT_TRUE(computed.at("ok").as_bool());
  EXPECT_FALSE(computed.at("cached").as_bool());
  EXPECT_EQ(follower->cache().persistence_stats().store_writes, 1u)
      << "post-promotion fronts must reach the shared store";
  ::close(fd);
  follower.reset();  // releases the lease the promotion acquired

  // And the lineage survives: a fresh writer recovers both fronts.
  DaemonConfig successor_config;
  successor_config.store_dir = dir.store();
  successor_config.max_connections = 2;
  DaemonServer successor(dir.socket("s"), successor_config);
  ASSERT_TRUE(successor.cache().recovery().has_value());
  EXPECT_EQ(successor.cache().recovery()->entries_recovered, 2u);
}

TEST(Daemon, FollowerRefresherThreadTrailsTheWriter) {
  const ScratchDir dir("trail");
  const std::string model = to_text_format(catalog::fig3_example());

  DaemonConfig writer_config;
  writer_config.store_dir = dir.store();
  writer_config.max_connections = 2;
  DaemonServer writer(dir.socket("w"), writer_config);
  writer.start();

  DaemonConfig follower_config;
  follower_config.store_dir = dir.store();
  follower_config.store_follower = true;
  follower_config.store_refresh_seconds = 0.02;
  follower_config.max_connections = 2;
  DaemonServer follower(dir.socket("f"), follower_config);
  follower.start();

  {
    const int fd = connect_with_retry(writer.endpoint());
    ASSERT_TRUE(analyze(fd, "text", model).at("ok").as_bool());
    ::close(fd);
  }

  // No client ever sends REFRESH: the refresher thread must pick the
  // front up by itself.
  const int fd = connect_with_retry(follower.endpoint());
  bool warm = false;
  for (int attempt = 0; attempt < 250 && !warm; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const JsonValue reply = analyze(fd, "text", model);
    ASSERT_TRUE(reply.at("ok").as_bool());
    warm = reply.at("cached").as_bool();
  }
  EXPECT_TRUE(warm) << "the refresher never surfaced the writer's front";
  EXPECT_GE(follower.metrics().refreshes.load(), 1u);
  ::close(fd);
}

/// A JSON-envelope ANALYZE body: a text model plus per-request fields.
std::string envelope(const std::string& model, const std::string& algorithm,
                     double deadline) {
  JsonWriter json;
  json.begin_object();
  json.key("format").value("text");
  json.key("model").value(model);
  json.key("algorithm").value(algorithm);
  json.key("deadline").value(deadline);
  json.end_object();
  return json.str();
}

TEST(Daemon, RequestDeadlineCannotExtendTheServers) {
  // Naive on fig4(12) runs for about 2 s in Release - far past both
  // budgets below - so whichever deadline applies is the one that fires.
  const std::string model = to_text_format(catalog::fig4_exponential(12));
  const auto serve_once = [&](const char* tag, double server_deadline,
                              double request_deadline, double* seconds) {
    const ScratchDir dir(tag);
    DaemonConfig config;
    config.store_dir = dir.store();
    config.max_connections = 2;
    config.deadline_seconds = server_deadline;
    DaemonServer server(dir.socket("d"), config);
    server.start();
    const int fd = connect_with_retry(server.endpoint());
    const auto start = std::chrono::steady_clock::now();
    const JsonValue reply =
        analyze(fd, "json", envelope(model, "naive", request_deadline));
    *seconds = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    ::close(fd);
    server.stop();
    return reply;
  };

  // A request asking for more time than the server allows gets the
  // server's budget, not its own.
  double seconds = 0;
  const JsonValue capped = serve_once("capped", 0.05, 1e9, &seconds);
  ASSERT_FALSE(capped.at("ok").as_bool());
  EXPECT_NE(capped.at("error").as_string().find("deadline expired"),
            std::string::npos)
      << capped.at("error").as_string();

  // A request asking for less time than the server allows gets its own.
  const JsonValue shortened = serve_once("shortened", 10.0, 0.01, &seconds);
  ASSERT_FALSE(shortened.at("ok").as_bool());
  EXPECT_NE(shortened.at("error").as_string().find("deadline expired"),
            std::string::npos)
      << shortened.at("error").as_string();
  EXPECT_LT(seconds, 5.0) << "the request's shorter deadline was ignored";
}

TEST(Daemon, ConcurrentColdRequestsWithIntraModelThreads) {
  // Every analysis builds its own 4-slot scheduler: four cold requests
  // at once - two trees and two DAGs over the 64-node floors, so the
  // bottom-up and BDDBU task DAGs engage - run four schedulers side by
  // side, and each front must equal a sequential analysis.
  const ScratchDir dir("intra");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 4;
  config.max_inflight = 4;
  config.threads = 4;
  DaemonServer server(dir.socket("d"), config);
  server.start();

  // Seeds whose fronts have 13 and 5 (trees), 6 and 3 (DAGs) points.
  struct Draw {
    std::uint64_t seed;
    bool tree;
  };
  std::vector<std::string> models;
  std::vector<Algorithm> kernels;
  for (const Draw draw : {Draw{28, true}, Draw{18, true}, Draw{24, false},
                          Draw{9, false}}) {
    RandomAdtOptions gen;
    gen.target_nodes = 72;
    gen.max_defenses = 8;
    gen.share_probability = draw.tree ? 0.0 : 0.3;
    const AugmentedAdt aadt = generate_random_aadt(
        gen, draw.seed, Semiring::min_cost(), Semiring::min_cost());
    ASSERT_GE(aadt.adt().size(), 64u) << "seed " << draw.seed;
    ASSERT_EQ(aadt.adt().is_tree(), draw.tree) << "seed " << draw.seed;
    // The model clears its kernel's floors: the same analysis run
    // directly with the daemon's width fills all four slots.
    AnalysisOptions wide;
    wide.intra_model_threads = config.threads;
    const AnalysisResult direct = adtp::analyze(aadt, wide);
    EXPECT_EQ(direct.threads_used, config.threads) << "seed " << draw.seed;
    EXPECT_GT(direct.sched.tasks, 0u) << "seed " << draw.seed;
    kernels.push_back(direct.used);
    models.push_back(to_text_format(aadt));
  }

  std::vector<JsonValue> replies(models.size());
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < models.size(); ++i) {
    clients.emplace_back([&, i] {
      const int fd = connect_with_retry(server.endpoint());
      ready.fetch_add(1);
      while (ready.load() < models.size()) std::this_thread::yield();
      replies[i] = analyze(fd, "text", models[i]);
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t i = 0; i < models.size(); ++i) {
    ASSERT_TRUE(replies[i].at("ok").as_bool())
        << replies[i].at("error").as_string();
    EXPECT_FALSE(replies[i].at("cached").as_bool());
    EXPECT_EQ(replies[i].at("algorithm").as_string(), to_string(kernels[i]));
    const Front expected =
        adtp::analyze(parse_adt_text(models[i]).augmented()).front;
    const auto& front = replies[i].at("front").items();
    ASSERT_EQ(front.size(), expected.size()) << "model " << i;
    for (std::size_t p = 0; p < front.size(); ++p) {
      EXPECT_EQ(front[p].items()[0].as_metric(), expected.points()[p].def);
      EXPECT_EQ(front[p].items()[1].as_metric(), expected.points()[p].att);
    }
  }

  // The STATS body, read in process: a fifth connection could race the
  // workers still winding down the four closed ones.
  const JsonValue stats = parse_json(server.stats_json());
  EXPECT_EQ(stats.at("computed").as_number(), 4);
  EXPECT_EQ(stats.at("failed").as_number(), 0);
  server.stop();
}

/// One STATS counter, read in process: "requests" or "replies.hits".
double stat(DaemonServer& server, const std::string& group,
            const std::string& field = "") {
  const JsonValue stats = parse_json(server.stats_json());
  return field.empty() ? stats.at(group).as_number()
                       : stats.at(group).at(field).as_number();
}

/// A reply's front, the tail of the line from "front":.
std::string front_of(const std::string& reply) {
  return reply.substr(reply.rfind("\"front\":"));
}

TEST(Daemon, ReplyMemoAnswersARepeatByteForByte) {
  const ScratchDir dir("memo");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 2;
  DaemonServer server(dir.socket("d"), config);
  server.start();
  const int fd = connect_with_retry(server.endpoint());
  const std::string model = to_text_format(catalog::fig3_example());
  const std::string request = analyze_header("text", model) + model;

  // Computed, then answered from the FrontCache: only that cached reply
  // enters the memo.
  const std::string cold = request_line(fd, request);
  EXPECT_FALSE(parse_json(cold).at("cached").as_bool());
  const std::string warm = request_line(fd, request);
  EXPECT_TRUE(parse_json(warm).at("cached").as_bool());
  EXPECT_EQ(stat(server, "replies", "entries"), 1);
  EXPECT_EQ(stat(server, "replies", "hits"), 0);

  const std::string memo = request_line(fd, request);
  EXPECT_EQ(memo, warm);
  EXPECT_EQ(stat(server, "replies", "hits"), 1);
  EXPECT_EQ(stat(server, "replies", "misses"), 2);
  EXPECT_EQ(stat(server, "replies", "entries"), 1);
  EXPECT_EQ(stat(server, "requests"), 3);
  EXPECT_EQ(stat(server, "computed"), 1);
  EXPECT_EQ(stat(server, "cache_hits"), 2);
  // The memo hit never reached the FrontCache.
  EXPECT_EQ(stat(server, "memory", "hits"), 1);
  EXPECT_EQ(stat(server, "memory", "misses"), 1);
  ::close(fd);
  server.stop();
}

TEST(Daemon, ReplyMemoKeysOnTheExactBytes) {
  const ScratchDir dir("memo_keys");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 2;
  DaemonServer server(dir.socket("d"), config);
  server.start();
  const int fd = connect_with_retry(server.endpoint());

  const AugmentedAdt fig3 = catalog::fig3_example();
  const std::string text = to_text_format(fig3);
  std::string changed = text;
  const std::string leaf = "a3 = attack 20";
  const std::size_t at = changed.find(leaf);
  ASSERT_NE(at, std::string::npos) << text;
  changed.replace(at, leaf.size(), "a3 = attack 7");
  const std::vector<std::pair<std::string, std::string>> bodies = {
      {"text", text},
      {"text", text + " "},  // the same model, one more byte
      {"xml", export_adtool_xml(fig3.adt(), fig3.attribution())},
      {"text", changed},  // one leaf value changed
  };

  // Each body until the FrontCache answers it as cached (the one-space
  // body's model is the text body's, so its first reply already is).
  std::vector<std::string> cached;
  for (const auto& [format, body] : bodies) {
    const std::string request = analyze_header(format, body) + body;
    std::string reply = request_line(fd, request);
    if (!parse_json(reply).at("cached").as_bool()) {
      reply = request_line(fd, request);
    }
    ASSERT_TRUE(parse_json(reply).at("cached").as_bool()) << reply;
    cached.push_back(reply);
  }
  EXPECT_EQ(stat(server, "replies", "entries"), bodies.size());
  EXPECT_EQ(stat(server, "replies", "hits"), 0);
  EXPECT_EQ(cached[1], cached[0]) << "one FrontCache entry, one reply line";
  EXPECT_EQ(front_of(cached[2]), front_of(cached[0]));
  EXPECT_NE(front_of(cached[3]), front_of(cached[0]));

  // Every body again: each is a memo hit on its own entry.
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    const auto& [format, body] = bodies[i];
    EXPECT_EQ(request_line(fd, analyze_header(format, body) + body),
              cached[i])
        << "body " << i;
  }
  EXPECT_EQ(stat(server, "replies", "hits"), bodies.size());
  EXPECT_EQ(stat(server, "replies", "entries"), bodies.size());
  ::close(fd);
  server.stop();
}

TEST(Daemon, ReplyMemoStoresOnlyCachedRepliesToSmallBodies) {
  const ScratchDir dir("memo_fill");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 2;
  DaemonServer server(dir.socket("d"), config);
  server.start();
  const int fd = connect_with_retry(server.endpoint());

  // A parse error is answered, counted and forgotten, every time.
  const std::string broken = "this is not a model\n";
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(analyze(fd, "text", broken).at("ok").as_bool());
  }
  EXPECT_EQ(stat(server, "failed"), 2);
  EXPECT_EQ(stat(server, "replies", "entries"), 0);

  // A cold reply is not stored.
  const std::string model = to_text_format(catalog::fig3_example());
  EXPECT_FALSE(analyze(fd, "text", model).at("cached").as_bool());
  EXPECT_EQ(stat(server, "replies", "entries"), 0);
  EXPECT_EQ(stat(server, "replies", "misses"), 3);

  // The same model behind a comment that takes the body over the cap:
  // served as cached by the FrontCache every time, never looked up in
  // or stored to the memo.
  const std::string big =
      model + "# " + std::string(DaemonServer::kReplyMemoMaxBytes, 'x') + "\n";
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(analyze(fd, "text", big).at("cached").as_bool());
  }
  EXPECT_EQ(stat(server, "memory", "hits"), 3);
  EXPECT_EQ(stat(server, "replies", "misses"), 3);
  EXPECT_EQ(stat(server, "replies", "entries"), 0);

  // The small body's cached reply is stored.
  EXPECT_TRUE(analyze(fd, "text", model).at("cached").as_bool());
  EXPECT_EQ(stat(server, "replies", "entries"), 1);
  ::close(fd);
  server.stop();
}

TEST(Daemon, ZeroMemoryCapacityDisablesTheReplyMemo) {
  const ScratchDir dir("memo_off");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 2;
  config.memory_capacity = 0;
  DaemonServer server(dir.socket("d"), config);
  server.start();
  const int fd = connect_with_retry(server.endpoint());
  const std::string model = to_text_format(catalog::fig3_example());
  EXPECT_FALSE(analyze(fd, "text", model).at("cached").as_bool());
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(analyze(fd, "text", model).at("cached").as_bool());
  }
  EXPECT_EQ(stat(server, "replies", "hits"), 0);
  EXPECT_EQ(stat(server, "replies", "misses"), 0);
  EXPECT_EQ(stat(server, "replies", "entries"), 0);
  EXPECT_EQ(stat(server, "store", "hits"), 2);
  EXPECT_EQ(stat(server, "cache_hits"), 2);
  ::close(fd);
  server.stop();
}

TEST(Daemon, ConcurrentConnectionsGetIdenticalMemoReplies) {
  // Four connections repeat the same four bodies at once, so memo
  // lookups, first inserts and FrontCache hits race; every reply must
  // be the same line.
  const ScratchDir dir("memo_race");
  DaemonConfig config;
  config.store_dir = dir.store();
  config.max_connections = 8;
  DaemonServer server(dir.socket("d"), config);
  server.start();

  std::vector<std::pair<std::string, std::string>> bodies;
  bodies.emplace_back("text", to_text_format(catalog::fig3_example()));
  bodies.emplace_back(
      "json", envelope(to_text_format(catalog::fig5_example()), "naive", 0));
  const AugmentedAdt money = catalog::money_theft_dag();
  bodies.emplace_back("xml",
                      export_adtool_xml(money.adt(), money.attribution()));
  bodies.emplace_back("text", to_text_format(catalog::fig4_exponential(6)));

  // One cold round computes every front; its replies, marked cached,
  // are what every later request must get.
  std::vector<std::string> expected;
  {
    const int fd = connect_with_retry(server.endpoint());
    const std::string cold_flag = "\"cached\":false";
    for (const auto& [format, body] : bodies) {
      std::string reply =
          request_line(fd, analyze_header(format, body) + body);
      const std::size_t at = reply.find(cold_flag);
      ASSERT_NE(at, std::string::npos) << reply;
      expected.push_back(reply.replace(at, cold_flag.size(),
                                       "\"cached\":true"));
    }
    ::close(fd);
  }

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRounds = 25;
  std::atomic<std::size_t> ready{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_with_retry(server.endpoint());
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      for (std::size_t r = 0; r < kRounds; ++r) {
        for (std::size_t k = 0; k < bodies.size(); ++k) {
          const std::size_t i = (c + k) % bodies.size();
          const auto& [format, body] = bodies[i];
          if (request_line(fd, analyze_header(format, body) + body) !=
              expected[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  const double repeats = kClients * kRounds * bodies.size();
  EXPECT_EQ(stat(server, "computed"), bodies.size());
  EXPECT_EQ(stat(server, "failed"), 0);
  EXPECT_EQ(stat(server, "cache_hits"), repeats);
  EXPECT_EQ(stat(server, "replies", "entries"), bodies.size());
  // Every repeat was a memo hit or reached the FrontCache as a hit.
  EXPECT_EQ(stat(server, "replies", "hits") + stat(server, "memory", "hits"),
            repeats);
  server.stop();
}

TEST(Daemon, PollReadableReturnsOnDataOrEofAndOtherwiseAtTheBudget) {
  // A worker's wait for the next request: it must neither consume the
  // bytes it sees nor outlast its budget on an idle connection.
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(poll_readable_fd(fds[1], std::chrono::milliseconds(2)));
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(2));

  write_all_fd(fds[0], "PING\n", 5);
  EXPECT_TRUE(poll_readable_fd(fds[1], std::chrono::seconds(10)));
  EXPECT_EQ(read_line_fd(fds[1]), std::optional<std::string>("PING"));

  ::close(fds[0]);
  EXPECT_TRUE(poll_readable_fd(fds[1], std::chrono::seconds(10)));
  EXPECT_EQ(read_line_fd(fds[1]), std::nullopt);
  ::close(fds[1]);
}

}  // namespace
}  // namespace adtp::serve
