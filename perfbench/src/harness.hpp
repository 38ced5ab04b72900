/// \file harness.hpp
/// \brief Shared pieces of the benchmark: run options, metric output,
///        statistics, provenance, the load generator's buffered reply
///        reader, and the correctness oracle.

#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/analyzer.hpp"
#include "core/front_cache.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  ///< JSON-lines span file of a traced run
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
  unsigned nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload (or one traced run) hands back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra facts for the info line (sample counts, seeds, sizes).
  std::vector<std::pair<std::string, double>> facts;
  /// First few failure reasons, for stderr.
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fact(std::string name, double value) {
    facts.emplace_back(std::move(name), value);
  }
  void fail(std::string why) {
    correct = false;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
  /// Appends another outcome (traced runs combine three passes).
  void merge(Outcome other);
};

// ---- statistics ----------------------------------------------------------

/// Linear-interpolation percentile, p in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);
/// Peak resident set size of this process since its start or the last
/// reset_peak_rss(), in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();
/// Lowers the peak to the current resident set size, so that later
/// peaks leave out untimed set-up work; false when the kernel refused.
bool reset_peak_rss();

/// Latency samples one window must hold: ten beyond its 99th percentile.
inline constexpr std::size_t kWindowOps = 1000;
inline constexpr std::size_t kMaxWindows = 5;
/// A timed run goes on past --seconds until it holds this many ops (or
/// three times --seconds have passed).
inline constexpr std::size_t kMinOps = 3 * kWindowOps;

/// One stretch of a timed run: how many ops ended in it, how long it
/// lasted, and the latencies of those ops (all, or a uniform sample).
struct Window {
  std::uint64_t ops = 0;
  double seconds = 0;
  std::vector<double> latency_ms;
};

/// Adds ops_per_s, latency_p50_ms and latency_p99_ms, each the median
/// over \p windows, so a burst of host noise that hits one window does
/// not move it. A window with fewer than kWindowOps latency samples
/// (ten beyond its p99) fails the run.
void add_window_metrics(Outcome& out, const std::vector<Window>& windows);

/// One completed op of a timed run: when it ended on the run's clock
/// and how long it took.
struct OpSample {
  std::int64_t end_ns = 0;
  double latency_ms = 0;
};

/// Cuts a run's ops, in completion order, into up to kMaxWindows equal
/// windows of at least kWindowOps ops (one window when there are fewer).
[[nodiscard]] std::vector<Window> windows_by_count(std::vector<OpSample> ops,
                                                   std::int64_t start_ns);

/// The latencies of one client of a timed run, in kMaxWindows equal time
/// windows. Each window counts all its ops but keeps a fixed-size uniform
/// sample of their latencies (a reservoir), so the load generator's
/// memory, which peak_rss_mb sees, does not grow with the ops served.
class LatencyWindows {
 public:
  static constexpr std::size_t kKeep = 4096;

  LatencyWindows() = default;
  LatencyWindows(std::int64_t start_ns, std::int64_t window_ns,
                 std::uint64_t seed);

  void add(std::int64_t end_ns, double latency_ms);

  /// The windows of all \p clients, merged; the last window ends at
  /// \p end_ns (a run that went on past --seconds lengthens it).
  [[nodiscard]] static std::vector<Window> merge(
      const std::vector<const LatencyWindows*>& clients, std::int64_t end_ns);

 private:
  std::int64_t start_ns_ = 0;
  std::int64_t window_ns_ = 0;
  std::mt19937_64 rng_;
  std::vector<std::uint64_t> seen_;
  std::vector<std::vector<double>> kept_;
};

// ---- provenance ----------------------------------------------------------

[[nodiscard]] std::string cpu_model();
/// The provenance fields as a JSON object body.
[[nodiscard]] std::string provenance_json(const RunOptions& options);

// ---- seeded inputs -------------------------------------------------------

using Rng = std::mt19937_64;

/// Uniform integer in [0, n).
[[nodiscard]] std::uint64_t below(Rng& rng, std::uint64_t n);

/// Zipf(s) over ranks [0, n): cumulative weights, binary search.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t operator()(Rng& rng) const;

 private:
  std::vector<double> cumulative_;
};

// ---- models and the correctness oracle -----------------------------------

/// One ANALYZE request of the wire protocol.
struct RequestItem {
  std::string name;
  std::string format;  ///< text, xml or json
  std::string body;
  std::string wire;    ///< "ANALYZE <format> <n>\n" + body, prebuilt
  bool dag = false;
  adtp::Front reference;  ///< filled by compute_references()
  double reference_s = 0;  ///< the first reference kernel's seconds

  RequestItem(std::string name_, std::string format_, std::string body_);
};

/// The model and options the daemon derives from a request, built with
/// the same public parsers it uses.
struct ParsedItem {
  adtp::AugmentedAdt aadt;
  adtp::AnalysisOptions options;
};
[[nodiscard]] ParsedItem parse_item(const std::string& format,
                                    const std::string& body);

/// Structural caps of the reference analysis; a model over them is
/// dropped from a stream at setup (a deterministic, not timed, cap).
struct ReferenceCaps {
  std::size_t max_front_points = 0;
  std::size_t bdd_node_limit = 0;
};

/// Computes each item's reference front with two kernels (trees: BU and
/// BDDBU, DAGs: BDDBU and hybrid) on \p threads workers, and checks the
/// two agree bit for bit. Returns per item: 0 ok, 1 over the caps,
/// 2 the kernels disagree or failed (the message lands in \p errors).
[[nodiscard]] std::vector<int> compute_references(
    std::vector<RequestItem>& items, const ReferenceCaps& caps,
    unsigned threads, std::vector<std::string>& errors);

/// Checks one reply line against an item's reference front, bit for bit.
/// A reply's front text is parsed once per item and checked; later
/// replies compare their front bytes against the verified text (equal
/// bytes parse to equal doubles).
class ReplyChecker {
 public:
  explicit ReplyChecker(const std::vector<RequestItem>& items)
      : items_(items), verified_(items.size()) {}

  /// True when \p reply is an ok reply whose front equals the
  /// reference; otherwise false with the reason in \p why.
  bool check(std::size_t item, std::string_view reply, std::string& why);

 private:
  const std::vector<RequestItem>& items_;
  std::vector<std::string> verified_;
};

// ---- wire client ---------------------------------------------------------

/// Buffered line reader of the load generator: one recv() per socket
/// buffer's worth, not one read() per byte.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd), buf_(1 << 16) {}

  /// Reads one '\n'-terminated line into \p line (terminator dropped).
  /// \p first_byte_ns is when the first byte of the line was in hand.
  /// Returns false on EOF or error.
  bool read_line(std::string& line, std::int64_t& first_byte_ns);

 private:
  int fd_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

/// Sends all of \p data (MSG_NOSIGNAL); false on error.
bool send_all(int fd, std::string_view data);

// ---- workloads -----------------------------------------------------------
//
// run_*: the timed run, reporting the end-to-end metrics.
// trace_*: the traced run of the same workload, reporting its per-layer
// metrics and recording its spans into \p spans. serve_cold has only a
// traced run: its write-path layers are measured, but it has no timed
// workload of its own.

[[nodiscard]] Outcome run_serve_warm(const RunOptions& options);
[[nodiscard]] Outcome run_edit_loop(const RunOptions& options);
[[nodiscard]] Outcome trace_serve_warm(const RunOptions& options,
                                       SpanRecorder& spans);
[[nodiscard]] Outcome trace_serve_cold(const RunOptions& options,
                                       SpanRecorder& spans);
[[nodiscard]] Outcome trace_edit_loop(const RunOptions& options,
                                      SpanRecorder& spans);

}  // namespace perfbench
