#include "harness.hpp"

#include <cpuid.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "adt/adtool_xml.hpp"
#include "adt/text_format.hpp"
#include "util/cpu.hpp"
#include "util/json.hpp"

namespace perfbench {

void Outcome::merge(Outcome other) {
  if (!other.correct) correct = false;
  attempted += other.attempted;
  failed += other.failed;
  for (Metric& m : other.metrics) metrics.push_back(std::move(m));
  for (auto& f : other.facts) facts.push_back(std::move(f));
  for (std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(std::move(e));
  }
}

// ---- statistics ----------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  rusage usage{};  // no /proc: the lifetime peak, which cannot be reset
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak resident set size
  clear_refs.flush();
  return clear_refs.good();
}

void add_window_metrics(Outcome& out, const std::vector<Window>& windows) {
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;
  std::size_t fewest = windows.empty() ? 0 : SIZE_MAX;
  std::uint64_t ops = 0;
  for (const Window& w : windows) {
    rate.push_back(static_cast<double>(w.ops) / w.seconds);
    p50.push_back(percentile(w.latency_ms, 0.50));
    p99.push_back(percentile(w.latency_ms, 0.99));
    fewest = std::min(fewest, w.latency_ms.size());
    ops += w.ops;
  }
  out.add("ops_per_s", median(rate), "1/s");
  out.add("latency_p50_ms", median(p50), "ms");
  out.add("latency_p99_ms", median(p99), "ms");
  out.fact("latency_ops", static_cast<double>(ops));
  out.fact("latency_windows", static_cast<double>(windows.size()));
  out.fact("latency_samples_per_window_min", static_cast<double>(fewest));
  if (fewest < kWindowOps) {
    out.fail("a window holds only " + std::to_string(fewest) +
             " latency samples: fewer than 10 beyond p99");
  }
}

std::vector<Window> windows_by_count(std::vector<OpSample> ops,
                                     std::int64_t start_ns) {
  std::sort(ops.begin(), ops.end(), [](const OpSample& a, const OpSample& b) {
    return a.end_ns < b.end_ns;
  });
  const std::size_t n = ops.size();
  const std::size_t count =
      std::clamp<std::size_t>(n / kWindowOps, 1, kMaxWindows);
  std::vector<Window> windows;
  std::int64_t window_start = start_ns;
  for (std::size_t w = 0; w < count && n > 0; ++w) {
    const std::size_t lo = w * n / count;
    const std::size_t hi = (w + 1) * n / count;
    Window window;
    window.ops = hi - lo;
    for (std::size_t i = lo; i < hi; ++i) {
      window.latency_ms.push_back(ops[i].latency_ms);
    }
    window.seconds =
        static_cast<double>(ops[hi - 1].end_ns - window_start) / 1e9;
    window_start = ops[hi - 1].end_ns;
    windows.push_back(std::move(window));
  }
  return windows;
}

LatencyWindows::LatencyWindows(std::int64_t start_ns, std::int64_t window_ns,
                               std::uint64_t seed)
    : start_ns_(start_ns),
      window_ns_(window_ns),
      rng_(seed),
      seen_(kMaxWindows, 0),
      kept_(kMaxWindows, std::vector<double>(kKeep)) {}

void LatencyWindows::add(std::int64_t end_ns, double latency_ms) {
  if (seen_.empty()) return;  // not a timed pass
  const auto w = static_cast<std::size_t>(std::clamp<std::int64_t>(
      (end_ns - start_ns_) / window_ns_, 0, kMaxWindows - 1));
  std::uint64_t& seen = seen_[w];
  if (seen < kKeep) {
    kept_[w][seen] = latency_ms;
  } else if (const std::uint64_t slot = below(rng_, seen + 1); slot < kKeep) {
    kept_[w][slot] = latency_ms;
  }
  ++seen;
}

std::vector<Window> LatencyWindows::merge(
    const std::vector<const LatencyWindows*>& clients, std::int64_t end_ns) {
  std::vector<Window> windows(kMaxWindows);
  if (clients.empty()) return windows;
  for (std::size_t w = 0; w < kMaxWindows; ++w) {
    const LatencyWindows& first = *clients.front();
    const std::int64_t lo = first.start_ns_ + first.window_ns_ *
                                                  static_cast<std::int64_t>(w);
    const std::int64_t hi =
        w + 1 == kMaxWindows ? end_ns : lo + first.window_ns_;
    windows[w].seconds = static_cast<double>(hi - lo) / 1e9;
    for (const LatencyWindows* c : clients) {
      const std::uint64_t seen = c->seen_[w];
      windows[w].ops += seen;
      windows[w].latency_ms.insert(
          windows[w].latency_ms.end(), c->kept_[w].begin(),
          c->kept_[w].begin() +
              static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(seen, kKeep)));
    }
  }
  return windows;
}

// ---- provenance ----------------------------------------------------------

std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string out(brand);
  const auto first = out.find_first_not_of(' ');
  if (first == std::string::npos) return "unknown";
  return out.substr(first);
}

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string provenance_json(const RunOptions& options) {
  std::ostringstream out;
  out << "\"nproc\":" << options.nproc << ",\"cpu\":" << quoted(cpu_model())
      << ",\"simd\":" << quoted(adtp::to_string(adtp::active_simd_level()))
      << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
      << ",\"seed\":" << options.seed
      << ",\"seconds\":" << options.seconds
      << ",\"git_commit\":" << quoted(options.git_commit)
      << ",\"source_digest\":" << quoted(options.source_digest);
  return out.str();
}

// ---- seeded inputs -------------------------------------------------------

std::uint64_t below(Rng& rng, std::uint64_t n) {
  // Rejection sampling keeps the draw exact and library-independent.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  while (true) {
    const std::uint64_t x = rng();
    if (x < limit) return x % n;
  }
}

Zipf::Zipf(std::size_t n, double s) {
  cumulative_.reserve(n);
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cumulative_.push_back(total);
  }
}

std::size_t Zipf::operator()(Rng& rng) const {
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53 *
                   cumulative_.back();
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  return std::min<std::size_t>(
      static_cast<std::size_t>(it - cumulative_.begin()),
      cumulative_.size() - 1);
}

// ---- models and the correctness oracle -----------------------------------

RequestItem::RequestItem(std::string name_, std::string format_,
                         std::string body_)
    : name(std::move(name_)),
      format(std::move(format_)),
      body(std::move(body_)),
      wire("ANALYZE " + format + " " + std::to_string(body.size()) + "\n" +
           body) {}

namespace {

adtp::AugmentedAdt model_from(const std::string& format,
                              const std::string& body) {
  if (format == "text") return adtp::parse_adt_text(body).augmented();
  if (format == "xml") {
    adtp::AdtoolImport imported = adtp::import_adtool_xml(body);
    return adtp::AugmentedAdt(std::move(imported.adt),
                              std::move(imported.attribution),
                              adtp::Semiring::min_cost(),
                              adtp::Semiring::min_cost());
  }
  throw adtp::Error("unknown model format: " + format);
}

adtp::Algorithm algorithm_named(const std::string& name) {
  if (name == "naive") return adtp::Algorithm::Naive;
  if (name == "bottom_up" || name == "bottom-up") {
    return adtp::Algorithm::BottomUp;
  }
  if (name == "bdd_bu" || name == "bdd-bu") return adtp::Algorithm::BddBu;
  if (name == "hybrid") return adtp::Algorithm::Hybrid;
  return adtp::Algorithm::Auto;
}

}  // namespace

ParsedItem parse_item(const std::string& format, const std::string& body) {
  if (format != "json") return {model_from(format, body), {}};
  const adtp::JsonValue doc = adtp::parse_json(body);
  const std::string inner =
      doc.has("format") ? doc.at("format").as_string() : "text";
  ParsedItem parsed{model_from(inner, doc.at("model").as_string()), {}};
  if (doc.has("algorithm")) {
    parsed.options.algorithm = algorithm_named(doc.at("algorithm").as_string());
  }
  return parsed;
}

std::vector<int> compute_references(std::vector<RequestItem>& items,
                                    const ReferenceCaps& caps,
                                    unsigned threads,
                                    std::vector<std::string>& errors) {
  std::vector<int> status(items.size(), 0);
  std::vector<std::string> messages(items.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= items.size()) return;
      RequestItem& item = items[i];
      try {
        const adtp::AugmentedAdt aadt = parse_item(item.format, item.body).aadt;
        item.dag = !aadt.adt().is_tree();
        adtp::AnalysisOptions first;
        adtp::AnalysisOptions second;
        first.algorithm = item.dag ? adtp::Algorithm::BddBu
                                   : adtp::Algorithm::BottomUp;
        second.algorithm = item.dag ? adtp::Algorithm::Hybrid
                                    : adtp::Algorithm::BddBu;
        for (adtp::AnalysisOptions* o : {&first, &second}) {
          o->bottom_up.max_front_points = caps.max_front_points;
          o->bdd.max_front_points = caps.max_front_points;
          o->bdd.node_limit = caps.bdd_node_limit;
          o->hybrid.bdd.max_front_points = caps.max_front_points;
          o->hybrid.bdd.node_limit = caps.bdd_node_limit;
        }
        adtp::AnalysisResult a;
        adtp::AnalysisResult b;
        try {
          a = adtp::analyze(aadt, first);
          b = adtp::analyze(aadt, second);
        } catch (const adtp::LimitError&) {
          status[i] = 1;
          continue;
        }
        if (!a.front.bit_identical_values(b.front)) {
          status[i] = 2;
          messages[i] = item.name + ": reference kernels disagree: " +
                        a.front.to_string() + " vs " + b.front.to_string();
          continue;
        }
        item.reference = std::move(a.front);
        item.reference_s = a.seconds;
      } catch (const std::exception& e) {
        status[i] = 2;
        messages[i] = item.name + ": reference failed: " + e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  for (std::string& m : messages) {
    if (!m.empty()) errors.push_back(std::move(m));
  }
  return status;
}

namespace {

/// Parses one JSON number of the daemon's writer: a bare number or the
/// quoted "inf" / "-inf" strings it uses for the infinities.
bool parse_number(std::string_view text, std::size_t& pos, double& out) {
  if (text.compare(pos, 5, "\"inf\"") == 0) {
    out = INFINITY;
    pos += 5;
    return true;
  }
  if (text.compare(pos, 6, "\"-inf\"") == 0) {
    out = -INFINITY;
    pos += 6;
    return true;
  }
  const char* begin = text.data() + pos;
  const auto [ptr, ec] = std::from_chars(begin, text.data() + text.size(), out);
  if (ec != std::errc()) return false;
  pos += static_cast<std::size_t>(ptr - begin);
  return true;
}

bool expect_char(std::string_view text, std::size_t& pos, char c) {
  if (pos >= text.size() || text[pos] != c) return false;
  ++pos;
  return true;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Parses `"front":[[d,a],...]` at the tail of a reply and compares it
/// with \p reference bit for bit.
bool front_matches(std::string_view front_text, const adtp::Front& reference,
                   std::string& why) {
  std::size_t pos = std::string_view("\"front\":").size();
  if (!expect_char(front_text, pos, '[')) {
    why = "front is not an array";
    return false;
  }
  const auto& points = reference.points();
  std::size_t n = 0;
  if (expect_char(front_text, pos, ']')) {
    if (!points.empty()) why = "empty front";
    return points.empty();
  }
  while (true) {
    double def = 0;
    double att = 0;
    if (!expect_char(front_text, pos, '[') ||
        !parse_number(front_text, pos, def) ||
        !expect_char(front_text, pos, ',') ||
        !parse_number(front_text, pos, att) ||
        !expect_char(front_text, pos, ']')) {
      why = "malformed front point";
      return false;
    }
    if (n >= points.size() || !same_bits(def, points[n].def) ||
        !same_bits(att, points[n].att)) {
      why = "front differs from the reference at point " + std::to_string(n);
      return false;
    }
    ++n;
    if (expect_char(front_text, pos, ']')) break;
    if (!expect_char(front_text, pos, ',')) {
      why = "malformed front";
      return false;
    }
  }
  if (n != points.size()) {
    why = "front has " + std::to_string(n) + " points, reference " +
          std::to_string(points.size());
    return false;
  }
  return true;
}

}  // namespace

bool ReplyChecker::check(std::size_t item, std::string_view reply,
                         std::string& why) {
  if (!reply.starts_with("{\"ok\":true")) {
    why = std::string("error reply: ") +
          std::string(reply.substr(0, std::min<std::size_t>(reply.size(), 160)));
    return false;
  }
  const std::size_t at = reply.rfind("\"front\":");
  if (at == std::string_view::npos) {
    why = "reply has no front";
    return false;
  }
  const std::string_view front_text = reply.substr(at);
  std::string& verified = verified_[item];
  if (!verified.empty() && front_text == verified) return true;
  if (!front_matches(front_text, items_[item].reference, why)) return false;
  verified.assign(front_text);
  return true;
}

// ---- wire client ---------------------------------------------------------

bool LineReader::read_line(std::string& line, std::int64_t& first_byte_ns) {
  line.clear();
  first_byte_ns = 0;
  while (true) {
    if (begin_ < end_) {
      if (first_byte_ns == 0) first_byte_ns = now_ns();
      const char* start = buf_.data() + begin_;
      const void* nl = std::memchr(start, '\n', end_ - begin_);
      if (nl != nullptr) {
        const std::size_t n =
            static_cast<std::size_t>(static_cast<const char*>(nl) - start);
        line.append(start, n);
        begin_ += n + 1;
        return true;
      }
      line.append(start, end_ - begin_);
      begin_ = end_ = 0;
    }
    const ssize_t r = ::recv(fd_, buf_.data(), buf_.size(), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    begin_ = 0;
    end_ = static_cast<std::size_t>(r);
  }
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t w = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(w));
  }
  return true;
}

}  // namespace perfbench
