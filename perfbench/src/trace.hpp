/// \file trace.hpp
/// \brief In-memory span recorder and self-time summarizer of the
///        benchmark's traced runs.
///
/// A span is one timed call into a layer: a name, a start and an end on
/// the steady clock, the span that caused it, and the id of the request
/// it belongs to. Spans stay in memory while the benchmark runs and are
/// written out as JSON lines when it ends.
///
/// A span's self time is its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other
/// (parallel work under one parent) or stick out of the parent; the
/// covered part is the union of the children's intervals clipped to the
/// parent's, so no instant is subtracted twice and nothing outside the
/// parent is subtracted at all.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (the span time base).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the parent span, -1 for a root
  std::uint64_t request = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Thread-safe append-only span store. Ids are indices into spans().
class SpanRecorder {
 public:
  static constexpr std::int64_t kRoot = -1;

  /// Opens a span starting now; close it with end(). The start is read
  /// after the record is stored, so a growing span vector's reallocation
  /// is not charged to the span.
  std::int64_t begin(std::string name, std::uint64_t request,
                     std::int64_t parent = kRoot) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), 0, 0, parent, request});
    Span& span = spans_.back();
    span.start_ns = span.end_ns = now_ns();
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  void end(std::int64_t id) {
    const std::int64_t stop = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(static_cast<std::size_t>(id)).end_ns = stop;
  }

  /// Adds a finished span measured elsewhere.
  std::int64_t record(std::string name, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint64_t request,
                      std::int64_t parent = kRoot) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), start_ns, end_ns, parent, request});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  /// Times \p fn as a span named \p name; returns what \p fn returns.
  template <typename Fn>
  auto timed(std::string name, std::uint64_t request, std::int64_t parent,
             Fn&& fn) {
    const std::int64_t id = begin(std::move(name), request, parent);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      end(id);
    } else {
      auto out = fn();
      end(id);
      return out;
    }
  }

  /// A copy of every span recorded so far (call once recording is over).
  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// One JSON object per line: id, name, start/end (ns), parent, request;
  /// \p tag (say, the workload) is written into every line when given.
  void write_jsonl(std::ostream& out, const std::string& tag = "") const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{";
      if (!tag.empty()) out << "\"tag\":\"" << tag << "\",";
      out << "\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Self time of every span (ns), indexed like \p spans.
[[nodiscard]] inline std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& child : spans) {
    if (child.parent < 0) continue;
    const Span& parent = spans.at(static_cast<std::size_t>(child.parent));
    const std::int64_t lo = std::max(child.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) {
      covered[static_cast<std::size_t>(child.parent)].emplace_back(lo, hi);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t union_ns = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = spans[i].duration_ns() - union_ns;
  }
  return self;
}

/// Per-name aggregate of a span set.
struct LayerSummary {
  std::size_t calls = 0;
  std::vector<double> self_us;  ///< every call's self time
  double total_self_us = 0;
};

[[nodiscard]] inline std::map<std::string, LayerSummary> summarize(
    const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, LayerSummary> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerSummary& s = out[spans[i].name];
    ++s.calls;
    const double self_us = static_cast<double>(self[i]) / 1e3;
    s.self_us.push_back(self_us);
    s.total_self_us += self_us;
  }
  return out;
}

}  // namespace perfbench
