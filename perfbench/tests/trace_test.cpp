// Tests of the span recorder and the self-time summarizer: nested spans,
// partly overlapping children, children sticking out of their parent.
//
// Build and run:  cmake --build <dir> --target perfbench_trace_test
//                 <dir>/perfbench_trace_test

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"

namespace {

int failures = 0;

void expect_eq(std::int64_t got, std::int64_t want, const std::string& what) {
  if (got != want) {
    std::cerr << "FAIL " << what << ": got " << got << ", want " << want
              << "\n";
    ++failures;
  }
}

using perfbench::Span;
using perfbench::SpanRecorder;

void nested_spans_subtract_only_direct_children() {
  SpanRecorder rec;
  const auto a = rec.record("a", 0, 100, 1);
  const auto b = rec.record("b", 10, 40, 1, a);
  rec.record("c", 20, 30, 1, b);
  const auto self = perfbench::self_times_ns(rec.spans());
  expect_eq(self[0], 70, "nested: a loses only b's 30");
  expect_eq(self[1], 20, "nested: b loses c's 10");
  expect_eq(self[2], 10, "nested: leaf keeps its duration");
}

void overlapping_children_count_once() {
  SpanRecorder rec;
  const auto a = rec.record("a", 0, 100, 7);
  rec.record("b", 10, 50, 7, a);
  rec.record("c", 30, 70, 7, a);  // overlaps b on [30, 50]
  rec.record("d", 40, 45, 7, a);  // inside both
  const auto self = perfbench::self_times_ns(rec.spans());
  expect_eq(self[0], 40, "overlap: union [10, 70] covers 60");
}

void disjoint_and_identical_children() {
  SpanRecorder rec;
  const auto a = rec.record("a", 0, 100, 2);
  rec.record("b", 0, 10, 2, a);
  rec.record("b", 0, 10, 2, a);  // identical twin
  rec.record("c", 90, 100, 2, a);
  const auto self = perfbench::self_times_ns(rec.spans());
  expect_eq(self[0], 80, "disjoint: 10 + 10 covered");
}

void children_are_clipped_to_the_parent() {
  SpanRecorder rec;
  const auto a = rec.record("a", 0, 100, 3);
  rec.record("b", 80, 130, 3, a);   // sticks out on the right
  rec.record("c", -20, 5, 3, a);    // and on the left
  rec.record("d", 200, 300, 3, a);  // entirely outside
  const auto self = perfbench::self_times_ns(rec.spans());
  expect_eq(self[0], 75, "clipped: only [0,5] and [80,100] count");
  expect_eq(self[1], 50, "clipped child keeps its own duration");
}

void summary_groups_by_name() {
  SpanRecorder rec;
  const auto r1 = rec.record("req", 0, 100, 1);
  rec.record("io", 0, 30, 1, r1);
  const auto r2 = rec.record("req", 200, 260, 2);
  rec.record("io", 210, 220, 2, r2);
  const auto summary = perfbench::summarize(rec.spans());
  expect_eq(static_cast<std::int64_t>(summary.at("req").calls), 2, "calls");
  expect_eq(static_cast<std::int64_t>(summary.at("req").total_self_us * 1e3),
            120, "req self total = 70 + 50");
  expect_eq(static_cast<std::int64_t>(summary.at("io").total_self_us * 1e3),
            40, "io self total = 30 + 10");
}

void begin_end_from_many_threads() {
  SpanRecorder rec;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < 1000; ++i) {
        const auto parent = rec.begin("outer", static_cast<std::uint64_t>(t));
        rec.timed("inner", static_cast<std::uint64_t>(t), parent, [] {});
        rec.end(parent);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const std::vector<Span> spans = rec.spans();
  expect_eq(static_cast<std::int64_t>(spans.size()), 8000, "span count");
  for (const Span& s : spans) {
    if (s.end_ns < s.start_ns) {
      ++failures;
      std::cerr << "FAIL threads: span ends before it starts\n";
      break;
    }
  }
  const auto self = perfbench::self_times_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (self[i] < 0 || self[i] > spans[i].duration_ns()) {
      ++failures;
      std::cerr << "FAIL threads: self time outside [0, duration]\n";
      break;
    }
  }
  std::ostringstream out;
  rec.write_jsonl(out);
  std::size_t lines = 0;
  for (const char c : out.str()) lines += c == '\n' ? 1 : 0;
  expect_eq(static_cast<std::int64_t>(lines), 8000, "jsonl lines");
}

}  // namespace

int main() {
  nested_spans_subtract_only_direct_children();
  overlapping_children_count_once();
  disjoint_and_identical_children();
  children_are_clipped_to_the_parent();
  summary_groups_by_name();
  begin_end_from_many_threads();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "trace tests passed\n";
  return EXIT_SUCCESS;
}
