// perfbench: the end-to-end benchmark of the ADT analysis engine.
//
//   perfbench --workload serve_warm|edit_loop --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
//             [--git-commit SHA] [--source-digest HEX]
//
// --trace 0 runs the named workload for S seconds and reports its
// end-to-end metrics: ops_per_s, latency_p50_ms, latency_p99_ms, setup_s
// and peak_rss_mb. --trace 1 runs the traced passes of serve_warm,
// serve_cold (the write path, traced only) and edit_loop, whatever
// --workload names, and reports every per-layer metric; the spans go to
// --trace-out as JSON lines. The last line of standard output is one
// JSON object {correct, attempted, failed, metrics}; the line before it
// holds provenance and sample counts. Every reply and every edit result
// is checked against a reference front computed with a second kernel,
// and the exit code is 0 only when all of them matched.
//
// perfbench/run.py builds this program and runs it from the repository
// root; see BENCHMARK.json for the workloads.

#include <csignal>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

using perfbench::Outcome;
using perfbench::RunOptions;

bool parse_args(int argc, char** argv, RunOptions& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--git-commit") {
      options.git_commit = value;
    } else if (flag == "--source-digest") {
      options.source_digest = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return false;
    }
  }
  return options.workload == "serve_warm" || options.workload == "edit_loop";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const RunOptions& options, const Outcome& out) {
  std::cout << "{\"perfbench\":{\"workload\":\"" << options.workload
            << "\",\"trace\":" << (options.trace ? 1 : 0) << ","
            << perfbench::provenance_json(options);
  for (const auto& [name, value] : out.facts) {
    std::cout << ",\"" << name << "\":" << number(value);
  }
  std::cout << "}}\n";
  std::cout << "{\"correct\":" << (out.correct ? "true" : "false")
            << ",\"attempted\":" << out.attempted
            << ",\"failed\":" << out.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::cout << (i ? "," : "") << "\"" << m.name << "\":{\"value\":"
              << number(m.value) << ",\"unit\":\"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  RunOptions options;
  try {
    if (!parse_args(argc, argv, options)) {
      std::cerr << "usage: perfbench --workload serve_warm|edit_loop "
                   "--seed N --seconds S --trace 0|1\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "bad argument: " << e.what() << "\n";
    return 2;
  }
  options.nproc = std::max(1u, std::thread::hardware_concurrency());

  Outcome out;
  try {
    if (options.trace) {
      perfbench::SpanRecorder warm;
      perfbench::SpanRecorder cold;
      perfbench::SpanRecorder edit;
      out.merge(perfbench::trace_serve_warm(options, warm));
      out.merge(perfbench::trace_serve_cold(options, cold));
      out.merge(perfbench::trace_edit_loop(options, edit));
      if (!options.trace_out.empty()) {
        std::ofstream file(options.trace_out);
        warm.write_jsonl(file, "serve_warm");
        cold.write_jsonl(file, "serve_cold");
        edit.write_jsonl(file, "edit_loop");
        if (!file.good()) out.fail("could not write " + options.trace_out);
      }
    } else if (options.workload == "serve_warm") {
      out = perfbench::run_serve_warm(options);
    } else {
      out = perfbench::run_edit_loop(options);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  for (const perfbench::Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.fail(m.name + " is not finite");
  }
  if (out.attempted == 0) out.fail("no operation was attempted");
  for (const std::string& e : out.errors) {
    std::cerr << "perfbench: FAILED: " << e << "\n";
  }
  print_result(options, out);
  return out.correct && out.failed == 0 ? 0 : 1;
}
