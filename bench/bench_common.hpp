/// \file bench_common.hpp
/// \brief Shared helpers for the figure/table reproduction harnesses.

#pragma once

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace adtp::bench {

/// Times a callable once; returns seconds.
template <typename F>
double time_call(F&& f) {
  Stopwatch watch;
  std::forward<F>(f)();
  return watch.seconds();
}

/// Times a callable, returning nullopt if it throws LimitError (deadline
/// or node-limit exceeded) - the bench reports those as capped runs.
template <typename F>
std::optional<double> time_call_capped(F&& f) {
  Stopwatch watch;
  try {
    std::forward<F>(f)();
  } catch (const LimitError&) {
    return std::nullopt;
  }
  return watch.seconds();
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

/// "--flag value" style argument lookup (tiny; benches have 1-3 options).
inline std::optional<std::string> arg_value(int argc, char** argv,
                                            const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) return std::string(argv[i + 1]);
  }
  return std::nullopt;
}

inline bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

inline std::size_t arg_size_t(int argc, char** argv, const std::string& flag,
                              std::size_t fallback) {
  const auto v = arg_value(argc, argv, flag);
  return v ? static_cast<std::size_t>(std::stoull(*v)) : fallback;
}

inline void banner(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

/// Smoke assertion for the PR 2 kernel-guard API: every analysis kernel a
/// bench is about to time must honor a pre-cancelled CancelToken (throw
/// CancelledError) and an already-expired Deadline (throw DeadlineError).
/// Benches that run open-ended generated instances call this once at
/// startup so a silently dropped guard - which would let a pathological
/// instance run the bench forever - aborts immediately instead.
inline void assert_kernel_guards(const AugmentedAdt& aadt) {
  CancelToken cancelled;
  cancelled.cancel();
  const Deadline expired(1e-12);

  auto expect = [&](const std::string& what, auto&& run, auto&& probe) {
    bool guarded = false;
    try {
      run();
    } catch (const std::exception& e) {
      guarded = probe(e);
    }
    if (!guarded) {
      std::cerr << "FATAL: " << what
                << " ignored its kernel guard; refusing to run unguarded "
                   "benches\n";
      std::exit(2);
    }
  };
  auto is_cancel = [](const std::exception& e) {
    return dynamic_cast<const CancelledError*>(&e) != nullptr;
  };
  auto is_deadline = [](const std::exception& e) {
    return dynamic_cast<const DeadlineError*>(&e) != nullptr;
  };

  RunContext cancel;
  cancel.cancel = &cancelled;
  RunContext deadline;
  deadline.deadline = &expired;
  auto guards = [&](const std::string& kernel, auto&& analyze_with) {
    expect(kernel + " cancel", [&] { analyze_with(cancel); }, is_cancel);
    expect(kernel + " deadline", [&] { analyze_with(deadline); },
           is_deadline);
  };
  guards("naive",
         [&](const RunContext& run) { (void)naive_front(aadt, {}, run); });
  if (aadt.adt().is_tree()) {
    guards("bottom-up", [&](const RunContext& run) {
      (void)bottom_up_front(aadt, {}, run);
    });
  }
  guards("bdd_bu",
         [&](const RunContext& run) { (void)bdd_bu_front(aadt, {}, run); });
  guards("hybrid",
         [&](const RunContext& run) { (void)hybrid_front(aadt, {}, run); });

  std::cout << "[guards] cancel + deadline honored by all kernels\n";
}

}  // namespace adtp::bench
