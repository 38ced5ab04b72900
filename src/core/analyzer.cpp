#include "core/analyzer.hpp"

#include <optional>

#include "core/node_memo.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace adtp {

const char* to_string(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::Auto:
      return "auto";
    case Algorithm::Naive:
      return "naive";
    case Algorithm::BottomUp:
      return "bottom-up";
    case Algorithm::BddBu:
      return "bdd-bu";
    case Algorithm::Hybrid:
      return "hybrid";
  }
  return "?";
}

AnalysisResult analyze(const AugmentedAdt& aadt,
                       const AnalysisOptions& options) {
  Algorithm algorithm = options.algorithm;
  if (algorithm == Algorithm::Auto) {
    algorithm =
        aadt.adt().is_tree() ? Algorithm::BottomUp : Algorithm::BddBu;
  }

  // The analysis's own scheduler: built only when intra_model_threads
  // asks for more than one slot and the caller lent no pool. It starts
  // its workers at the kernel's first run(), so a kernel whose floors
  // keep it sequential never spawns a thread.
  RunContext run = options.run;
  std::optional<TaskScheduler> owned;
  if (run.pool == nullptr && options.intra_model_threads > 1) {
    run.pool = &owned.emplace(options.intra_model_threads);
  }

  AnalysisResult result;
  result.used = algorithm;
  Stopwatch watch;
  switch (algorithm) {
    case Algorithm::Naive:
      result.front = naive_front(aadt, options.naive, run, &result);
      break;
    case Algorithm::BottomUp:
      result.front = bottom_up_front(aadt, options.bottom_up, run, &result);
      break;
    case Algorithm::BddBu:
      result.front = bdd_bu_front(aadt, options.bdd, run, &result);
      break;
    case Algorithm::Hybrid:
      result.front = hybrid_front(aadt, options.hybrid, run, &result);
      break;
    case Algorithm::Auto:
      throw Error("analyze: unresolved Auto algorithm");
  }
  result.seconds = watch.seconds();
  return result;
}

AnalysisResult analyze_incremental(const AugmentedAdt& aadt,
                                   NodeFrontMemo& memo,
                                   const AnalysisOptions& options) {
  AnalysisOptions opts = options;
  if (opts.algorithm == Algorithm::Auto) {
    // Resolve here instead of deferring to analyze(): the incremental
    // DAG path is Hybrid (BddBu has no per-node memo - its BDD nodes are
    // not ADT subtrees).
    opts.algorithm =
        aadt.adt().is_tree() ? Algorithm::BottomUp : Algorithm::Hybrid;
  }
  if (opts.run.memo == nullptr) opts.run.memo = &memo;
  return analyze(aadt, opts);
}

}  // namespace adtp
