#include "core/analyzer.hpp"

#include "core/node_memo.hpp"
#include "util/error.hpp"
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

  AnalysisResult result;
  result.used = algorithm;
  Stopwatch watch;
  switch (algorithm) {
    case Algorithm::Naive: {
      NaiveOptions naive = options.naive;
      if (options.intra_model_threads != 0) {
        naive.threads = options.intra_model_threads;
      }
      result.front = naive_front(aadt, naive, &result);
      break;
    }
    case Algorithm::BottomUp: {
      BottomUpOptions bottom_up = options.bottom_up;
      if (options.intra_model_threads != 0) {
        bottom_up.threads = options.intra_model_threads;
      }
      result.front = bottom_up_front(aadt, bottom_up, &result);
      break;
    }
    case Algorithm::BddBu: {
      BddBuOptions bdd = options.bdd;
      if (options.intra_model_threads != 0) {
        bdd.threads = options.intra_model_threads;
      }
      result.front = bdd_bu_front(aadt, bdd, &result);
      break;
    }
    case Algorithm::Hybrid: {
      HybridOptions hybrid = options.hybrid;
      if (options.intra_model_threads != 0) {
        hybrid.bdd.threads = options.intra_model_threads;
      }
      result.front = hybrid_front(aadt, hybrid, &result);
      break;
    }
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
  if (opts.bottom_up.memo == nullptr) opts.bottom_up.memo = &memo;
  if (opts.hybrid.memo == nullptr) opts.hybrid.memo = &memo;
  return analyze(aadt, opts);
}

}  // namespace adtp
