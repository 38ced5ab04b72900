/// \file analyzer.hpp
/// \brief One-call façade over the three Pareto-front algorithms.

#pragma once

#include <cstdint>
#include <string>

#include "core/attribution.hpp"
#include "core/bdd_bu.hpp"
#include "core/bottom_up.hpp"
#include "core/hybrid.hpp"
#include "core/naive.hpp"
#include "core/pareto.hpp"
#include "core/trace.hpp"

namespace adtp {

/// Which algorithm analyze() should run.
enum class Algorithm : std::uint8_t {
  Auto,     ///< BottomUp for trees, BddBu for DAGs
  Naive,    ///< Algorithm 2 (exponential; oracle/baseline)
  BottomUp, ///< Algorithm 1 (trees only)
  BddBu,    ///< Algorithm 3
  Hybrid,   ///< modular decomposition extension
};

[[nodiscard]] const char* to_string(Algorithm a) noexcept;

/// Result fields first - each enters the FrontCacheKey - then the
/// execution fields, which never do.
struct AnalysisOptions {
  Algorithm algorithm = Algorithm::Auto;
  NaiveOptions naive;
  BottomUpOptions bottom_up;
  BddBuOptions bdd;
  HybridOptions hybrid;

  /// Guards, scheduler, memo and parallel floor of the run (trace.hpp),
  /// handed to whichever kernel runs.
  RunContext run;

  /// Worker threads *inside* one analysis: 0 and 1 (default 0) run the
  /// selected kernel sequentially; N > 1 makes analyze() build one
  /// scheduler of N slots for run.pool. A run.pool the caller set wins.
  /// The scheduler starts its workers only when the kernel's floors send
  /// it work. Left at 0 in a batch job, analyze_batch() lends the batch
  /// scheduler instead, so an oversized item does not straggle on one
  /// core.
  unsigned intra_model_threads = 0;
};

/// The front plus the trace of the run that computed it (memo_hits and
/// memo_misses are zero unless a NodeFrontMemo reached the executed
/// kernel).
struct AnalysisResult : AnalysisTrace {
  Front front;
  Algorithm used = Algorithm::Auto;  ///< the algorithm actually executed
  double seconds = 0;                ///< wall-clock analysis time
};

/// Computes PF(T) with the requested (or automatically selected)
/// algorithm, tracing the run into the result.
[[nodiscard]] AnalysisResult analyze(const AugmentedAdt& aadt,
                                     const AnalysisOptions& options = {});

/// As analyze(), but consulting (and filling) \p memo, the per-node front
/// memo of node_memo.hpp: a model that differs from a previously analyzed
/// one in a single subtree recomputes only the root-ward spine of the
/// edit. Auto resolves to BottomUp for trees and to Hybrid (not BddBu)
/// for DAGs - the hybrid walker is the DAG kernel with a memo path. An
/// explicit Naive/BddBu request runs cold (those kernels have no per-node
/// memo); an options.run.memo the caller set wins over \p memo. Results
/// are bit-identical to analyze() without a memo, at every thread count
/// (docs/CONTRACTS.md).
[[nodiscard]] AnalysisResult analyze_incremental(
    const AugmentedAdt& aadt, NodeFrontMemo& memo,
    const AnalysisOptions& options = {});

}  // namespace adtp
