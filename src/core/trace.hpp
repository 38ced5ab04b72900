/// \file trace.hpp
/// \brief RunContext: how one analysis runs; AnalysisTrace: what it did,
///        kernel by kernel.
///
/// Every kernel entry point takes its result options (the fields that can
/// move a front or its FrontCacheKey), then a RunContext, then an optional
/// AnalysisTrace*. The RunContext holds the execution fields - guards,
/// borrowed scheduler, per-node memo and the parallel floor - which
/// never change a result, so none of them enters the FrontCacheKey
/// (docs/CONTRACTS.md, contract 2). Combine scratch is not among them:
/// each kernel run owns its FrontArenas. analyze() and the serving
/// layers fill in whatever RunContext field the caller left null.
///
/// naive_front, bottom_up_front, bdd_bu_front and hybrid_front take an
/// optional trailing AnalysisTrace* and only ever add into it: counts
/// sum, maxima take the max, and each kernel counts only its own work -
/// a hybrid run adds its tree-style combines, and every blob's BDDBU run
/// adds its own build, propagation and merges. analyze() hands the
/// AnalysisResult it returns, which derives from AnalysisTrace, so every
/// result carries the trace of the run that computed it.
///
/// A trace is per-run data and is not persisted: the store codec keeps
/// only memo_hits and memo_misses, and a decoded result carries a
/// default trace otherwise. Like AnalysisResult::seconds, a FrontCache
/// hit returns the original run's values.

#pragma once

#include <cstddef>
#include <cstdint>

#include "core/pareto.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace adtp {

class NodeFrontMemo;  // core/node_memo.hpp

/// The execution fields of one analysis run, shared by every kernel.
/// All pointers are borrowed and may be null; a completed result is
/// identical for every value of every field.
struct RunContext {
  /// Wall-clock guard, checked once per enumerated defense vector, gate
  /// or propagated BDD node, and every 256 tasks of a BDD build; throws
  /// DeadlineError (a LimitError).
  const Deadline* deadline = nullptr;

  /// Cooperative cancellation, checked where the deadline is; throws
  /// CancelledError.
  const CancelToken* cancel = nullptr;

  /// Scheduler for the kernels' task DAGs: naive shards, bottom-up
  /// sibling folds, BDD build and propagation. Null or a single-slot pool
  /// runs sequentially on the calling thread. analyze() builds one from
  /// AnalysisOptions::intra_model_threads when this is null;
  /// analyze_batch() lends the batch scheduler.
  TaskScheduler* pool = nullptr;

  /// Per-node front memo (node_memo.hpp) of the bottom-up and hybrid
  /// kernels: gate fronts found under their subtree content key are
  /// replayed, so a one-node edit recomputes only the dirty spine, and a
  /// spine gate whose child fronts the memo has folded before replays
  /// that fold. Models with Custom domains and witness runs bypass it;
  /// naive and BDDBU ignore it.
  NodeFrontMemo* memo = nullptr;

  /// Runs computing fewer nodes than this never engage \p pool: bottom-up
  /// counts the nodes it computes (only the dirty spine of a memoized
  /// run), BDDBU the ADT's nodes (a small ADT whose BDD turns out huge
  /// still engages the pool after the build). Tests set 0 to force the
  /// parallel paths on tiny models.
  std::size_t parallel_node_floor = 64;
};

struct AnalysisTrace {
  /// Per-node memo (bottom-up and hybrid): gates whose subtree key hit
  /// (their fronts replayed from the memo), and gates whose subtree key
  /// missed (computed, or replayed by value key, while the memo was
  /// active).
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  /// Computed gates replayed by value key (node_memo.hpp): the memo held
  /// the fold of their children's fronts, so they ran no combine.
  std::uint64_t memo_cutoffs = 0;

  /// Front operations (combines, staircase merges, points examined),
  /// summed over every arena the run used.
  CombineStats combine;

  /// Task-DAG counters of every scheduler run (zero when sequential).
  TaskRunStats sched;

  /// Widest scheduler any phase ran on (1 when sequential).
  unsigned threads_used = 1;

  /// Largest intermediate front: the p of BDDBU's O(|W| p^2) bound.
  std::size_t max_front_size = 0;

  // BDDBU, summed over the blobs of a hybrid run.
  double build_seconds = 0;        ///< ADT -> ROBDD translation
  double propagate_seconds = 0;    ///< front propagation over the BDD
  std::size_t bdd_size = 0;        ///< |W|: nodes reachable from the root
  std::size_t manager_nodes = 0;   ///< nodes allocated while building
  std::size_t max_level_width = 0; ///< nodes in the widest BDD level

  // Hybrid.
  std::size_t blob_count = 0;     ///< sub-DAGs handed to BDDBU
  std::size_t largest_blob = 0;   ///< ADT nodes of the largest blob
  std::size_t tree_combines = 0;  ///< gates combined tree-style

  bool operator==(const AnalysisTrace&) const = default;
};

}  // namespace adtp
