/// \file bottom_up.hpp
/// \brief The Bottom-Up Pareto-front algorithm for tree-shaped ADTs
///        (Algorithm 1, Table II; correct by Theorem 1).
///
/// Each node propagates a Pareto front of (defender value, attacker value)
/// pairs. At an attack-rooted subtree a pair (s, t) reads "if the defender
/// spends s inside this subtree, the attacker's cheapest way to make the
/// subtree succeed costs t"; at a defense-rooted subtree t is the
/// attacker's cheapest way to *defeat* the subtree. Leaves:
///   BAS a:  {(1_tensor_D, beta_A(a))}
///   BDS d:  {(1_tensor_D, 1_tensor_A), (beta_D(d), 1_oplus_A)}
/// Gates combine children's fronts with (tensor_D, op_A) where op_A follows
/// Table II, pruning dominated points after every combination (Lemma 2).
///
/// Intra-model parallelism: sibling subtrees of a tree are independent,
/// so the walk compiles into a task DAG - one task per node, edges gate
/// -> child - for the work-stealing TaskScheduler (util/parallel.hpp).
/// Every gate folds its children's fronts left to right exactly like the
/// sequential walk (the fold shape is fixed; arenas are scratch), so
/// fronts and witnesses are bit-identical for every thread count and the
/// pool stays out of the FrontCache key (docs/CONTRACTS.md).

#pragma once

#include <vector>

#include "core/attribution.hpp"
#include "core/pareto.hpp"
#include "core/trace.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace adtp {

class NodeFrontMemo;

/// Table II: the attacker-coordinate operator for a gate of type \p gate
/// owned by \p agent. The defender coordinate always uses tensor_D.
[[nodiscard]] AttackOp attack_op(GateType gate, Agent agent);

struct BottomUpOptions {
  /// Aborts with LimitError when any intermediate front exceeds this many
  /// points (fronts are worst-case exponential, Fig. 4). 0 = unlimited.
  std::size_t max_front_points = 0;

  /// Optional wall-clock guard, checked once per gate; throws LimitError.
  const Deadline* deadline = nullptr;

  /// Optional cooperative cancellation, checked once per gate; throws
  /// CancelledError. analyze_batch() injects its batch-wide token here.
  const CancelToken* cancel = nullptr;

  /// Optional external combine scratch space, reused across analyses (the
  /// sequential value-front path only; parallel runs and witness runs
  /// keep private per-slot arenas). Not thread-safe: at most one analysis
  /// may use an arena at a time. analyze_batch() hands each worker thread
  /// its own persistent arena so buffer recycling spans the whole batch.
  FrontArena<ValuePoint>* arena = nullptr;

  /// Runs that compute fewer than this many nodes always take the
  /// sequential walk even when \p pool offers more than one slot - the
  /// per-node task bookkeeping costs more than the whole walk. The count
  /// is every node of a cold run, but only the dirty spine of a memoized
  /// one (see \p memo), so a one-leaf edit of a large tree stays
  /// sequential and never runs (or starts) the scheduler. Tests set 0 to
  /// force the parallel path on tiny models.
  std::size_t parallel_node_floor = 64;

  /// Optional borrowed scheduler for the sibling-subtree task DAG: null
  /// (default) or a single-slot pool runs the plain sequential walk.
  /// Fronts and witnesses are bit-identical for every width (see the
  /// file comment), so, like \p arena, it never enters the FrontCache
  /// key. analyze() sets it from AnalysisOptions::intra_model_threads;
  /// analyze_batch() injects the batch scheduler.
  TaskScheduler* pool = nullptr;

  /// Optional per-node front memo (node_memo.hpp): gate fronts found
  /// under their subtree content key are replayed instead of recomputed,
  /// so a one-node edit re-analyzes only the root-ward dirty spine.
  /// Memoized fronts are bit-identical to a cold run by construction
  /// (docs/CONTRACTS.md), so this knob - like pool - never enters the
  /// FrontCache key. Models with Custom domains bypass it.
  /// analyze_incremental() and analyze_batch()'s shared-memo mode set it.
  NodeFrontMemo* memo = nullptr;
};

/// Algorithm 1 at the root. Requires aadt.adt().is_tree(); throws
/// ModelError otherwise (use bdd_bu_front() or unfold_to_tree()). When
/// \p trace is set, the run's counters are added into it (trace.hpp).
[[nodiscard]] Front bottom_up_front(const AugmentedAdt& aadt,
                                    const BottomUpOptions& options = {},
                                    AnalysisTrace* trace = nullptr);

/// As bottom_up_front(), with witness events attached to every point.
[[nodiscard]] WitnessFront bottom_up_front_witness(
    const AugmentedAdt& aadt, const BottomUpOptions& options = {});

/// Runs Algorithm 1 and returns the intermediate front of *every* node,
/// indexed by NodeId (the red per-node annotations of the paper's Fig. 7).
[[nodiscard]] std::vector<Front> bottom_up_all_fronts(
    const AugmentedAdt& aadt, const BottomUpOptions& options = {});

}  // namespace adtp
