/// \file bdd_bu.hpp
/// \brief The BDD-based Pareto-front algorithm for DAG-shaped ADTs
///        (Algorithm 3; correct by Theorem 2).
///
/// The ADT's structure function is translated to an ROBDD under a
/// defense-first variable order; a Pareto front is then propagated
/// bottom-up over the (shared) BDD nodes, memoized per node, giving the
/// paper's O(|W| p^2) complexity. At attack-labeled nodes the front is a
/// singleton (no defense variable occurs below them - this is exactly why
/// Theorem 2 needs defense-first orders); at defense-labeled nodes the low
/// front is merged with the cost-shifted high front and pruned.
///
/// Intra-model parallelism: both phases compile into task DAGs for the
/// work-stealing TaskScheduler (util/parallel.hpp). Construction makes
/// every apply of every gate's balanced reduction tree a task
/// (bdd/build.cpp); propagation chunks contiguous runs of the
/// children-first node order into tasks of roughly task_grain_points of
/// estimated front work (attack-variable nodes always carry singleton
/// fronts, so vast low-work regions collapse into few tasks instead of
/// drowning the scheduler in per-node bookkeeping), each task depending
/// on the chunks holding its nodes' children - a chunk runs the moment
/// its producers finish, with no per-level barrier. Every node's front
/// is a pure function of its children's fronts, computed with the same
/// operations in the same (children-first) order whatever worker or
/// chunk runs it, so fronts and witnesses are bit-identical for every
/// pool width and grain; neither enters the FrontCache key.

#pragma once

#include <cstdint>
#include <optional>

#include "bdd/manager.hpp"
#include "bdd/order.hpp"
#include "core/attribution.hpp"
#include "core/pareto.hpp"
#include "core/trace.hpp"
#include "util/cancel.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace adtp {

struct BddBuOptions {
  /// Heuristic for the defense-first variable order.
  bdd::OrderHeuristic order_heuristic = bdd::OrderHeuristic::Dfs;

  /// Seed for OrderHeuristic::Random.
  std::uint64_t order_seed = 1;

  /// Node allocation guard for the manager (0 = manager default).
  std::size_t node_limit = 0;

  /// Aborts with LimitError when any intermediate front exceeds this many
  /// points (fronts are worst-case exponential, Fig. 4). 0 = unlimited.
  std::size_t max_front_points = 0;

  /// Explicit variable order; overrides order_heuristic when set.
  std::optional<bdd::VarOrder> order;

  /// Optional wall-clock guard, checked once per propagated BDD node;
  /// throws LimitError. (The translation phase is guarded by node_limit.)
  const Deadline* deadline = nullptr;

  /// Optional cooperative cancellation, checked once per propagated BDD
  /// node; throws CancelledError. analyze_batch() injects its token here.
  const CancelToken* cancel = nullptr;

  /// Optional external combine scratch space, reused across analyses (the
  /// sequential value-front path only; parallel runs and witness runs
  /// keep private per-slot arenas).
  FrontArena<ValuePoint>* arena = nullptr;

  /// Models smaller than this many ADT nodes never engage \p pool up
  /// front even when it offers more than one slot - per-node task
  /// bookkeeping costs more than a small model's whole analysis. A small
  /// ADT whose BDD turns out huge still engages it right after the
  /// build. Tests set 0 to force the parallel path on tiny models.
  std::size_t parallel_node_floor = 64;

  /// Work-estimate budget for one parallel propagation task: contiguous
  /// runs of the children-first BDD node order fold into a single task
  /// until their estimated front points (1 per attack-variable node -
  /// their fronts are always singletons - and a capped child sum per
  /// defense-variable node) reach this budget. This collapses the many
  /// near-empty tasks of low-work BDD regions into few substantial ones;
  /// 1 reproduces the old task-per-node graph. Per-node computation and
  /// order are unchanged, so results are bit-identical for every value
  /// and - like \p pool - the knob never enters the FrontCache key.
  std::size_t task_grain_points = 1024;

  /// Optional borrowed scheduler for BDD construction and task-DAG
  /// propagation, used once the model clears the floors above; null
  /// (default) or a single-slot pool runs both phases sequentially.
  /// Fronts and witnesses are bit-identical for every width (see the
  /// file comment), so, like \p arena, it never enters the FrontCache
  /// key. analyze() sets it from AnalysisOptions::intra_model_threads,
  /// hybrid_front() hands it to every blob run, and analyze_batch()
  /// injects the batch scheduler.
  TaskScheduler* pool = nullptr;
};

/// Algorithm 3 at the root of the ROBDD. Works for arbitrary (tree- or
/// DAG-shaped) ADTs. When \p trace is set, the run's counters (BDD size,
/// phase times, merges, scheduler) are added into it (trace.hpp).
[[nodiscard]] Front bdd_bu_front(const AugmentedAdt& aadt,
                                 const BddBuOptions& options = {},
                                 AnalysisTrace* trace = nullptr);

/// As bdd_bu_front(), with witness events attached to every point.
[[nodiscard]] WitnessFront bdd_bu_front_witness(
    const AugmentedAdt& aadt, const BddBuOptions& options = {});

/// Runs Algorithm 3 on an already-built BDD; exposed for callers that
/// manage their own Manager (e.g. the ordering-ablation bench). Always
/// sequential.
[[nodiscard]] Front bdd_bu_on_bdd(const AugmentedAdt& aadt,
                                  bdd::Manager& manager, bdd::Ref root,
                                  const bdd::VarOrder& order);

}  // namespace adtp
