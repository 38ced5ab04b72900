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
/// pool stays out of the FrontCache key (docs/CONTRACTS.md). The walk
/// takes the scheduler only when the nodes it computes clear
/// RunContext::parallel_node_floor; with RunContext::memo set it computes
/// only the dirty spine of an edit, and checks the deadline and cancel
/// token once per gate.

#pragma once

#include <vector>

#include "core/attribution.hpp"
#include "core/pareto.hpp"
#include "core/trace.hpp"

namespace adtp {

/// Table II: the attacker-coordinate operator for a gate of type \p gate
/// owned by \p agent. The defender coordinate always uses tensor_D.
[[nodiscard]] AttackOp attack_op(GateType gate, Agent agent);

struct BottomUpOptions {
  /// Aborts with LimitError when any intermediate front exceeds this many
  /// points (fronts are worst-case exponential, Fig. 4). 0 = unlimited.
  std::size_t max_front_points = 0;
};

/// Algorithm 1 at the root. Requires aadt.adt().is_tree(); throws
/// ModelError otherwise (use bdd_bu_front() or unfold_to_tree()). When
/// \p trace is set, the run's counters are added into it (trace.hpp).
[[nodiscard]] Front bottom_up_front(const AugmentedAdt& aadt,
                                    const BottomUpOptions& options = {},
                                    const RunContext& run = {},
                                    AnalysisTrace* trace = nullptr);

/// As bottom_up_front(), with witness events attached to every point.
/// Never consults run.memo, which holds value fronts only.
[[nodiscard]] WitnessFront bottom_up_front_witness(
    const AugmentedAdt& aadt, const BottomUpOptions& options = {},
    const RunContext& run = {});

/// Runs Algorithm 1 and returns the intermediate front of *every* node,
/// indexed by NodeId (the red per-node annotations of the paper's Fig. 7).
[[nodiscard]] std::vector<Front> bottom_up_all_fronts(
    const AugmentedAdt& aadt, const BottomUpOptions& options = {},
    const RunContext& run = {});

}  // namespace adtp
