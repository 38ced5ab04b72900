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
/// work-stealing TaskScheduler (util/parallel.hpp) of RunContext::pool.
/// Construction makes every apply of every gate's balanced reduction tree
/// a task (bdd/build.cpp); propagation chunks contiguous runs of the
/// children-first node order into tasks of roughly 1024 estimated front
/// points (attack-variable nodes always carry singleton fronts, so vast
/// low-work regions collapse
/// into few tasks instead of drowning the scheduler in per-node
/// bookkeeping), each task depending on the chunks holding its nodes'
/// children - a chunk runs the moment its producers finish, with no
/// per-level barrier. Every node's front is a pure function of its
/// children's fronts, computed with the same operations in the same
/// (children-first) order whatever worker or chunk runs it, so fronts and
/// witnesses are bit-identical for every pool width, and the pool never
/// enters the FrontCache key. The deadline and cancel token are checked
/// once per propagated BDD node (the translation phase is guarded by
/// node_limit).

#pragma once

#include <cstdint>
#include <optional>

#include "bdd/manager.hpp"
#include "bdd/order.hpp"
#include "core/attribution.hpp"
#include "core/pareto.hpp"
#include "core/trace.hpp"

namespace adtp {

class Fnv1a;  // util/hash.hpp

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
};

/// Hashes every BddBuOptions field into \p h, in declaration order: the
/// FrontCache key and the hybrid memo context both call this, so a new
/// field is hashed in one place.
void hash_result_fields(Fnv1a& h, const BddBuOptions& options);

/// The variable order a BDDBU run over \p adt uses: options.order when
/// set, else the defense-first order of options.order_heuristic.
[[nodiscard]] bdd::VarOrder resolve_order(const Adt& adt,
                                          const BddBuOptions& options);

/// Algorithm 3 at the root of the ROBDD. Works for arbitrary (tree- or
/// DAG-shaped) ADTs. When \p trace is set, the run's counters (BDD size,
/// phase times, merges, scheduler) are added into it (trace.hpp).
[[nodiscard]] Front bdd_bu_front(const AugmentedAdt& aadt,
                                 const BddBuOptions& options = {},
                                 const RunContext& run = {},
                                 AnalysisTrace* trace = nullptr);

/// As bdd_bu_front(), with witness events attached to every point.
[[nodiscard]] WitnessFront bdd_bu_front_witness(
    const AugmentedAdt& aadt, const BddBuOptions& options = {},
    const RunContext& run = {});

/// Runs Algorithm 3 on an already-built BDD; exposed for callers that
/// manage their own Manager (core/relevance runs it on one BDD and on
/// each defense's cofactor). Always sequential.
[[nodiscard]] Front bdd_bu_on_bdd(const AugmentedAdt& aadt,
                                  bdd::Manager& manager, bdd::Ref root,
                                  const bdd::VarOrder& order);

}  // namespace adtp
