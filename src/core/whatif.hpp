/// \file whatif.hpp
/// \brief Counterfactual ("what-if") analysis: fronts of single-step
///        deletions, served from a shared per-node front memo.
///
/// A counterfactual variant asks "what does the Pareto front become if
/// one basic step disappears?" - a defense that was decommissioned, an
/// attack capability that was patched away. Deleting a basic step b is
/// fixing its structure-function variable to false and constant-folding:
/// an AND with a false child is false, an OR drops false children (and is
/// false once all are gone), an INH with a false inhibited child is false
/// and with a false trigger collapses to its inhibited child. The fold is
/// exact - the variant's structure function equals the original's with
/// x_b := false - so the variant front is the true front of the reduced
/// model.
///
/// counterfactual_sweep() builds every single-deletion variant and
/// analyzes them all against ONE shared NodeFrontMemo (node_memo.hpp):
/// each variant differs from the baseline along one leaf-to-root spine,
/// so every untouched subtree front is computed once - by the baseline -
/// and replayed by every variant that contains it. The sweep then ranks
/// the steps by how much their deletion moves the front (front_shift),
/// giving a criticality ordering of the model's basic steps.
///
/// Determinism: variants are built and analyzed in a fixed order
/// (ascending NodeId) and the memo replays bit-identical fronts, so the
/// report - fronts, shifts, ranking - is identical for every thread count
/// and whether or not the memo is shared (docs/CONTRACTS.md).

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.hpp"

namespace adtp {

/// Returns the model with basic step \p leaf deleted (its variable fixed
/// to false and the structure constant-folded), or std::nullopt when the
/// fold collapses the whole root to false - the "trivial" variant where
/// no attack ever succeeds (deleting a defense never causes this; losing
/// an attack step can). Throws ModelError if \p leaf is not a basic step.
///
/// The surviving nodes keep their names, agents and attribute values, so
/// untouched subtrees hash identically (node_memo.hpp) and their memoized
/// fronts are shared between the original and the variant.
[[nodiscard]] std::optional<AugmentedAdt> with_basic_step_removed(
    const AugmentedAdt& aadt, NodeId leaf);

/// Convenience overload by leaf name.
[[nodiscard]] std::optional<AugmentedAdt> with_basic_step_removed(
    const AugmentedAdt& aadt, const std::string& name);

/// Outcome of one single-deletion variant.
struct CounterfactualVariant {
  NodeId node = kNoNode;  ///< the deleted basic step (baseline NodeId)
  std::string name;       ///< its name
  Agent agent = Agent::Attacker;
  bool ok = false;        ///< analysis succeeded (also true when trivial)
  /// True iff the deletion collapsed the root to constant false: no
  /// attack succeeds at all. \p front is empty and front_shift is 1.
  bool trivial = false;
  Front front;        ///< the variant's Pareto front (empty iff trivial)
  std::string error;  ///< exception message iff !ok
  /// Criticality: 1 - |shared points| / max(|baseline|, |variant|),
  /// where points are compared bit-identically. 0 = deletion changed
  /// nothing, 1 = no point survived.
  double front_shift = 0;
  /// Points in exactly one of the two fronts (symmetric difference).
  std::size_t points_changed = 0;
  double seconds = 0;  ///< build + analysis wall-clock for this variant
};

/// Outcome of a whole sweep.
struct CounterfactualReport {
  AnalysisResult baseline;  ///< the unmodified model's front
  /// One entry per basic step, ascending baseline NodeId.
  std::vector<CounterfactualVariant> variants;
  /// Indices into \p variants, most critical first (front_shift
  /// descending, name ascending as the deterministic tie-break).
  std::vector<std::size_t> ranking;
  std::uint64_t memo_hits = 0;    ///< summed over baseline + variants
  std::uint64_t memo_misses = 0;  ///< ditto
  double seconds = 0;             ///< wall-clock for the whole sweep
};

/// Analyzes the baseline and every single-deletion variant with
/// \p options, sharing one per-node front memo across all of them. The
/// algorithm resolves as in analyze_incremental(). options.run.memo is
/// the shared memo; null (default) makes the sweep create a private one
/// sized for the model. Pass a long-lived memo to share fronts across
/// sweeps (the interactive what-if workload).
[[nodiscard]] CounterfactualReport counterfactual_sweep(
    const AugmentedAdt& aadt, const AnalysisOptions& options = {});

}  // namespace adtp
