/// \file naive.hpp
/// \brief The Naive Pareto-front algorithm (Algorithm 2).
///
/// Enumerates every defense vector delta, computes the attacker's optimal
/// response rho(delta) by enumerating every attack vector (Definition 7),
/// and minimizes the resulting value pairs under Definition 9 dominance.
/// Exact for arbitrary DAG-shaped ADTs but exponential in |D| + |A|; it is
/// the correctness oracle for the other algorithms and the baseline of the
/// paper's experiments.
///
/// Intra-model parallelism: the 2^|D| delta space is embarrassingly
/// parallel, so the enumeration shards it across RunContext::pool.
/// Results are *identical* for every thread count: the per-delta values
/// are computed independently of the sharding, enumerate_feasible_events
/// writes disjoint slices of one delta-ordered vector, and the front paths
/// minimize per-shard staircases that are then reduced pairwise in shard
/// order - dominance minimization only selects among the same value pairs,
/// so no floating-point recombination depends on the shard layout. The
/// witness path shards the same way (it no longer materializes the event
/// vector); stable minimization makes "smallest delta wins" the tie rule
/// among equal value pairs, so even the kept witnesses are bit-identical
/// for every thread count. The deadline and cancel token of the
/// RunContext are checked once per enumerated defense vector.

#pragma once

#include <optional>
#include <vector>

#include "core/attribution.hpp"
#include "core/pareto.hpp"
#include "core/trace.hpp"

namespace adtp {

struct NaiveOptions {
  /// Refuses instances with |D| + |A| above this (the enumeration would
  /// run forever); throws LimitError.
  std::size_t max_bits = 30;
};

/// One row of the feasible-event set S (Definition 8): a defense vector
/// and the attacker's optimal response (nullopt when no successful attack
/// exists, the paper's "rho(delta) = circumflex" case).
struct FeasibleEvent {
  BitVec defense;
  std::optional<BitVec> response;
  double defense_value = 0;  ///< beta-hat_D(delta)
  double attack_value = 0;   ///< beta-hat_A(rho(delta)), or 1_oplus_A
};

/// Computes the full feasible-event set S, one entry per defense vector,
/// in ascending binary order of delta.
[[nodiscard]] std::vector<FeasibleEvent> enumerate_feasible_events(
    const AugmentedAdt& aadt, const NaiveOptions& options = {},
    const RunContext& run = {});

/// Algorithm 2: the Pareto front min_dominance(beta-hat(S)). When
/// \p trace is set, the shard count, scheduler counters and front size
/// are added into it (trace.hpp).
[[nodiscard]] Front naive_front(const AugmentedAdt& aadt,
                                const NaiveOptions& options = {},
                                const RunContext& run = {},
                                AnalysisTrace* trace = nullptr);

/// As naive_front(), with witness events attached to every point.
[[nodiscard]] WitnessFront naive_front_witness(
    const AugmentedAdt& aadt, const NaiveOptions& options = {},
    const RunContext& run = {});

}  // namespace adtp
