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
/// parallel, so the enumeration shards it across NaiveOptions::pool.
/// Results are *identical* for every thread count: the per-delta values
/// are computed independently of the sharding, enumerate_feasible_events
/// writes disjoint slices of one delta-ordered vector, and the front paths
/// minimize per-shard staircases that are then reduced pairwise in shard
/// order - dominance minimization only selects among the same value pairs,
/// so no floating-point recombination depends on the shard layout. The
/// witness path shards the same way (it no longer materializes the event
/// vector); stable minimization makes "smallest delta wins" the tie rule
/// among equal value pairs, so even the kept witnesses are bit-identical
/// for every thread count.

#pragma once

#include <optional>
#include <vector>

#include "core/attribution.hpp"
#include "core/pareto.hpp"
#include "core/trace.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace adtp {

class TaskScheduler;  // util/parallel.hpp

struct NaiveOptions {
  /// Refuses instances with |D| + |A| above this (the enumeration would
  /// run forever); throws LimitError.
  std::size_t max_bits = 30;

  /// Optional wall-clock guard: when set and expired mid-run, throws
  /// LimitError (the paper similarly caps runs at 10^4 seconds).
  const Deadline* deadline = nullptr;

  /// Optional cooperative cancellation: when set mid-run, throws
  /// CancelledError. Checked once per enumerated defense vector, like the
  /// deadline. analyze_batch() injects its batch-wide token here.
  const CancelToken* cancel = nullptr;

  /// Optional borrowed scheduler sharding the 2^|D| delta enumeration:
  /// null (default) runs sequentially on the calling thread; otherwise
  /// the enumeration splits into up to pool->threads() shards, clamped
  /// by the number of deltas and the per-shard work floor. The result is
  /// identical for every width (see the file comment), so the pool never
  /// enters the FrontCache key. analyze() sets it from
  /// AnalysisOptions::intra_model_threads; analyze_batch() injects the
  /// batch scheduler for items that ask for no width of their own.
  TaskScheduler* pool = nullptr;
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
    const AugmentedAdt& aadt, const NaiveOptions& options = {});

/// Algorithm 2: the Pareto front min_dominance(beta-hat(S)). When
/// \p trace is set, the shard count, scheduler counters and front size
/// are added into it (trace.hpp).
[[nodiscard]] Front naive_front(const AugmentedAdt& aadt,
                                const NaiveOptions& options = {},
                                AnalysisTrace* trace = nullptr);

/// As naive_front(), with witness events attached to every point.
[[nodiscard]] WitnessFront naive_front_witness(
    const AugmentedAdt& aadt, const NaiveOptions& options = {});

}  // namespace adtp
