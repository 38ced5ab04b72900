/// \file hybrid.hpp
/// \brief Modular hybrid analyzer (the paper's future-work extension).
///
/// Combines the strengths of the two exact algorithms: wherever the ADT is
/// locally tree-shaped the cheap Bottom-Up combination of child fronts is
/// used (sound because each child is an independent module, so Lemma 1's
/// disjointness argument applies); wherever sharing is confined inside a
/// sub-DAG, that whole "blob" is analyzed with BDDBU and its front is
/// treated as a leaf front. On a tree this degenerates to Algorithm 1, on
/// a fully entangled DAG to Algorithm 3; in between it analyzes each shared
/// region with a *smaller* BDD than the global one.
///
/// hybrid_front lives in core/bottom_up.cpp: it marks the blobs
/// (adt/modules.hpp) and runs Algorithm 1's one walk with them as extra
/// leaves, so the tree part shares bottom-up's fold, its dirty-spine
/// memo plan (keyed by hybrid_memo_context) and its explicit stack - no
/// recursion, however deep the model. The walk stays sequential and
/// checks the deadline and cancel token once per node; every blob's
/// bdd_bu_front run gets the walker's RunContext, so all blobs borrow its
/// one pool (each subject to BDDBU's floors) and its guards. Tree-style combines are unlimited: HybridOptions limits only
/// the blobs.

#pragma once

#include "core/attribution.hpp"
#include "core/bdd_bu.hpp"
#include "core/pareto.hpp"
#include "core/trace.hpp"

namespace adtp {

struct HybridOptions {
  /// Options forwarded to the per-blob BDDBU runs.
  BddBuOptions bdd;
};

/// Computes the Pareto front of an arbitrary ADT by modular decomposition.
/// When \p trace is set, the run's counters are added into it: the
/// tree-style walk adds its own combines and every blob's BDDBU run adds
/// its own (trace.hpp).
[[nodiscard]] Front hybrid_front(const AugmentedAdt& aadt,
                                 const HybridOptions& options = {},
                                 const RunContext& run = {},
                                 AnalysisTrace* trace = nullptr);

}  // namespace adtp
