/// \file trace.hpp
/// \brief AnalysisTrace: what one analysis run did, kernel by kernel.
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
/// only the memo counts, and a decoded result carries a default trace
/// otherwise. Like AnalysisResult::seconds, a FrontCache hit returns the
/// original run's values.

#pragma once

#include <cstddef>
#include <cstdint>

#include "core/pareto.hpp"
#include "util/parallel.hpp"

namespace adtp {

struct AnalysisTrace {
  /// Per-node memo (bottom-up and hybrid): gate fronts replayed from the
  /// memo, and gate fronts computed while the memo was active.
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;

  /// Front operations (combines, staircase merges, points examined),
  /// summed over every arena the run used - caller-provided arenas count
  /// only this run's work.
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
