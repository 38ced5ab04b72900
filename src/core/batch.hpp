/// \file batch.hpp
/// \brief Job-based batch serving over many AADTs (the many-scenarios
///        workload).
///
/// analyze_batch() runs analyze() over a span of BatchJobs - each item
/// carries its own model *and* its own AnalysisOptions - as one task
/// graph on a work-stealing TaskScheduler (util/parallel.hpp). Each item
/// gets its own wall-clock timing and error capture - one model blowing
/// a resource guard (LimitError) or failing validation never affects its
/// batch neighbours. The items *share* the scheduler with their own
/// intra-model phases (naive shards, bottom-up sibling folds,
/// BDD build/propagate tasks): an oversized item fans its tasks out over
/// whatever slots are idle, and work stealing balances items against
/// shards with no hand-tuned thread split.
///
/// Serving features (all opt-in via BatchOptions):
///  - Deadline: a wall-clock budget for the whole batch. Items not yet
///    started when it expires are skipped; items in flight observe it
///    through the per-analysis guards (the batch fills in each job's
///    options.run.deadline), so a stuck item stops instead of running the
///    clock out. A job that sets its own run.deadline/run.cancel keeps it
///    in flight - an explicit per-item guard deliberately overrides the
///    batch's; the batch guards still gate that item's start.
///  - Cancellation: a caller-owned CancelToken, polled between items and
///    inside the analysis kernels. Callable from another thread or from
///    the on_item callback ("stop after the first failure").
///  - Streaming: on_item fires as each item completes, before the batch
///    drains. Invocations are serialized (no locking needed inside the
///    callback) and their order is recorded in BatchReport::
///    completion_order.
///  - Caching: a FrontCache memoizes successful results keyed on model
///    content + options, so repeated (model, attribution) pairs are served
///    without recomputation. The cache outlives the batch; share one
///    across batches for a warm serving loop.
///
/// Determinism: item i's result is identical to calling analyze(*jobs[i]
/// .model, jobs[i].options) sequentially; only the execution order across
/// items (and hence completion_order) varies with n_threads. A cache hit
/// returns the stored result of an identically-keyed run, preserving this
/// guarantee.

#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/front_cache.hpp"
#include "util/cancel.hpp"

namespace adtp {

/// One unit of serving work: a borrowed model plus the options to analyze
/// it with. The model must outlive the analyze_batch() call.
struct BatchJob {
  const AugmentedAdt* model = nullptr;
  AnalysisOptions options;
};

/// Outcome of one batch item. Exactly one of ok/error is meaningful:
/// when ok is false, \p error holds the exception message and \p result
/// is default-constructed.
struct BatchItem {
  /// Position in the input span. Redundant with the item's slot in
  /// BatchReport::items, but kept so items stay traceable when callers
  /// copy them out, sort by time, or collect only the failures.
  std::size_t index = 0;
  bool ok = false;
  /// True iff the result was served from the FrontCache (ok is also true;
  /// result.seconds still reports the original computation's time).
  bool cached = false;
  /// Per-node memo counters of this item's analysis (zero for FrontCache
  /// hits - a whole-result hit never reaches the kernels - and for items
  /// without a memo).
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  /// True iff the item never started: the batch deadline had expired or
  /// the batch was cancelled before a worker claimed it (ok is false and
  /// error says which).
  bool skipped = false;
  AnalysisResult result;  ///< valid iff ok
  std::string error;      ///< exception message iff !ok
  double seconds = 0;     ///< wall-clock for this item (even on failure)
};

/// Batch-wide serving knobs; default-constructed it behaves like the
/// plain parallel batch of old.
struct BatchOptions {
  /// Scheduler width (0 = std::thread::hardware_concurrency(), also
  /// overridable via the ADTP_THREADS environment variable). Never
  /// clamped to the batch size: the scheduler is lent to every item's
  /// intra-model phases (its options.run.pool), so surplus slots serve
  /// an oversized item's own tasks - a huge naive enumeration, one giant
  /// tree's sibling folds, a big DAG's BDD build + propagate - instead of
  /// idling. Items that set intra_model_threads (analyze() then builds
  /// the item its own scheduler) or run.pool themselves keep their own
  /// setting; results are unaffected either way (intra-model parallelism
  /// is deterministic).
  unsigned n_threads = 0;

  /// Wall-clock budget for the whole batch in seconds; <= 0 means none.
  double deadline_seconds = 0;

  /// Optional caller-owned cancellation token; see the file comment.
  const CancelToken* cancel = nullptr;

  /// Streaming callback, invoked once per item as it completes (ok,
  /// failed, or skipped alike). Invocations are serialized across workers.
  /// Exceptions are captured into BatchReport::callback_error and disable
  /// further callbacks; they do not abort the batch.
  std::function<void(const BatchItem&)> on_item;

  /// Optional shared result cache; nullptr disables caching. Models with
  /// Custom semiring domains bypass the cache (see front_cache.hpp).
  FrontCache* cache = nullptr;

  /// Optional shared per-node front memo (node_memo.hpp), filled into
  /// every item's options.run.memo: items that are edited
  /// variants of each other - the interactive serving workload - share
  /// every untouched subtree front across the batch (and across batches,
  /// when the memo outlives them). The memo is thread-safe; items fill
  /// and consult it concurrently. Results are unaffected (a memo hit is
  /// bit-identical to recomputation), so this knob - unlike the model
  /// content - never enters the FrontCacheKey. Items that set their own
  /// run.memo keep it.
  NodeFrontMemo* memo = nullptr;
};

/// Outcome of a whole batch run.
struct BatchReport {
  std::vector<BatchItem> items;  ///< one per input, in input order
  std::size_t failures = 0;      ///< number of items with !ok (incl. skipped)
  std::size_t skipped = 0;       ///< items never started (deadline/cancel)
  std::size_t cache_hits = 0;    ///< items served from the FrontCache
  std::uint64_t memo_hits = 0;   ///< summed per-node memo hits of all items
  std::uint64_t memo_misses = 0; ///< summed per-node memo misses
  /// Item indices in the order they completed (= the on_item invocation
  /// order). A permutation of [0, items.size()).
  std::vector<std::size_t> completion_order;
  /// True iff the batch deadline actually affected an item (skipped it or
  /// aborted it in flight) - not merely that the clock crossed the budget
  /// at some point; a batch whose last item finishes just inside the
  /// budget reports false.
  bool deadline_expired = false;
  /// True iff the cancel token was observed set while items remained
  /// (skipped or aborted at least one); same latched semantics.
  bool cancelled = false;
  /// First exception message thrown by on_item, empty if none. Further
  /// callbacks are suppressed once set.
  std::string callback_error;
  unsigned threads_used = 1;  ///< scheduler slots serving the batch
  /// Scheduler counters of the batch run: item tasks plus every shared
  /// intra-model task the items nested onto the scheduler.
  TaskRunStats sched;
  double seconds = 0;  ///< wall-clock for the whole batch

  /// Completed (ok) models per second of batch wall-clock. Caveat: the
  /// numerator excludes failed items but the denominator includes the
  /// wall-clock they consumed before failing, so a batch with expensive
  /// failures under-reports sustained throughput of the successes. Use
  /// items_per_second() for an all-items rate.
  [[nodiscard]] double trees_per_second() const {
    if (seconds <= 0) return 0.0;
    return static_cast<double>(items.size() - failures) / seconds;
  }

  /// All items (successes and failures) per second of batch wall-clock -
  /// the fair rate when failures consume meaningful time.
  [[nodiscard]] double items_per_second() const {
    if (seconds <= 0) return 0.0;
    return static_cast<double>(items.size()) / seconds;
  }
};

/// Serves every job in \p jobs per \p options. Null model pointers in the
/// span are reported as failed items.
[[nodiscard]] BatchReport analyze_batch(std::span<const BatchJob> jobs,
                                        const BatchOptions& options = {});

/// Convenience: every model analyzed with the same \p analysis options,
/// with full serving knobs.
[[nodiscard]] BatchReport analyze_batch(const std::vector<AugmentedAdt>& models,
                                        const AnalysisOptions& analysis,
                                        const BatchOptions& options);

}  // namespace adtp
