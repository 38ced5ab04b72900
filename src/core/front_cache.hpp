/// \file front_cache.hpp
/// \brief A bounded, thread-safe LRU cache of analysis results, keyed on
///        model content rather than object identity.
///
/// Serving workloads re-analyze the same (model, attribution) pairs over
/// and over - parameter sweeps where only one attribution varies, fleets
/// with duplicated scenarios, interactive ADTool-style editing. A
/// FrontCache memoizes the full AnalysisResult for repeated pairs; lookup
/// keys are content hashes, so two independently built but structurally
/// identical models (same gates, agents, child wiring, leaf values and
/// domains - names are deliberately ignored) share an entry.
///
/// The key has three 64-bit components, compared exactly (a hash collision
/// on all three simultaneously is the only way to get a wrong hit; with
/// FNV-1a over 192 bits that is negligible, and the cache is advisory -
/// callers who cannot tolerate it leave the cache off):
///  - structure: the ADT's shape (gate types, agents, child lists, root),
///  - attribution: both domain kinds plus the dense per-leaf values,
///  - options: every AnalysisOptions result field - each field that can
///    change the result or whether a guard fires (algorithm choice, BDD
///    order, all limits). AnalysisOptions::run and intra_model_threads
///    are excluded: they never change a *completed* result. A hit may
///    therefore be served where a fresh run would have timed out - a
///    strict improvement, not an inconsistency.
///
/// Custom semirings are uncacheable (their hooks are opaque function
/// objects that cannot be content-hashed); cacheable() reports this and
/// analyze_batch() silently bypasses the cache for such models. Only
/// successful results are cached - failures are cheap to rediscover and
/// often depend on guards.
///
/// The entries live in one LruCache (util/lru_cache.hpp), the LRU the
/// per-node memo uses too. Two concurrency rules keep multi-worker
/// serving sane:
///  - insert() is first-writer-wins: a second insert under a live key
///    refreshes recency but keeps the first value (results are
///    deterministic functions of the key, so the values are identical
///    and replacement would only churn shared_ptrs). The bool return
///    tells layered caches (the persistent store) whether the entry is
///    new - only fresh entries are worth persisting.
///  - get_or_compute() single-flights misses: of N callers missing the
///    same key at once, exactly one runs its compute function; the rest
///    wait and then take its result as a hit (stats record them under
///    \c coalesced). When the computation throws, the key is released
///    and a waiter takes over. Every call counts exactly one of
///    {hit, miss}, however long it waited. A hit takes no single-flight
///    lock: the first lookup runs before it.
///
/// lookup() and insert() are virtual so a persistence layer can slot
/// underneath (store/persistent_cache.hpp) with get_or_compute()
/// inherited unchanged.
///
/// The in-process cache does not persist across processes; layer a
/// store::PersistentFrontCache on top for that.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "core/analyzer.hpp"
#include "util/lru_cache.hpp"

namespace adtp {

/// Content-derived cache key; see file comment for what each hash covers.
struct FrontCacheKey {
  std::uint64_t structure = 0;
  std::uint64_t attribution = 0;
  std::uint64_t options = 0;

  bool operator==(const FrontCacheKey&) const = default;
};

/// True iff results for \p aadt can be cached (no Custom domain). The
/// per-node memo (node_memo.hpp) follows the same rule.
[[nodiscard]] bool cacheable(const AugmentedAdt& aadt);

/// Builds the cache key for an analysis of \p aadt under \p options.
/// Precondition: cacheable(aadt); throws Error otherwise.
[[nodiscard]] FrontCacheKey front_cache_key(const AugmentedAdt& aadt,
                                            const AnalysisOptions& options);

/// Bounded LRU cache of AnalysisResults. All methods are thread-safe; the
/// LRU's mutex never covers a copy, and no lock covers a computation.
class FrontCache {
 public:
  /// \p capacity is the maximum number of entries; 0 disables the cache
  /// (every lookup misses, inserts are dropped).
  explicit FrontCache(std::size_t capacity = 256);
  virtual ~FrontCache();

  FrontCache(const FrontCache&) = delete;
  FrontCache& operator=(const FrontCache&) = delete;

  /// Returns the cached result and refreshes its recency, or nullopt.
  [[nodiscard]] virtual std::optional<AnalysisResult> lookup(
      const FrontCacheKey& key);

  /// Inserts \p result under \p key, evicting the least recently used
  /// entry when over capacity. First writer wins: when the key is
  /// already live the call only refreshes recency and returns false;
  /// true means the entry is new.
  virtual bool insert(const FrontCacheKey& key, const AnalysisResult& result);

  /// The outcome of get_or_compute().
  struct Served {
    AnalysisResult result;
    /// True: a hit, immediate or after waiting out another caller's
    /// computation of the key; this call's compute never ran.
    bool cached = false;
  };

  /// Single-flight lookup: returns the cached result, or runs \p compute
  /// with no lock held, inserts what it returns and returns that. Callers
  /// missing a key that another caller is computing wait for it and take
  /// its result as a hit. When \p compute throws, the key is released -
  /// one waiter becomes the computer - and the exception propagates.
  /// Exactly one of {hit, miss} is counted per call.
  [[nodiscard]] Served get_or_compute(
      const FrontCacheKey& key,
      const std::function<AnalysisResult()>& compute);

  /// Cumulative counters since construction or the last clear().
  struct Stats : LruStats {
    /// Hits (included in \c hits) that were resolved by waiting out
    /// another caller's in-flight computation of the same key.
    std::uint64_t coalesced = 0;
  };

  /// Never waits on get_or_compute(): a caller stuck in a slow lookup
  /// (a store retry backoff) does not hold up the counters.
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const noexcept {
    return memory_.capacity();
  }

  /// Drops every entry and resets the counters.
  void clear();

 private:
  struct KeyHash {
    std::size_t operator()(const FrontCacheKey& k) const noexcept;
  };

  LruCache<FrontCacheKey, AnalysisResult, KeyHash> memory_;

  /// Single-flight state, taken only after a lookup missed. Lock order:
  /// flight_mutex_ before the LRU's mutex (get_or_compute then calls the
  /// virtual lookup/insert while holding flight_mutex_ - for a
  /// PersistentFrontCache that span covers the repeated lookup's store
  /// read and a fresh entry's store write); nothing ever takes them the
  /// other way around.
  std::mutex flight_mutex_;
  std::condition_variable flight_cv_;
  std::unordered_set<FrontCacheKey, KeyHash> in_flight_;
  /// A waiter's repeated failed lookups each book a miss in memory_;
  /// all but the one that sticks are subtracted here. Atomic, like
  /// coalesced_, so stats() never takes flight_mutex_.
  std::atomic<std::uint64_t> uncounted_misses_{0};
  std::atomic<std::uint64_t> coalesced_{0};
};

}  // namespace adtp
