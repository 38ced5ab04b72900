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
/// Two concurrency rules keep multi-worker serving sane:
///  - insert() is first-writer-wins: a second insert under a live key
///    refreshes recency but keeps the first value (results are
///    deterministic functions of the key, so the values are identical
///    and replacement would only churn shared_ptrs). The bool return
///    tells layered caches (the persistent store) whether the entry is
///    new - only fresh entries are worth persisting.
///  - lookup_or_reserve()/publish()/abandon() single-flight misses: of N
///    workers missing the same key at once, exactly one computes; the
///    rest block and then count as hits (stats record them under
///    \c coalesced, and every logical query counts exactly one of
///    {hit, miss} - waiters' provisional misses are uncounted when their
///    wait resolves).
///
/// lookup() and insert() are virtual so a persistence layer can slot
/// underneath (store/persistent_cache.hpp) with the single-flight
/// machinery inherited unchanged.
///
/// The in-process cache does not persist across processes; layer a
/// store::PersistentFrontCache on top for that.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/analyzer.hpp"

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

/// Bounded LRU cache of AnalysisResults. All methods are thread-safe (one
/// mutex; the critical sections copy a Front at worst, never analyze).
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

  /// The outcome of lookup_or_reserve().
  struct FlightLookup {
    /// Set on a hit (immediate or after waiting out another worker's
    /// computation of the same key).
    std::optional<AnalysisResult> result;
    /// True: the key is reserved for this caller, who MUST eventually
    /// call publish() or abandon() for it (or every later worker on the
    /// key blocks forever).
    bool must_compute = false;
  };

  /// Single-flight lookup: a hit returns it; the first worker to miss a
  /// key gets must_compute; further workers missing the same key block
  /// until the computer publishes (then take the hit) or abandons (then
  /// one of them becomes the computer). Exactly one of {hit, miss} is
  /// counted per call, however long the wait.
  [[nodiscard]] FlightLookup lookup_or_reserve(const FrontCacheKey& key);

  /// Completes a reservation with its computed result; wakes waiters.
  void publish(const FrontCacheKey& key, const AnalysisResult& result);

  /// Releases a reservation without a result (the computation failed);
  /// wakes waiters so another worker can take over.
  void abandon(const FrontCacheKey& key);

  /// Cumulative counters since construction or the last clear().
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    /// insert() calls that found the key live and kept the first value.
    std::uint64_t duplicate_inserts = 0;
    /// Hits (included in \c hits) that were resolved by waiting out
    /// another worker's in-flight computation of the same key.
    std::uint64_t coalesced = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;  ///< current size

    [[nodiscard]] double hit_rate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Drops every entry and resets the counters.
  void clear();

 private:
  struct KeyHash {
    std::size_t operator()(const FrontCacheKey& k) const noexcept;
  };
  /// Results are held behind shared_ptr so the mutex only ever guards
  /// pointer and list-node operations; the deep Front copy handed to the
  /// caller happens outside the lock (workers on the warm path would
  /// otherwise serialize on multi-thousand-point copies).
  using Entry =
      std::pair<FrontCacheKey, std::shared_ptr<const AnalysisResult>>;

  /// Subtracts \p n provisional misses (recorded by a waiter's repeated
  /// failed lookups) and, when \p coalesced, books the surviving hit as
  /// resolved-by-waiting.
  void settle_flight_stats(std::uint64_t n, bool coalesced);

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< most recent first
  std::unordered_map<FrontCacheKey, std::list<Entry>::iterator, KeyHash> map_;
  Stats stats_;

  /// Single-flight state. Lock order: flight_mutex_ before mutex_ (the
  /// flight methods call the virtual lookup/insert while holding
  /// flight_mutex_); nothing ever takes them the other way around.
  std::mutex flight_mutex_;
  std::condition_variable flight_cv_;
  std::unordered_set<FrontCacheKey, KeyHash> in_flight_;
};

}  // namespace adtp
