/// \file persistent_cache.hpp
/// \brief The in-process FrontCache layered over a crash-safe FrontStore.
///
/// A PersistentFrontCache behaves exactly like the FrontCache it
/// subclasses - same lookup/insert/get_or_compute surface, so
/// analyze_batch() and the serving daemon take it through a plain
/// FrontCache* - with a disk tier underneath:
///
///   lookup: memory -> store (decode, promote to memory) -> miss
///   insert: memory first; a *fresh* entry is also encoded and appended
///           to the store (first-writer-wins upstream means each result
///           is persisted once). With memory_capacity 0 the memory tier
///           never reports an entry fresh, so every insert reaches the
///           store, whose own duplicate check keeps the first write.
///
/// get_or_compute() runs its first lookup() before it takes
/// FrontCache's single-flight mutex, so hits - memory or store - never
/// wait on one another. Only a key found in neither tier takes it: the
/// repeated lookup and the store write of the computed result serialize
/// the missing callers. stats() never waits on it.
///
/// The store is strictly advisory. The constructor never throws for
/// store trouble, and no store failure ever surfaces to an analysis
/// caller: transient I/O errors (IoError/StoreError with the transient
/// flag) are retried with bounded exponential backoff; a permanent
/// error, or transient ones beyond the retry budget, *degrade* the cache
/// to memory-only - the store is dropped, on_store_error is told why,
/// and every later call behaves like a plain FrontCache. Analysis never
/// fails because persistence did (docs/CONTRACTS.md contract 5). The
/// backoff sleeps with no lock held: the store is reached through a
/// shared_ptr snapshot (the FrontStore is internally synchronized), so
/// one key's retry storm never serializes lookups on other keys - the
/// internal mutex only guards the pointer swap and the counters.
///
/// Follower mode (store.mode = AttachMode::Follower) attaches the store
/// read-only for daemon fleets sharing one directory: lookups are
/// served from disk as usual, fresh inserts stay memory-only instead of
/// appending, refresh() follows the writer's appends, and promote()
/// takes over a dead writer's lease - after which inserts persist
/// again (the write-skip consults the store's live mode, not the
/// construction flag).
///
/// A payload the store serves has already passed its checksums; decode
/// failures (version skew, codec bugs) are counted and treated as
/// misses, never served and never fatal.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/front_cache.hpp"
#include "store/shard.hpp"
#include "util/adaptive_mutex.hpp"

namespace adtp::store {

struct PersistentCacheOptions {
  /// Capacity of the in-memory FrontCache tier; 0 disables it (every
  /// lookup reads the store, and inserts still persist).
  std::size_t memory_capacity = 256;
  /// Passed through to the FrontStore (seam, attach mode, bounds,
  /// compaction). store.mode = AttachMode::Follower attaches read-only;
  /// see the file comment. The writer lease stays with some other
  /// process until promote().
  StoreOptions store;
  /// Transient store failures are retried this many times per operation
  /// before the cache degrades to memory-only.
  int max_retries = 3;
  /// Total grace period for a *transient* open failure at construction
  /// before degrading - a follower attaching moments before the writer
  /// has initialized the directory sees exactly that. 0 degrades on the
  /// first failure (the pre-fleet behavior).
  double open_retry_seconds = 0;
  /// First retry backoff; doubles on each further retry.
  double retry_backoff_seconds = 0.001;
  /// Called (with a reason) when the store degrades to memory-only and
  /// on non-fatal anomalies (decode failures). Invoked under an internal
  /// lock: keep it cheap and do not call back into the cache.
  std::function<void(const std::string&)> on_store_error;
};

/// Counters for the persistence tier (the memory tier keeps its own
/// FrontCache::Stats; a store hit is a memory miss there).
struct PersistentCacheStats {
  std::uint64_t store_hits = 0;    ///< lookups served from disk
  std::uint64_t store_writes = 0;  ///< fresh entries appended
  std::uint64_t store_errors = 0;  ///< errors observed (retried included)
  std::uint64_t retries = 0;       ///< transient errors retried
  std::uint64_t decode_failures = 0;
  bool degraded = false;  ///< store dropped; memory-only from then on
};

class PersistentFrontCache final : public FrontCache {
 public:
  /// Opens (creating or recovering) the store under \p dir. Store
  /// failure here does not throw: the cache starts degraded.
  explicit PersistentFrontCache(std::string dir,
                                PersistentCacheOptions options = {});
  ~PersistentFrontCache() override;

  [[nodiscard]] std::optional<AnalysisResult> lookup(
      const FrontCacheKey& key) override;
  bool insert(const FrontCacheKey& key, const AnalysisResult& result) override;

  /// True while the store tier is alive (not degraded).
  [[nodiscard]] bool persistent() const;
  /// True while attached as a (non-degraded) read-only follower.
  [[nodiscard]] bool follower() const;
  [[nodiscard]] PersistentCacheStats persistence_stats() const;
  /// What recovery found at open; nullopt when the store never opened.
  [[nodiscard]] std::optional<RecoveryReport> recovery() const;
  [[nodiscard]] std::optional<StoreStats> store_stats() const;

  /// Follower only: picks up entries the writer committed since attach
  /// or the last refresh (transient trouble retried as usual). Returns
  /// nullopt when degraded; a no-op {} on a writer-mode cache.
  std::optional<RefreshReport> refresh();
  /// Follower only: tries to take over the writer lease. False while
  /// the previous writer still holds it (poll again later) or when
  /// degraded - a failed promotion never degrades the cache, which
  /// keeps serving as a follower.
  bool promote();

 private:
  /// The store under a shared_ptr so operations (and their backoff
  /// sleeps) run without store_mutex_; a concurrent degrade cannot free
  /// the store out from under a caller holding a snapshot.
  [[nodiscard]] std::shared_ptr<FrontStore> snapshot() const;
  /// Runs \p fn(store) with transient-failure retry (sleeping with no
  /// lock held); returns nullopt after degrading. Call with NO lock.
  template <typename Fn>
  auto with_retry(const char* doing, Fn&& fn)
      -> std::optional<decltype(fn(std::declval<FrontStore&>()))>;
  /// Drops the store and flips to memory-only. store_mutex_ must be held.
  void degrade_locked(const std::string& why);
  void note(const std::string& what);

  PersistentCacheOptions options_;
  mutable AdaptiveMutex store_mutex_;
  std::shared_ptr<FrontStore> store_;  ///< null once degraded
  PersistentCacheStats pstats_;
  std::optional<RecoveryReport> recovery_;
};

}  // namespace adtp::store
