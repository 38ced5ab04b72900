/// \file lru_cache.hpp
/// \brief A bounded, thread-safe, first-writer-wins LRU map: the one
///        eviction policy behind every in-process cache.
///
/// FrontCache's memory tier (whole analysis results), NodeFrontMemo
/// (per-node value fronts) and the daemon's reply memo (request bytes
/// to reply lines, serve/daemon.hpp) are each an LruCache.
/// Every instance keeps three rules:
///  - Bounded: at most capacity() entries; an insert past the bound
///    evicts the least recently used entry. Capacity 0 disables the
///    cache: every lookup misses and every insert is dropped uncounted.
///  - First writer wins: an insert under a live key keeps the stored
///    value and only refreshes its recency. The caches hold
///    deterministic functions of their keys, so the second value equals
///    the first and replacing it would only churn allocations. insert()
///    reports whether the entry is new.
///  - Short critical sections: values live behind shared_ptr, so the one
///    mutex guards pointer and list-node operations only. The deep copy
///    a lookup hands out, the copy an insert stores and the frees of
///    evicted or cleared values all run outside it. The mutex is an
///    AdaptiveMutex (util/adaptive_mutex.hpp): a waiter spins through
///    such a section instead of sleeping and being woken. find() and
///    the shared insert() hand the pointer itself out and in, so one
///    value can sit under several keys (the node memo files a gate's
///    front under its subtree key and its value key).

#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "util/adaptive_mutex.hpp"

namespace adtp {

/// Cumulative counters of one LruCache since construction or the last
/// clear().
struct LruStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  /// insert() calls that found the key live and kept the first value.
  std::uint64_t duplicate_inserts = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;  ///< current size

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Bounded LRU map from \p K to \p V; see the file comment. All methods
/// are thread-safe.
template <typename K, typename V, typename Hash>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// On a hit, refreshes the entry's recency and returns its value;
  /// null on a miss.
  [[nodiscard]] std::shared_ptr<const V> find(const K& key) {
    const std::lock_guard<AdaptiveMutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }

  /// On a hit, refreshes the entry's recency, copies its value into
  /// \p out and returns true.
  [[nodiscard]] bool lookup(const K& key, V& out) {
    const std::shared_ptr<const V> hit = find(key);
    if (hit == nullptr) return false;
    out = *hit;
    return true;
  }

  /// Stores a copy of \p value under \p key; see the shared overload.
  bool insert(const K& key, const V& value) {
    if (capacity_ == 0) return false;
    return insert(key, std::make_shared<const V>(value));
  }

  /// Stores \p value under \p key and returns true, evicting the least
  /// recently used entry when over capacity. When the key is live, only
  /// its recency moves and the call returns false. Several keys may
  /// share one value.
  bool insert(const K& key, std::shared_ptr<const V> value) {
    if (capacity_ == 0) return false;
    // Declared before the lock, so it is released after it (as is the
    // parameter).
    std::shared_ptr<const V> evicted;
    const std::lock_guard<AdaptiveMutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.duplicate_inserts;
      return false;
    }
    lru_.emplace_front(key, std::move(value));
    map_.emplace(key, lru_.begin());
    ++stats_.insertions;
    if (lru_.size() > capacity_) {
      map_.erase(lru_.back().first);
      evicted = std::move(lru_.back().second);
      lru_.pop_back();
      ++stats_.evictions;
    }
    return true;
  }

  [[nodiscard]] LruStats stats() const {
    const std::lock_guard<AdaptiveMutex> lock(mutex_);
    LruStats out = stats_;
    out.entries = lru_.size();
    return out;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Drops every entry and resets the counters.
  void clear() {
    std::list<Entry> dropped;  // released after the lock
    const std::lock_guard<AdaptiveMutex> lock(mutex_);
    dropped.swap(lru_);
    map_.clear();
    stats_ = LruStats{};
  }

 private:
  using Entry = std::pair<K, std::shared_ptr<const V>>;

  std::size_t capacity_;
  mutable AdaptiveMutex mutex_;
  std::list<Entry> lru_;  ///< most recent first
  std::unordered_map<K, typename std::list<Entry>::iterator, Hash> map_;
  LruStats stats_;
};

}  // namespace adtp
