/// \file node_memo.hpp
/// \brief A bounded, thread-safe memo of per-node Pareto fronts keyed on
///        subtree content, for incremental re-analysis.
///
/// Interactive serving is dominated by one-node edits to an
/// already-analyzed model: a cost tweak, a defense toggled, a subtree
/// grafted. The bottom-up semantics make everything outside the root-ward
/// spine of an edit reusable - a node's front is a pure function of its
/// subtree's content (structure + leaf values + domains + the
/// result-affecting options). The NodeFrontMemo caches those per-node
/// fronts keyed by a recursive content hash, so re-analyzing an edited
/// model recomputes only the dirty spine: O(depth) combines instead of
/// O(|tree|). The bottom-up and hybrid kernels consult it when
/// RunContext::memo is set; analyze_incremental() and the analyze_batch()
/// shared-memo mode are the front doors.
///
/// Key composition (full key stored and compared exactly, like the
/// FrontCache - an FNV-1a collision costs a miss, never a wrong hit):
///  - subtree: recursive hash of the node's subtree - gate type, agent,
///    child order, and every reachable leaf's agent + attribute value.
///    Content-derived: the same subtree in two independently built models
///    hashes equal, which is exactly what lets counterfactual variants
///    share untouched fronts.
///  - context: everything outside the subtree that can change its front -
///    the two domain kinds, the algorithm family, and its result-affecting
///    limits (see bottom_up_memo_context / hybrid_memo_context).
///  - layout: for witness fronts only (0 for value fronts). Witness bit
///    vectors are indexed by the *model's* dense BAS/BDS indices and sized
///    by its |A| / |D|, so a witness front is reusable only when the
///    subtree's leaves keep their dense indices and the global widths
///    match; the layout hash pins both.
///
/// Determinism contract (docs/CONTRACTS.md): a memo hit replays a front
/// that an identically-keyed computation produced, so memoized results
/// are bit-identical to a cold analysis at every thread count, and the
/// memo knobs stay out of the FrontCacheKey. The memo's *eviction state*
/// may depend on scheduling (parallel kernels insert from worker
/// threads); results never do.

#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/attribution.hpp"
#include "core/pareto.hpp"
#include "util/hash.hpp"

namespace adtp {

struct BddBuOptions;  // node_memo.cpp hashes its result fields

/// Content-derived memo key; see the file comment for what each part
/// covers. Compared exactly - the hash maps only route the lookup.
struct NodeMemoKey {
  std::uint64_t subtree = 0;
  std::uint64_t context = 0;
  std::uint64_t layout = 0;  ///< 0 for value fronts
  bool operator==(const NodeMemoKey&) const = default;
};

/// The recursive subtree content hash of every node, indexed by NodeId:
/// leaves hash (type, agent, attribute value), gates hash (type, agent,
/// child subtree hashes in child order). One topological pass.
[[nodiscard]] std::vector<std::uint64_t> subtree_value_hashes(
    const AugmentedAdt& aadt);

/// The witness-layout hash of every node: the dense BAS/BDS index of each
/// reachable leaf plus the model-wide |A| and |D| (witness BitVec widths).
/// Value fronts do not need it; witness fronts are reusable only under an
/// identical layout.
[[nodiscard]] std::vector<std::uint64_t> subtree_layout_hashes(const Adt& adt);

/// Context hash for the bottom-up kernels: domain kinds plus
/// max_front_points (the only bottom-up option that can change a front or
/// turn success into a guard failure).
[[nodiscard]] std::uint64_t bottom_up_memo_context(
    const AugmentedAdt& aadt, std::size_t max_front_points);

/// Context hash for the hybrid walker: domain kinds plus the per-blob
/// BDDBU result fields (hash_result_fields - the same bytes the
/// FrontCache key hashes).
[[nodiscard]] std::uint64_t hybrid_memo_context(const AugmentedAdt& aadt,
                                                const BddBuOptions& bdd);

/// Bounded, thread-safe LRU memo of per-node fronts - value and witness
/// fronts in separate stores (they never share a key shape). Entries are
/// held behind shared_ptr so the mutex only guards pointer and list-node
/// operations; deep copies and frees happen outside the lock. Every
/// entry owns a buffer sized to its own front, so resident memory tracks
/// the fronts held, not the largest front ever evicted.
class NodeFrontMemo {
 public:
  /// \p capacity bounds each store's entry count; 0 disables the memo
  /// (every lookup misses, every insert is dropped).
  explicit NodeFrontMemo(std::size_t capacity = 4096)
      : values_(capacity), witnesses_(capacity) {}

  /// On hit, deep-copies the stored front into \p out, refreshes its
  /// recency, and returns true.
  template <typename P>
  [[nodiscard]] bool lookup(const NodeMemoKey& key, BasicFront<P>& out) {
    return store<P>().lookup(key, out);
  }

  /// Inserts (or refreshes) a deep copy of \p front under \p key,
  /// evicting the least recently used entry when over capacity.
  template <typename P>
  void insert(const NodeMemoKey& key, const BasicFront<P>& front) {
    store<P>().insert(key, front);
  }

  /// Cumulative counters across both stores since construction or the
  /// last clear().
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;  ///< current size (both stores)

    [[nodiscard]] double hit_rate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };

  [[nodiscard]] Stats stats() const {
    Stats out;
    values_.add_stats(out);
    witnesses_.add_stats(out);
    return out;
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return values_.capacity;
  }

  /// Drops every entry and resets the counters.
  void clear() {
    values_.clear();
    witnesses_.clear();
  }

 private:
  struct KeyHash {
    std::size_t operator()(const NodeMemoKey& k) const noexcept {
      return static_cast<std::size_t>(
          hash_combine(hash_combine(k.subtree, k.context), k.layout));
    }
  };

  template <typename P>
  struct Store {
    using Entry = std::pair<NodeMemoKey, std::shared_ptr<BasicFront<P>>>;

    explicit Store(std::size_t capacity_) : capacity(capacity_) {}

    bool lookup(const NodeMemoKey& key, BasicFront<P>& out) {
      std::shared_ptr<const BasicFront<P>> hit;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        const auto it = map.find(key);
        if (it == map.end()) {
          ++misses;
          return false;
        }
        ++hits;
        lru.splice(lru.begin(), lru, it->second);  // refresh recency
        hit = it->second->second;
      }
      out = *hit;  // deep copy outside the lock
      return true;
    }

    void insert(const NodeMemoKey& key, const BasicFront<P>& front) {
      if (capacity == 0) return;
      // Deep-copy before taking the mutex, so concurrent workers never
      // serialize on point copies.
      auto stored = std::make_shared<BasicFront<P>>(front);
      // Replaced and evicted fronts are released after the lock, so their
      // frees stay off the critical section.
      std::shared_ptr<BasicFront<P>> evicted;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        const auto it = map.find(key);
        if (it != map.end()) {
          it->second->second.swap(stored);
          lru.splice(lru.begin(), lru, it->second);
          return;
        }
        lru.emplace_front(key, std::move(stored));
        map.emplace(key, lru.begin());
        ++insertions;
        if (lru.size() > capacity) {
          map.erase(lru.back().first);
          evicted = std::move(lru.back().second);
          lru.pop_back();
          ++evictions;
        }
      }
    }

    void add_stats(Stats& out) const {
      const std::lock_guard<std::mutex> lock(mutex);
      out.hits += hits;
      out.misses += misses;
      out.insertions += insertions;
      out.evictions += evictions;
      out.entries += lru.size();
    }

    void clear() {
      const std::lock_guard<std::mutex> lock(mutex);
      lru.clear();
      map.clear();
      hits = misses = insertions = evictions = 0;
    }

    std::size_t capacity;
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< most recent first
    std::unordered_map<NodeMemoKey, typename std::list<Entry>::iterator,
                       KeyHash>
        map;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  template <typename P>
  Store<P>& store() {
    if constexpr (std::is_same_v<P, ValuePoint>) {
      return values_;
    } else {
      return witnesses_;
    }
  }

  Store<ValuePoint> values_;
  Store<WitnessPoint> witnesses_;
};

}  // namespace adtp
