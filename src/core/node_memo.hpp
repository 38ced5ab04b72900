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
///
/// The memo holds value fronts only. Witness runs (strategy extraction)
/// never consult it: their bit vectors are indexed by the model's dense
/// leaf indices, so they are not a function of subtree content alone.
///
/// Determinism contract (docs/CONTRACTS.md): a memo hit replays a front
/// that an identically-keyed computation produced, so memoized results
/// are bit-identical to a cold analysis at every thread count, and the
/// memo knobs stay out of the FrontCacheKey. The same contract lets the
/// memo keep the first front inserted under a key: a later insert under
/// the live key carries an equal front and only refreshes its recency
/// (first writer wins, as in the FrontCache; both tiers share one
/// LruCache). The memo's *eviction state* may depend on scheduling
/// (parallel kernels insert from worker threads); results never do.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/attribution.hpp"
#include "core/pareto.hpp"
#include "util/hash.hpp"
#include "util/lru_cache.hpp"

namespace adtp {

struct BddBuOptions;  // node_memo.cpp hashes its result fields

/// Content-derived memo key; see the file comment for what each part
/// covers. Compared exactly - the hash maps only route the lookup.
struct NodeMemoKey {
  std::uint64_t subtree = 0;
  std::uint64_t context = 0;
  bool operator==(const NodeMemoKey&) const = default;
};

/// Routes a key to its bucket; the full key is still compared.
struct NodeMemoKeyHash {
  std::size_t operator()(const NodeMemoKey& k) const noexcept {
    return static_cast<std::size_t>(hash_combine(k.subtree, k.context));
  }
};

/// The recursive subtree content hash of every node, indexed by NodeId:
/// leaves hash (type, agent, attribute value), gates hash (type, agent,
/// child subtree hashes in child order). One topological pass.
[[nodiscard]] std::vector<std::uint64_t> subtree_value_hashes(
    const AugmentedAdt& aadt);

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

/// Bounded, thread-safe memo of per-node value fronts: an LruCache
/// (util/lru_cache.hpp) whose lookup() deep-copies a stored front out and
/// whose insert() keeps the first front under a live key (contract 4
/// makes both equal). Every entry owns a buffer sized to its own front,
/// so resident memory tracks the fronts held, not the largest front ever
/// evicted. Capacity 0 disables the memo.
class NodeFrontMemo : public LruCache<NodeMemoKey, Front, NodeMemoKeyHash> {
 public:
  explicit NodeFrontMemo(std::size_t capacity = 4096) : LruCache(capacity) {}

  using Stats = LruStats;
};

}  // namespace adtp
