/// \file node_memo.hpp
/// \brief A bounded, thread-safe memo of per-node Pareto fronts keyed on
///        subtree content and on child fronts, for incremental
///        re-analysis.
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
/// A gate's front is also a pure function of its children's fronts
/// (Algorithm 1 folds them left to right), so the walk files a second
/// key for it: the *value key*. When a dirty-spine gate has a child
/// replayed from the memo, the walk looks its value key up before
/// folding, and a hit replays the fold's result - an early cutoff: an
/// edit whose effect a gate masks stops recomputing above it. A gate
/// with no replayed child (every gate of a cold run) never builds one.
///
/// Keys (two 64-bit words, compared in full; the hash maps only route
/// the lookup):
///  - subtree key: {recursive hash of the node's subtree - gate type,
///    agent, child order, and every reachable leaf's agent + attribute
///    bits; context}. Content-derived: the same subtree in two
///    independently built models hashes equal, which is exactly what
///    lets counterfactual variants share untouched fronts.
///  - value key: {hash of the gate's attack op, child count and each
///    child front's (def, att) bit patterns in child order; the context
///    tagged as a value context}. Bit patterns, so only bit-identical
///    child fronts share a key.
///  - context: everything outside the subtree that can change its front -
///    the two domain kinds, the algorithm family, and its result-affecting
///    limits (see bottom_up_memo_context / hybrid_memo_context).
/// The subtree and value hashes are WordHash digests (util/hash.hpp),
/// and they are the key: two inputs whose hashes collide share an
/// entry, so a collision would replay a wrong front. Their strength is
/// what `ValueKeys.*` pins (tests/core/node_memo_test.cpp).
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
#include <span>
#include <vector>

#include "core/attribution.hpp"
#include "core/pareto.hpp"
#include "util/hash.hpp"
#include "util/lru_cache.hpp"

namespace adtp {

struct BddBuOptions;  // node_memo.cpp hashes its result fields

/// A subtree or value key; see the file comment for what each part
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
/// leaves hash (type, agent, attribute bits), gates hash (type, agent,
/// child subtree hashes in child order). One topological pass.
[[nodiscard]] std::vector<std::uint64_t> subtree_value_hashes(
    const AugmentedAdt& aadt);

/// The value key of a gate that folds \p children's fronts with \p op
/// under memo context \p context: every child front's size and raw
/// (def, att) bits, in child order.
[[nodiscard]] NodeMemoKey value_memo_key(AttackOp op, std::uint64_t context,
                                         std::span<const NodeId> children,
                                         const std::vector<Front>& fronts);

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
/// makes both equal). A gate's subtree and value entries share one
/// buffer sized to its front, so resident memory tracks the fronts held,
/// not the entries nor the largest front ever evicted. stats() counts
/// both kinds of entry and lookup; a result's AnalysisTrace counts
/// subtree-key lookups (memo_hits, memo_misses) apart from value-key
/// replays (memo_cutoffs). Capacity 0 disables the memo.
class NodeFrontMemo : public LruCache<NodeMemoKey, Front, NodeMemoKeyHash> {
 public:
  explicit NodeFrontMemo(std::size_t capacity = 4096) : LruCache(capacity) {}

  using Stats = LruStats;
};

}  // namespace adtp
