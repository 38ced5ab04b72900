#include "core/hybrid.hpp"

#include "adt/modules.hpp"
#include "adt/transform.hpp"
#include "core/bottom_up.hpp"
#include "core/domains.hpp"
#include "core/node_memo.hpp"

namespace adtp {

namespace {

/// The per-domain-pair hybrid walker; instantiated by dispatch_domains()
/// so tree-style combines run on the static policies (blobs delegate to
/// bdd_bu_front, which dispatches on the sub-AADT itself).
template <typename Dd, typename Da>
struct HybridState {
  const AugmentedAdt& aadt;
  const HybridOptions& options;
  const RunContext& run;
  const ModuleInfo& modules;
  const Dd& dd;
  const Da& da;
  AnalysisTrace* trace;
  FrontArena<ValuePoint>* arena;

  /// True iff gate \p v can be combined tree-style: every child is a
  /// single-parent module and the children's descendant sets are pairwise
  /// disjoint (so their basic steps - and thus their strategy choices -
  /// are independent).
  bool children_are_independent(NodeId v) {
    const Adt& adt = aadt.adt();
    const auto& children = adt.children(v);
    for (NodeId c : children) {
      if (adt.parents(c).size() != 1) return false;
      if (!modules.is_module[c]) return false;
    }
    for (std::size_t i = 0; i < children.size(); ++i) {
      for (std::size_t j = i + 1; j < children.size(); ++j) {
        if (modules.descendants[children[i]].intersects(
                modules.descendants[children[j]])) {
          return false;
        }
      }
    }
    return true;
  }

  Front leaf_front(NodeId v) {
    const Adt& adt = aadt.adt();
    if (adt.agent(v) == Agent::Attacker) {
      return Front::singleton(
          ValuePoint{dd.one(), aadt.attack_value(adt.attack_index(v))});
    }
    return Front::minimized(
        {ValuePoint{dd.one(), da.one()},
         ValuePoint{aadt.defense_value(adt.defense_index(v)), da.zero()}},
        dd, da);
  }

  Front blob_front(NodeId v) {
    // Sharing reaches into this subtree: analyze the whole sub-DAG with
    // BDDBU (Theorem 2 applies to the sub-AADT as its own model). Every
    // blob runs with the BDDBU options and the walker's RunContext - so
    // all blobs borrow the one run.pool, each subject to BDDBU's floors -
    // and adds its own counters to the trace.
    const AugmentedAdt sub = extract_subgraph(aadt, v);
    if (trace != nullptr) {
      ++trace->blob_count;
      trace->largest_blob = std::max(trace->largest_blob, sub.adt().size());
    }
    return bdd_bu_front(sub, options.bdd, run, trace);
  }

  /// Per-node front memo; populated by hybrid_front when run.memo is set
  /// and the model is memoizable.
  NodeFrontMemo* memo = nullptr;
  std::vector<std::uint64_t> memo_subtree{};  ///< subtree content hashes
  std::uint64_t memo_context = 0;

  Front front(NodeId v) {
    // Blob runs check the same guards inside bdd_bu_front; this check
    // covers the tree-style walk between blobs.
    check_interrupt(run.deadline, run.cancel, "hybrid");
    const Adt& adt = aadt.adt();
    if (adt.type(v) == GateType::BasicStep) return leaf_front(v);

    // A memo hit replays the gate's (or whole blob's) front and prunes
    // its entire subtree from the walk - the dirty spine of an edit is
    // the only part that recomputes. Replay is bit-identical: the key
    // covers everything the front is a function of (node_memo.hpp).
    NodeMemoKey key;
    if (memo != nullptr) {
      key = NodeMemoKey{memo_subtree[v], memo_context, 0};
      Front replayed;
      if (memo->lookup(key, replayed)) {
        if (trace != nullptr) ++trace->memo_hits;
        return replayed;
      }
      if (trace != nullptr) ++trace->memo_misses;
    }

    Front acc;
    if (!children_are_independent(v)) {
      acc = blob_front(v);
    } else {
      const AttackOp op = attack_op(adt.type(v), adt.agent(v));
      const auto& children = adt.children(v);
      acc = front(children[0]);
      for (std::size_t i = 1; i < children.size(); ++i) {
        const Front child = front(children[i]);
        // Blob runs may share this arena: trace only this combine.
        const CombineStats before = arena->stats();
        arena->combine_into(acc, child, op, dd, da);
        if (trace != nullptr) trace->combine += arena->stats().since(before);
      }
      if (trace != nullptr) {
        ++trace->tree_combines;
        trace->max_front_size = std::max(trace->max_front_size, acc.size());
      }
    }
    if (memo != nullptr) memo->insert(key, acc);
    return acc;
  }
};

}  // namespace

Front hybrid_front(const AugmentedAdt& aadt, const HybridOptions& options,
                   const RunContext& run, AnalysisTrace* trace) {
  const ModuleInfo modules = compute_modules(aadt.adt());
  // The tree-style combines and the per-blob BDDBU runs interleave on one
  // thread, so sharing one caller-provided arena between them is safe.
  FrontArena<ValuePoint> local_arena;
  FrontArena<ValuePoint>* arena =
      run.arena != nullptr ? run.arena : &local_arena;
  return dispatch_domains(
      aadt.defender_domain(), aadt.attacker_domain(),
      [&](const auto& dd, const auto& da) {
        HybridState state{aadt, options, run, modules, dd, da, trace, arena};
        if (run.memo != nullptr && run.memo->capacity() != 0 &&
            memoizable(aadt)) {
          state.memo = run.memo;
          state.memo_subtree = subtree_value_hashes(aadt);
          state.memo_context = hybrid_memo_context(aadt, options.bdd);
        }
        return state.front(aadt.adt().root());
      });
}

}  // namespace adtp
