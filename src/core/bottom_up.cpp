#include "core/bottom_up.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <type_traits>

#include "adt/modules.hpp"
#include "adt/transform.hpp"
#include "core/domains.hpp"
#include "core/front_cache.hpp"
#include "core/hybrid.hpp"
#include "core/node_memo.hpp"
#include "util/error.hpp"

namespace adtp {

AttackOp attack_op(GateType gate, Agent agent) {
  switch (gate) {
    case GateType::And:
      return agent == Agent::Attacker ? AttackOp::Combine : AttackOp::Choose;
    case GateType::Or:
      return agent == Agent::Attacker ? AttackOp::Choose : AttackOp::Combine;
    case GateType::Inhibit:
      return agent == Agent::Attacker ? AttackOp::Combine : AttackOp::Choose;
    case GateType::BasicStep:
      break;
  }
  throw ModelError("attack_op: basic steps have no combination operator");
}

namespace {

template <typename P, typename Dd, typename Da>
P attack_leaf_point(const AugmentedAdt& aadt, NodeId id, const Dd& dd,
                    const Da&) {
  const std::size_t index = aadt.adt().attack_index(id);
  P p;
  p.def = dd.one();
  p.att = aadt.attack_value(index);
  if constexpr (std::is_same_v<P, WitnessPoint>) {
    p.defense = BitVec(aadt.adt().num_defenses());
    p.attack = BitVec(aadt.adt().num_attacks());
    p.attack.set(index);
  }
  return p;
}

template <typename P, typename Dd, typename Da>
std::vector<P> defense_leaf_points(const AugmentedAdt& aadt, NodeId id,
                                   const Dd& dd, const Da& da) {
  const std::size_t index = aadt.adt().defense_index(id);
  // Inactive: costs nothing, and "defeating" it is free for the attacker.
  P off;
  off.def = dd.one();
  off.att = da.one();
  // Active: costs beta_D, and a bare BDS cannot be defeated.
  P on;
  on.def = aadt.defense_value(index);
  on.att = da.zero();
  if constexpr (std::is_same_v<P, WitnessPoint>) {
    off.defense = BitVec(aadt.adt().num_defenses());
    off.attack = BitVec(aadt.adt().num_attacks());
    on.defense = off.defense;
    on.attack = off.attack;
    on.defense.set(index);
  }
  return {std::move(off), std::move(on)};
}

/// Hybrid's blobs (hybrid.hpp): gates whose children are not independent
/// modules. The walk never descends into a blob; it takes the blob's
/// front from a BDDBU run over its sub-DAG, as if the blob were a leaf.
struct Blobs {
  std::vector<char> is_root;  ///< per NodeId
  const BddBuOptions& bdd;
};

/// True iff gate \p v can be combined tree-style: every child is a
/// single-parent module. That makes the children's descendant sets
/// pairwise disjoint (so their basic steps - and thus their strategy
/// choices - are independent): a node below two such children would
/// give one of them a strict descendant with a parent outside it, or
/// would close a cycle through \p v (Modules.
/// SingleParentModuleChildrenNeverOverlap).
bool children_are_independent(const Adt& adt, const ModuleInfo& modules,
                              NodeId v) {
  for (NodeId c : adt.children(v)) {
    if (adt.parents(c).size() != 1 || !modules.is_module[c]) return false;
  }
  return true;
}

/// The dirty-spine plan of one memoized run: which nodes were preloaded
/// from the NodeFrontMemo, which must be computed, and which of those
/// look their value key up first. Built once on the caller thread
/// before a kernel is chosen (its size decides whether the walk is worth
/// a scheduler); both kernels consume it through compute_node. When the
/// memo is off (or the model is not cacheable, or this is a witness run
/// - the memo holds value fronts only) and there are no blobs, the plan
/// degenerates to "compute everything" and its memo calls are no-ops,
/// so the kernels have a single code path.
template <typename P>
struct MemoPlan {
  NodeFrontMemo* memo = nullptr;  ///< null unless P is ValuePoint
  std::uint64_t context = 0;      ///< the kernel's memo context
  std::vector<NodeMemoKey> keys;  ///< per NodeId; empty when memo off
  /// Per NodeId: a gate to compute with a child preloaded from the memo,
  /// which looks its value key up before it folds. Empty when nothing
  /// was preloaded.
  std::vector<char> value_keyed;
  std::vector<NodeId> order;      ///< nodes to compute, topological
  std::uint64_t hits = 0;         ///< gates preloaded from the memo
  std::uint64_t misses = 0;       ///< gates looked up and not found

  /// Preloads memo hits into \p fronts, marks the dirty spine, and
  /// returns the topological compute order. Only nodes reachable from a
  /// missing ancestor are visited: a hit prunes its whole subtree.
  /// \p context is the kernel's memo context hash (node_memo.hpp).
  static MemoPlan build(const AugmentedAdt& aadt, const RunContext& run,
                        std::uint64_t context, const Blobs* blobs,
                        std::vector<BasicFront<P>>& fronts) {
    MemoPlan plan;
    const Adt& adt = aadt.adt();
    if (std::is_same_v<P, ValuePoint> && run.memo != nullptr &&
        run.memo->capacity() != 0 && cacheable(aadt)) {
      plan.memo = run.memo;
      plan.context = context;
      const std::vector<std::uint64_t> subtree = subtree_value_hashes(aadt);
      plan.keys.resize(adt.size());
      for (NodeId v = 0; v < adt.size(); ++v) {
        plan.keys[v] = NodeMemoKey{subtree[v], context};
      }
    } else if (blobs == nullptr) {
      plan.order = adt.topological_order();
      return plan;
    }
    // Descend from the root through lookup misses (every gate misses
    // when the memo is off): a gate that hits is materialized from the
    // memo and its subtree never visited, nor is a blob root's; leaves
    // are always computed (cheaper to rebuild than to look up).
    enum : char { kUnvisited = 0, kCompute = 1, kPreloaded = 2 };
    std::vector<char> state(adt.size(), kUnvisited);
    std::vector<NodeId> stack{adt.root()};
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      if (state[v] != kUnvisited) continue;
      const Node& n = adt.node(v);
      if (n.type != GateType::BasicStep && plan.lookup(v, fronts[v])) {
        state[v] = kPreloaded;
        ++plan.hits;
        continue;
      }
      state[v] = kCompute;
      if (n.type == GateType::BasicStep) continue;
      if (plan.memo != nullptr) ++plan.misses;
      if (blobs == nullptr || !blobs->is_root[v]) {
        for (NodeId c : n.children) stack.push_back(c);
      }
    }
    for (NodeId v : adt.topological_order()) {
      if (state[v] == kCompute) plan.order.push_back(v);
    }
    // Early cutoff: a computed gate beside a replayed sibling may see
    // child fronts the memo has folded before. A cold run replays
    // nothing, so it skips this pass and never hashes a front.
    if (plan.hits != 0) {
      plan.value_keyed.assign(adt.size(), 0);
      for (NodeId v : plan.order) {
        if (blobs != nullptr && blobs->is_root[v]) continue;
        const std::vector<NodeId>& children = adt.node(v).children;
        plan.value_keyed[v] = std::any_of(
            children.begin(), children.end(),
            [&](NodeId c) { return state[c] == kPreloaded; });
      }
    }
    return plan;
  }

  /// Copies gate \p v's memoized front into \p out; false on a miss and
  /// whenever the memo is off.
  bool lookup(NodeId v, BasicFront<P>& out) const {
    if constexpr (std::is_same_v<P, ValuePoint>) {
      return memo != nullptr && memo->lookup(keys[v], out);
    } else {
      return false;
    }
  }

  /// For a value-keyed gate \p v, sets \p value_key and looks it up. On
  /// a hit, copies the front into \p fronts, files it under \p v's
  /// subtree key as well and returns true. Thread-safe.
  bool replay_by_value(const Adt& adt, NodeId v, AttackOp op,
                       std::vector<BasicFront<P>>& fronts,
                       std::optional<NodeMemoKey>& value_key) const {
    if constexpr (std::is_same_v<P, ValuePoint>) {
      if (value_keyed.empty() || !value_keyed[v]) return false;
      value_key = value_memo_key(op, context, adt.children(v), fronts);
      std::shared_ptr<const Front> hit = memo->find(*value_key);
      if (hit == nullptr) return false;
      fronts[v] = *hit;
      memo->insert(keys[v], std::move(hit));
      return true;
    } else {
      return false;
    }
  }

  /// Memoizes a freshly computed gate front under its subtree key and,
  /// when set, \p value_key: one copy for both. Thread-safe; called from
  /// worker tasks by the parallel kernel.
  void store(NodeId v, const BasicFront<P>& front,
             const std::optional<NodeMemoKey>& value_key) const {
    if constexpr (std::is_same_v<P, ValuePoint>) {
      if (memo == nullptr) return;
      auto stored = std::make_shared<const Front>(front);
      if (value_key) memo->insert(*value_key, stored);
      memo->insert(keys[v], std::move(stored));
    }
  }
};

/// Per-slot counters of a walk, added to the trace once it ends.
struct WalkTally {
  std::size_t max_front = 0;  ///< largest front a gate fold produced
  std::uint64_t cutoffs = 0;  ///< gates replayed by value key
};

/// One node of Algorithm 1: leaves materialize their fronts, gates fold
/// their children's fronts left to right (Alg. 1 lines 7-9; pruning
/// after every combination is lossless by Lemma 2). Shared verbatim by
/// the sequential walk and every parallel task, so the fold shape -
/// and with it the result, bit for bit - cannot depend on scheduling.
/// A value-keyed gate whose fold \p plan's memo holds replays it instead
/// (an early cutoff); a folded gate is memoized. With \p blobs set
/// (hybrid, always sequential), a blob root's front is its BDDBU run's,
/// and every other folded gate counts as a tree combine.
template <typename P, typename Dd, typename Da>
void compute_node(const AugmentedAdt& aadt, NodeId v, const MemoPlan<P>& plan,
                  std::vector<BasicFront<P>>& fronts, FrontArena<P>& arena,
                  WalkTally& tally, const BottomUpOptions& options,
                  const RunContext& run, const Blobs* blobs,
                  AnalysisTrace* trace, const Dd& dd, const Da& da) {
  check_interrupt(run.deadline, run.cancel,
                  blobs != nullptr ? "hybrid" : "bottom_up");
  const Adt& adt = aadt.adt();
  const Node& n = adt.node(v);
  if (n.type == GateType::BasicStep) {
    if (n.agent == Agent::Attacker) {
      fronts[v] =
          BasicFront<P>::singleton(attack_leaf_point<P>(aadt, v, dd, da));
    } else {
      fronts[v] = BasicFront<P>::minimized(
          defense_leaf_points<P>(aadt, v, dd, da), dd, da);
    }
    return;
  }
  if constexpr (std::is_same_v<P, ValuePoint>) {
    if (blobs != nullptr && blobs->is_root[v]) {
      // Sharing reaches into this subtree: analyze the whole sub-DAG with
      // BDDBU (Theorem 2 applies to the sub-AADT as its own model).
      const AugmentedAdt sub = extract_subgraph(aadt, v);
      if (trace != nullptr) {
        ++trace->blob_count;
        trace->largest_blob = std::max(trace->largest_blob, sub.adt().size());
      }
      fronts[v] = bdd_bu_front(sub, blobs->bdd, run, trace);
      plan.store(v, fronts[v], std::nullopt);
      return;
    }
  }
  const AttackOp op = attack_op(n.type, n.agent);
  std::optional<NodeMemoKey> value_key;
  if (plan.replay_by_value(adt, v, op, fronts, value_key)) {
    ++tally.cutoffs;
    return;
  }
  BasicFront<P> acc = fronts[n.children[0]];
  for (std::size_t i = 1; i < n.children.size(); ++i) {
    arena.combine_into(acc, fronts[n.children[i]], op, dd, da);
    if (options.max_front_points != 0 &&
        acc.size() > options.max_front_points) {
      throw LimitError("bottom_up: intermediate front exceeds " +
                       std::to_string(options.max_front_points) +
                       " points at node '" + n.name + "'");
    }
  }
  tally.max_front = std::max(tally.max_front, acc.size());
  if (blobs != nullptr && trace != nullptr) ++trace->tree_combines;
  fronts[v] = std::move(acc);
  plan.store(v, fronts[v], value_key);
}

/// The sequential kernel of Algorithm 1; instantiated once per policy
/// pair by dispatch_domains(), so combine/prefer inline with no dispatch
/// in the merge loops. The run's FrontArena recycles buffers across all
/// its merges (a blob's BDDBU run keeps its own, and traces it itself).
/// Computes \p plan's nodes into \p fronts (memo hits already preloaded).
template <typename P, typename Dd, typename Da>
void bottom_up_kernel(const AugmentedAdt& aadt, const BottomUpOptions& options,
                      const RunContext& run, const MemoPlan<P>& plan,
                      const Blobs* blobs, std::vector<BasicFront<P>>& fronts,
                      AnalysisTrace* trace, const Dd& dd, const Da& da) {
  FrontArena<P> arena;
  WalkTally tally;
  for (NodeId v : plan.order) {
    compute_node(aadt, v, plan, fronts, arena, tally, options, run, blobs,
                 trace, dd, da);
  }
  if (trace != nullptr) {
    trace->combine += arena.stats();
    trace->max_front_size = std::max(trace->max_front_size, tally.max_front);
    trace->memo_cutoffs += tally.cutoffs;
  }
}

/// The parallel kernel: one task per node, edges gate -> child, so
/// sibling subtrees fold concurrently and a gate starts the instant its
/// last child finishes. Tasks write disjoint front slots and use one
/// arena per scheduler slot.
template <typename P, typename Dd, typename Da>
void bottom_up_parallel_kernel(const AugmentedAdt& aadt,
                               const BottomUpOptions& options,
                               const RunContext& run, const MemoPlan<P>& plan,
                               std::vector<BasicFront<P>>& fronts,
                               TaskScheduler& pool, AnalysisTrace* trace,
                               const Dd& dd, const Da& da) {
  const Adt& adt = aadt.adt();
  const unsigned workers = pool.threads();
  std::vector<FrontArena<P>> arenas(workers);
  std::vector<WalkTally> tallies(workers);

  auto body = [&](unsigned slot, std::uint32_t v) {
    compute_node(aadt, static_cast<NodeId>(v), plan, fronts, arenas[slot],
                 tallies[slot], options, run, nullptr, nullptr, dd, da);
  };
  // One task per node of the dirty spine (every node when the memo is
  // off), added in topological order; dependency edges make each gate
  // wait for its still-dirty children (preloaded children are already
  // materialized). The per-node fold shape is compute_node either way,
  // so memoization never changes the front a computed node produces.
  std::vector<std::uint32_t> task_of(adt.size(), 0xFFFFFFFFu);
  TaskGraph graph;
  graph.reserve(plan.order.size(), plan.order.size());
  for (std::uint32_t i = 0; i < plan.order.size(); ++i) {
    task_of[plan.order[i]] = i;
    graph.add(body, static_cast<std::uint32_t>(plan.order[i]));
  }
  for (std::uint32_t i = 0; i < plan.order.size(); ++i) {
    for (NodeId c : adt.node(plan.order[i]).children) {
      if (task_of[c] != 0xFFFFFFFFu) {
        graph.depends(static_cast<TaskGraph::TaskId>(i),
                      static_cast<TaskGraph::TaskId>(task_of[c]));
      }
    }
  }
  const TaskRunStats stats = pool.run(graph);

  if (trace != nullptr) {
    trace->threads_used = std::max(trace->threads_used, workers);
    trace->sched += stats;
    for (unsigned slot = 0; slot < workers; ++slot) {
      trace->combine += arenas[slot].stats();
      trace->max_front_size =
          std::max(trace->max_front_size, tallies[slot].max_front);
      trace->memo_cutoffs += tallies[slot].cutoffs;
    }
  }
}

/// The one walk of Algorithm 1. Bottom-up runs it on a tree; hybrid runs
/// it on a DAG with \p blobs as extra leaves, so the part it folds is a
/// tree by construction: every folded child has exactly one parent.
template <typename P>
std::vector<BasicFront<P>> bottom_up_all(const AugmentedAdt& aadt,
                                         const BottomUpOptions& options,
                                         const RunContext& run,
                                         AnalysisTrace* trace = nullptr,
                                         const Blobs* blobs = nullptr) {
  if (blobs == nullptr && !aadt.adt().is_tree()) {
    throw ModelError(
        "bottom_up: the ADT is DAG-shaped (a node has multiple parents); "
        "the Bottom-Up algorithm is only sound for trees - use "
        "bdd_bu_front() or transform the model with unfold_to_tree()");
  }
  std::vector<BasicFront<P>> fronts(aadt.adt().size());
  const std::uint64_t context =
      blobs != nullptr
          ? hybrid_memo_context(aadt, blobs->bdd)
          : bottom_up_memo_context(aadt, options.max_front_points);
  const MemoPlan<P> plan =
      MemoPlan<P>::build(aadt, run, context, blobs, fronts);
  // Engage the scheduler only when more than one slot is on offer and
  // the nodes left to compute clear the floor - every node on a cold run,
  // only the dirty spine on a memoized edit; otherwise the plain walk
  // wins. Hybrid's walk stays sequential (its blobs add to the one
  // trace), and its blobs borrow the pool instead.
  TaskScheduler* pool = run.pool;
  const bool parallel = blobs == nullptr && pool != nullptr &&
                        pool->threads() > 1 &&
                        plan.order.size() >= run.parallel_node_floor;
  dispatch_domains(
      aadt.defender_domain(), aadt.attacker_domain(),
      [&](const auto& dd, const auto& da) {
        if (parallel) {
          bottom_up_parallel_kernel<P>(aadt, options, run, plan, fronts,
                                       *pool, trace, dd, da);
        } else {
          bottom_up_kernel<P>(aadt, options, run, plan, blobs, fronts, trace,
                              dd, da);
        }
      });
  if (trace != nullptr) {
    trace->memo_hits += plan.hits;
    trace->memo_misses += plan.misses;
  }
  return fronts;
}

}  // namespace

Front bottom_up_front(const AugmentedAdt& aadt, const BottomUpOptions& options,
                      const RunContext& run, AnalysisTrace* trace) {
  auto fronts = bottom_up_all<ValuePoint>(aadt, options, run, trace);
  return std::move(fronts[aadt.adt().root()]);
}

WitnessFront bottom_up_front_witness(const AugmentedAdt& aadt,
                                     const BottomUpOptions& options,
                                     const RunContext& run) {
  auto fronts = bottom_up_all<WitnessPoint>(aadt, options, run);
  return std::move(fronts[aadt.adt().root()]);
}

std::vector<Front> bottom_up_all_fronts(const AugmentedAdt& aadt,
                                        const BottomUpOptions& options,
                                        const RunContext& run) {
  return bottom_up_all<ValuePoint>(aadt, options, run);
}

Front hybrid_front(const AugmentedAdt& aadt, const HybridOptions& options,
                   const RunContext& run, AnalysisTrace* trace) {
  const Adt& adt = aadt.adt();
  const ModuleInfo modules = compute_modules(adt);
  Blobs blobs{std::vector<char>(adt.size(), 0), options.bdd};
  for (NodeId v = 0; v < adt.size(); ++v) {
    blobs.is_root[v] = adt.type(v) != GateType::BasicStep &&
                       !children_are_independent(adt, modules, v);
  }
  // Tree-style combines stay unlimited: HybridOptions limits only blobs.
  auto fronts = bottom_up_all<ValuePoint>(aadt, {}, run, trace, &blobs);
  return std::move(fronts[adt.root()]);
}

}  // namespace adtp
