#include "core/bdd_bu.hpp"

#include <algorithm>
#include <type_traits>
#include <vector>

#include "bdd/build.hpp"
#include "core/domains.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace adtp {

void hash_result_fields(Fnv1a& h, const BddBuOptions& options) {
  h.u8(static_cast<std::uint8_t>(options.order_heuristic));
  h.u64(options.order_seed);
  h.size(options.node_limit);
  h.size(options.max_front_points);
  h.boolean(options.order.has_value());
  if (options.order.has_value()) {
    for (NodeId id : options.order->sequence()) h.u32(id);
  }
}

namespace {

constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

/// Estimated front points per parallel propagation task: contiguous runs
/// of the children-first node order fold into one task until their
/// estimate reaches this budget.
constexpr std::size_t kTaskGrainPoints = 1024;

/// The per-domain-pair kernel of Algorithm 3 over a built BDD, generic in
/// the point payload; instantiated once per policy pair by
/// dispatch_domains().
///
/// Every nonterminal BDD node is one task whose dependencies are its
/// low/high children (terminal fronts are precomputed), writing a
/// disjoint front slot; the scheduler runs a node the moment both
/// children finished - no level barrier. A node's front is a pure
/// function of its children's fronts (the arenas are scratch only), so
/// the result is bit-identical for every thread count and for the
/// sequential path, which executes the same per-node computation in
/// reachable order (children first).
template <typename P, typename Dd, typename Da>
BasicFront<P> propagate_kernel(const AugmentedAdt& aadt, bdd::Manager& manager,
                               bdd::Ref root, const bdd::VarOrder& order,
                               const BddBuOptions& options,
                               const RunContext& run, TaskScheduler* pool,
                               AnalysisTrace* trace, const Dd& dd,
                               const Da& da) {
  const std::size_t max_front_points = options.max_front_points;
  const Adt& adt = aadt.adt();
  const bool root_is_attack = adt.agent(adt.root()) == Agent::Attacker;
  const std::size_t num_d = adt.num_defenses();
  const std::size_t num_a = adt.num_attacks();

  auto make_point = [&](double def, double att) {
    P p;
    p.def = def;
    p.att = att;
    if constexpr (std::is_same_v<P, WitnessPoint>) {
      p.defense = BitVec(num_d);
      p.attack = BitVec(num_a);
    }
    return p;
  };

  // Alg. 3 lines 2-5: terminal fronts depend on the root agent - the
  // attacker's target leaf is 1 when tau(R_T) = A and 0 otherwise.
  const bdd::Ref attacker_target = root_is_attack ? bdd::kTrue : bdd::kFalse;

  // Dense slots for the reachable nodes: shared nodes are computed exactly
  // once (the memoization that gives O(|W| p^2)), and workers write
  // disjoint slots without synchronization beyond the dependency edges.
  const std::vector<bdd::Ref> reach = manager.reachable(root);
  std::vector<std::uint32_t> slot(manager.num_nodes(), kNoSlot);
  for (std::uint32_t i = 0; i < reach.size(); ++i) {
    slot[reach[i]] = i;
  }
  std::vector<BasicFront<P>> fronts(reach.size());

  const bool parallel = pool != nullptr && pool->threads() > 1;
  const unsigned workers = parallel ? pool->threads() : 1;

  // One arena per scheduler slot: a slot runs one task at a time.
  std::vector<FrontArena<P>> arenas(workers);
  std::vector<std::size_t> max_p(workers, 0);

  // Terminal fronts up front; nonterminals become tasks. reachable()
  // returns children before parents, so the nonterminal order is itself
  // a valid topological order of the dependency DAG.
  std::vector<bdd::Ref> nonterms;
  nonterms.reserve(reach.size());
  std::vector<std::size_t> level_width(order.num_vars(), 0);
  for (bdd::Ref w : reach) {
    if (manager.is_terminal(w)) {
      const double att = (w == attacker_target) ? da.one() : da.zero();
      fronts[slot[w]] =
          BasicFront<P>::singleton(make_point(dd.one(), att));
    } else {
      ++level_width[manager.var(w)];
      nonterms.push_back(w);
    }
  }
  if (trace != nullptr) {
    trace->bdd_size += reach.size();
    for (const std::size_t width : level_width) {
      trace->max_level_width = std::max(trace->max_level_width, width);
    }
  }

  auto process_node = [&](unsigned worker, bdd::Ref w) {
    check_interrupt(run.deadline, run.cancel, "bdd_bu");
    const std::uint32_t v = manager.var(w);
    const NodeId leaf = order.node_of(v);
    const auto& low = fronts[slot[manager.low(w)]];
    const auto& high = fronts[slot[manager.high(w)]];

    if (!order.is_defense_var(v)) {
      // Alg. 3 lines 6-9: attack variable. Both child fronts are
      // singletons with defender coordinate 1_tensor_D (no defense
      // variable occurs below, by the defense-first order).
      if (low.size() != 1 || high.size() != 1) {
        throw Error(
            "bdd_bu: internal invariant violated - non-singleton front "
            "below an attack variable (is the order defense-first?)");
      }
      const P& p0 = low.front_point();
      const P& p1 = high.front_point();
      const double beta = aadt.attack_value(adt.attack_index(leaf));
      const double via_high = da.combine(beta, p1.att);
      P p = make_point(dd.one(), da.choose(p0.att, via_high));
      if constexpr (std::is_same_v<P, WitnessPoint>) {
        // The attacker takes the preferred branch; record its decisions.
        if (da.strictly_prefer(via_high, p0.att)) {
          p.attack = p1.attack;
          p.attack.set(adt.attack_index(leaf));
        } else {
          p.attack = p0.attack;
        }
      }
      fronts[slot[w]] = BasicFront<P>::singleton(std::move(p));
    } else {
      // Alg. 3 lines 10-14: defense variable. Either skip the defense
      // (low front) or buy it (high front shifted by beta_D). Shifting by
      // a constant via tensor_D preserves the staircase order, so the
      // union is a sorted merge - no re-sort.
      const double beta = aadt.defense_value(adt.defense_index(leaf));
      auto front = arenas[worker].merged_transformed(
          low, high,
          [&](const P& q) {
            P shifted = q;
            shifted.def = dd.combine(beta, q.def);
            if constexpr (std::is_same_v<P, WitnessPoint>) {
              shifted.defense.set(adt.defense_index(leaf));
            }
            return shifted;
          },
          dd, da);
      if (max_front_points != 0 && front.size() > max_front_points) {
        throw LimitError("bdd_bu: intermediate front exceeds " +
                         std::to_string(max_front_points) + " points");
      }
      max_p[worker] = std::max(max_p[worker], front.size());
      fronts[slot[w]] = std::move(front);
    }
  };

  if (parallel) {
    // Granularity: a task per nonterminal drowns the scheduler in
    // bookkeeping wherever per-node work is tiny - attack-variable nodes
    // always carry singleton fronts, and on attack-heavy BDDs they are
    // the bulk of |W|. Estimate each node's front work (1 for terminals
    // and attack variables, capped child sum for defense variables) and
    // fold contiguous runs of the children-first order into one task
    // until the estimate reaches kTaskGrainPoints. A chunk processes its
    // nodes in that same order, so the per-node computation is identical
    // to the sequential path: results stay bit-identical.
    std::vector<std::size_t> est(reach.size(), 1);
    for (const bdd::Ref w : nonterms) {
      if (order.is_defense_var(manager.var(w))) {
        est[slot[w]] =
            std::min(kTaskGrainPoints,
                     est[slot[manager.low(w)]] + est[slot[manager.high(w)]]);
      }
    }
    std::vector<std::uint32_t> chunk_begin;  // index into nonterms
    std::size_t acc = 0;
    for (std::uint32_t i = 0; i < nonterms.size(); ++i) {
      if (acc == 0) chunk_begin.push_back(i);
      acc += est[slot[nonterms[i]]];
      if (acc >= kTaskGrainPoints) acc = 0;
    }
    const std::uint32_t num_chunks =
        static_cast<std::uint32_t>(chunk_begin.size());
    auto chunk_end = [&](std::uint32_t c) {
      return c + 1 < num_chunks ? chunk_begin[c + 1]
                                : static_cast<std::uint32_t>(nonterms.size());
    };
    std::vector<std::uint32_t> chunk_of(manager.num_nodes(), kNoSlot);
    for (std::uint32_t c = 0; c < num_chunks; ++c) {
      for (std::uint32_t i = chunk_begin[c]; i < chunk_end(c); ++i) {
        chunk_of[nonterms[i]] = c;
      }
    }
    auto body = [&](unsigned worker, std::uint32_t c) {
      for (std::uint32_t i = chunk_begin[c]; i < chunk_end(c); ++i) {
        process_node(worker, nonterms[i]);
      }
    };
    // Dependency edges point at the chunks holding the nodes' children
    // (always earlier chunks - the order is children-first; terminals
    // are already materialized above). last_dep deduplicates edges per
    // consuming chunk.
    TaskGraph graph;
    graph.reserve(num_chunks, 2 * num_chunks);
    std::vector<std::uint32_t> last_dep(num_chunks, kNoSlot);
    for (std::uint32_t c = 0; c < num_chunks; ++c) {
      graph.add(body, c);
      for (std::uint32_t i = chunk_begin[c]; i < chunk_end(c); ++i) {
        const bdd::Ref w = nonterms[i];
        for (const bdd::Ref child : {manager.low(w), manager.high(w)}) {
          if (manager.is_terminal(child)) continue;
          const std::uint32_t producer = chunk_of[child];
          if (producer == c || last_dep[producer] == c) continue;
          last_dep[producer] = c;
          graph.depends(c, producer);
        }
      }
    }
    const TaskRunStats stats = pool->run(graph);
    if (trace != nullptr) trace->sched += stats;
  } else {
    for (bdd::Ref w : nonterms) process_node(0, w);
  }

  BasicFront<P>& root_front = fronts[slot[root]];
  if (trace != nullptr) {
    trace->max_front_size =
        std::max(trace->max_front_size, root_front.size());
    for (std::size_t m : max_p) {
      trace->max_front_size = std::max(trace->max_front_size, m);
    }
    for (const FrontArena<P>& a : arenas) trace->combine += a.stats();
  }
  return std::move(root_front);
}

template <typename P>
BasicFront<P> propagate(const AugmentedAdt& aadt, bdd::Manager& manager,
                        bdd::Ref root, const bdd::VarOrder& order,
                        const BddBuOptions& options, const RunContext& run,
                        TaskScheduler* pool, AnalysisTrace* trace) {
  return dispatch_domains(
      aadt.defender_domain(), aadt.attacker_domain(),
      [&](const auto& dd, const auto& da) {
        return propagate_kernel<P>(aadt, manager, root, order, options, run,
                                   pool, trace, dd, da);
      });
}

/// BDD managers below this many allocated nodes never trigger the
/// late (post-build) engagement: their whole propagation costs less than
/// the per-node task bookkeeping. Models over the ADT-node floor engage
/// up front regardless, so construction parallelizes too.
constexpr std::size_t kMinBddNodesForPool = 4096;

/// The one BDDBU driver: variable order -> manager -> ROBDD build ->
/// front propagation. Witness runs pass no trace.
///
/// A multi-slot pool engages at one of two floors. A small ADT can still
/// translate to a huge BDD (the Fig. 4 family: 43 ADT nodes, ~3 * 2^n
/// BDD nodes), so the pool engages either up front - when the ADT itself
/// clears run.parallel_node_floor, so the build runs on it too - or
/// right after the build, when the manager turns out large enough that
/// task-DAG propagation pays for itself. Below both, per-node task
/// bookkeeping costs more than the sequential loop and the pool is
/// never run.
template <typename P>
BasicFront<P> run_bdd_bu(const AugmentedAdt& aadt, const BddBuOptions& options,
                         const RunContext& run, AnalysisTrace* trace) {
  const bdd::VarOrder order = resolve_order(aadt.adt(), options);
  bdd::Manager manager(order.num_vars(), options.node_limit);
  TaskScheduler* const wide =
      run.pool != nullptr && run.pool->threads() > 1 ? run.pool : nullptr;
  TaskScheduler* pool =
      aadt.adt().size() >= run.parallel_node_floor ? wide : nullptr;
  check_interrupt(run.deadline, run.cancel, "bdd_bu");
  Stopwatch watch;
  bdd::BuildOptions build;
  build.pool = pool;
  build.deadline = run.deadline;
  build.cancel = run.cancel;
  if (trace != nullptr) build.stats = &trace->sched;
  const bdd::Ref root =
      bdd::build_structure_function(manager, aadt.adt(), order, build);
  const double build_seconds = watch.seconds();
  if (manager.num_nodes() >= kMinBddNodesForPool) pool = wide;
  watch.reset();
  BasicFront<P> front =
      propagate<P>(aadt, manager, root, order, options, run, pool, trace);
  if (trace != nullptr) {
    trace->build_seconds += build_seconds;
    trace->propagate_seconds += watch.seconds();
    trace->manager_nodes += manager.num_nodes();
    trace->threads_used = std::max(
        trace->threads_used, pool != nullptr ? pool->threads() : 1u);
  }
  return front;
}

}  // namespace

bdd::VarOrder resolve_order(const Adt& adt, const BddBuOptions& options) {
  if (options.order.has_value()) return *options.order;
  return bdd::VarOrder::defense_first(adt, options.order_heuristic,
                                      options.order_seed);
}

Front bdd_bu_front(const AugmentedAdt& aadt, const BddBuOptions& options,
                   const RunContext& run, AnalysisTrace* trace) {
  return run_bdd_bu<ValuePoint>(aadt, options, run, trace);
}

WitnessFront bdd_bu_front_witness(const AugmentedAdt& aadt,
                                  const BddBuOptions& options,
                                  const RunContext& run) {
  return run_bdd_bu<WitnessPoint>(aadt, options, run, nullptr);
}

Front bdd_bu_on_bdd(const AugmentedAdt& aadt, bdd::Manager& manager,
                    bdd::Ref root, const bdd::VarOrder& order) {
  return propagate<ValuePoint>(aadt, manager, root, order, {}, {}, nullptr,
                               nullptr);
}

}  // namespace adtp
