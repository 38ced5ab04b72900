#include "bdd/build.hpp"

#include <algorithm>
#include <cstdint>

#include "util/error.hpp"

namespace adtp::bdd {

namespace {

/// One node of the compiled apply DAG. Var tasks materialize a leaf's
/// variable; the pair kinds apply two earlier tasks' results. Operand
/// fields \p a and \p b are *task* ids, so the task list doubles as the
/// dependency graph.
struct BuildTask {
  enum class Kind : std::uint8_t { Var, And, Or, Inh };
  Kind kind = Kind::Var;
  std::uint32_t a = 0;  ///< Var: variable index; else left operand task
  std::uint32_t b = 0;  ///< pair kinds: right operand task
};

/// Tasks between two checks of the deadline and cancel: the sequential
/// loop's stride, and the scheduler slots' combined one.
constexpr std::uint32_t kInterruptStride = 256;

}  // namespace

std::vector<Ref> build_all(Manager& manager, const Adt& adt,
                           const VarOrder& order,
                           const BuildOptions& options) {
  if (manager.num_vars() != order.num_vars()) {
    throw ModelError("bdd::build_all: manager has " +
                     std::to_string(manager.num_vars()) +
                     " variables but the order defines " +
                     std::to_string(order.num_vars()));
  }

  // Compile the ADT into a flat task list. Walking the topological
  // order and emitting each gate's balanced reduction rounds in
  // ascending round order makes the creation order itself a valid
  // topological order of the task DAG - the sequential path below is
  // therefore a plain loop. The pairing shape (adjacent operands, odd
  // leftover carried into the next round) depends only on child lists,
  // never on scheduling, so every thread count folds the very same
  // apply tree.
  std::vector<BuildTask> tasks;
  tasks.reserve(2 * adt.size());
  std::vector<std::uint32_t> final_task(adt.size(), 0);
  std::vector<std::uint32_t> ops;
  std::vector<std::uint32_t> next;
  for (NodeId v : adt.topological_order()) {
    const Node& n = adt.node(v);
    if (n.type == GateType::BasicStep) {
      tasks.push_back(BuildTask{BuildTask::Kind::Var, order.var_of(v), 0});
      final_task[v] = static_cast<std::uint32_t>(tasks.size() - 1);
      continue;
    }
    if (n.type == GateType::Inhibit) {
      // Definition 3: f(inhibited) AND NOT f(trigger). An INH has
      // exactly two children, so it is a single apply task.
      tasks.push_back(BuildTask{BuildTask::Kind::Inh,
                                final_task[n.children[0]],
                                final_task[n.children[1]]});
      final_task[v] = static_cast<std::uint32_t>(tasks.size() - 1);
      continue;
    }
    const BuildTask::Kind kind = n.type == GateType::And
                                     ? BuildTask::Kind::And
                                     : BuildTask::Kind::Or;
    ops.clear();
    for (NodeId c : n.children) ops.push_back(final_task[c]);
    while (ops.size() > 1) {
      next.clear();
      const std::size_t pairs = ops.size() / 2;
      for (std::size_t p = 0; p < pairs; ++p) {
        tasks.push_back(BuildTask{kind, ops[2 * p], ops[2 * p + 1]});
        next.push_back(static_cast<std::uint32_t>(tasks.size() - 1));
      }
      if (ops.size() % 2 != 0) next.push_back(ops.back());
      ops.swap(next);
    }
    // AND/OR gates are validated non-empty; a one-child gate simply
    // aliases its child's task.
    final_task[v] = ops.front();
  }

  std::vector<Ref> value(tasks.size(), kFalse);
  auto exec = [&](std::uint32_t t) {
    const BuildTask& task = tasks[t];
    switch (task.kind) {
      case BuildTask::Kind::Var:
        value[t] = manager.make_var(task.a);
        break;
      case BuildTask::Kind::And:
        value[t] = manager.apply_and(value[task.a], value[task.b]);
        break;
      case BuildTask::Kind::Or:
        value[t] = manager.apply_or(value[task.a], value[task.b]);
        break;
      case BuildTask::Kind::Inh:
        value[t] = manager.apply_and(value[task.a],
                                     manager.apply_not(value[task.b]));
        break;
    }
  };

  TaskScheduler* pool = options.pool;
  if (pool != nullptr && pool->threads() > 1) {
    // The stripe locks only engage when tasks will actually run on more
    // than one thread; the flag is published to the workers through the
    // scheduler's own synchronization.
    manager.enter_concurrent_mode();
    // Each slot counts the tasks it runs and checks every stride of them,
    // so together the slots check about every kInterruptStride tasks
    // (task ids would not do: the Var tasks are all ready, and run, first).
    const std::uint32_t stride =
        std::max(1u, kInterruptStride / pool->threads());
    struct alignas(64) SlotTally {
      std::uint32_t tasks = 0;
    };
    std::vector<SlotTally> ran(pool->threads());
    auto body = [&](unsigned slot, std::uint32_t t) {
      if (ran[slot].tasks++ % stride == 0) {
        check_interrupt(options.deadline, options.cancel, "bdd_build");
      }
      exec(t);
    };
    TaskGraph graph;
    graph.reserve(tasks.size(), 2 * tasks.size());
    for (std::uint32_t t = 0; t < tasks.size(); ++t) {
      graph.add(body, t);
      if (tasks[t].kind != BuildTask::Kind::Var) {
        graph.depends(t, tasks[t].a);
        graph.depends(t, tasks[t].b);
      }
    }
    const TaskRunStats stats = pool->run(graph);
    if (options.stats != nullptr) *options.stats += stats;
  } else {
    for (std::uint32_t t = 0; t < tasks.size(); ++t) {
      if (t % kInterruptStride == 0) {
        check_interrupt(options.deadline, options.cancel, "bdd_build");
      }
      exec(t);
    }
  }

  std::vector<Ref> result(adt.size(), kFalse);
  for (NodeId v = 0; v < adt.size(); ++v) result[v] = value[final_task[v]];
  return result;
}

Ref build_structure_function(Manager& manager, const Adt& adt,
                             const VarOrder& order,
                             const BuildOptions& options) {
  return build_all(manager, adt, order, options)[adt.root()];
}

}  // namespace adtp::bdd
