/// Parallel BDD propagation folds contiguous runs of the children-first
/// node order into tasks of about 1024 estimated front points. Chunking
/// is execution only, never a result: fronts AND witnesses are
/// bit-identical for every thread count, while the chunks must actually
/// collapse the task count on attack-heavy BDDs - the whole point of the
/// granularity.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bdd/build.hpp"
#include "core/analyzer.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"

namespace adtp {
namespace {

/// Runs BDDBU through analyze(), whose result carries the trace.
AnalysisResult traced_bdd_bu(const AugmentedAdt& aadt,
                             const RunContext& run) {
  AnalysisOptions options;
  options.algorithm = Algorithm::BddBu;
  options.run = run;
  return analyze(aadt, options);
}

constexpr unsigned kThreadCounts[] = {2, 8};

TEST(BddGrain, EveryThreadCountIsBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RandomAdtOptions gen;
    gen.share_probability = 0.3;
    gen.max_defenses = 6;
    gen.target_nodes = 20 + seed * 3;
    const AugmentedAdt aadt = generate_random_aadt(
        gen, seed, Semiring::min_cost(), Semiring::min_cost());

    RunContext base;
    base.parallel_node_floor = 0;  // force the pool on tiny models
    const Front reference = bdd_bu_front(aadt, {}, base);
    const WitnessFront reference_witness =
        bdd_bu_front_witness(aadt, {}, base);

    for (unsigned threads : kThreadCounts) {
      TaskScheduler pool(threads);
      RunContext run = base;
      run.pool = &pool;
      EXPECT_TRUE(bdd_bu_front(aadt, {}, run).bit_identical_values(reference))
          << "seed " << seed << " @" << threads << " threads diverged";
      const WitnessFront witness = bdd_bu_front_witness(aadt, {}, run);
      ASSERT_TRUE(witness.bit_identical_values(reference_witness))
          << "seed " << seed << " @" << threads
          << " threads: witness values diverged";
      for (std::size_t i = 0; i < witness.size(); ++i) {
        EXPECT_EQ(witness.points()[i].defense,
                  reference_witness.points()[i].defense);
        EXPECT_EQ(witness.points()[i].attack,
                  reference_witness.points()[i].attack);
      }
    }
  }
}

TEST(BddGrain, DefaultGrainCollapsesTheTaskCount) {
  // fig4's BDD is a long chain of attack-variable nodes (singleton
  // fronts) under few defense variables: per-node tasks would be almost
  // all bookkeeping. Chunking must remove the bulk of them, not a
  // rounding error's worth.
  const AugmentedAdt aadt = catalog::fig4_exponential(10);
  TaskScheduler pool(2);

  // The build phase alone, on the same pool: its tasks and the BDD.
  const bdd::VarOrder order = resolve_order(aadt.adt(), {});
  bdd::Manager manager(order.num_vars());
  TaskRunStats build_stats;
  bdd::BuildOptions build;
  build.pool = &pool;
  build.stats = &build_stats;
  const std::vector<bdd::Ref> reach = manager.reachable(
      bdd::build_structure_function(manager, aadt.adt(), order, build));
  std::uint64_t nonterminals = 0;
  for (const bdd::Ref w : reach) {
    if (!manager.is_terminal(w)) ++nonterminals;
  }

  RunContext run;
  run.parallel_node_floor = 0;
  run.pool = &pool;
  const AnalysisResult report = traced_bdd_bu(aadt, run);
  ASSERT_EQ(report.bdd_size, reach.size());
  const std::uint64_t propagation_tasks =
      report.sched.tasks - build_stats.tasks;
  EXPECT_GT(propagation_tasks, 0u);
  EXPECT_LT(propagation_tasks, nonterminals / 2)
      << "chunking did not collapse the propagation task count";
}

TEST(BddGrain, GrainKeepsTheReportCountersCoherent) {
  // A chunked parallel run traces what the sequential run traces.
  const AugmentedAdt aadt = catalog::fig4_exponential(8);
  TaskScheduler pool(4);
  RunContext run;
  run.parallel_node_floor = 0;
  run.pool = &pool;
  const AnalysisResult chunked = traced_bdd_bu(aadt, run);
  const AnalysisResult sequential = traced_bdd_bu(aadt, RunContext{});
  EXPECT_GT(chunked.sched.tasks, 0u);
  EXPECT_TRUE(chunked.front.bit_identical_values(sequential.front));
  EXPECT_EQ(chunked.max_front_size, sequential.max_front_size);
  EXPECT_EQ(chunked.bdd_size, sequential.bdd_size);
  EXPECT_EQ(chunked.combine.staircase_merges,
            sequential.combine.staircase_merges);
}

}  // namespace
}  // namespace adtp
