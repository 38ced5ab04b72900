/// The AnalysisTrace on every AnalysisResult counts each front operation
/// exactly once: each kernel adds only its own combines, so a hybrid run
/// on a tree traces exactly bottom-up's work, a hybrid run that is one
/// blob traces exactly BDDBU's, and the thread count does not change the
/// count.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/analyzer.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"

namespace adtp {
namespace {

AnalysisResult run(const AugmentedAdt& aadt, Algorithm algorithm,
                   AnalysisOptions options = {}) {
  options.algorithm = algorithm;
  return analyze(aadt, options);
}

/// Two attacker ANDs share leaf "s" right under the root: hybrid must
/// hand the whole model to BDDBU as one blob.
AugmentedAdt root_level_blob() {
  Adt adt;
  const NodeId shared = adt.add_basic("s", Agent::Attacker);
  const NodeId x = adt.add_basic("x", Agent::Attacker);
  const NodeId g1 =
      adt.add_gate("g1", GateType::And, Agent::Attacker, {shared, x});
  const NodeId y = adt.add_basic("y", Agent::Attacker);
  const NodeId g2 =
      adt.add_gate("g2", GateType::And, Agent::Attacker, {shared, y});
  adt.set_root(
      adt.add_gate("root", GateType::Or, Agent::Attacker, {g1, g2}));
  adt.freeze();
  Attribution beta;
  beta.set("s", 5);
  beta.set("x", 3);
  beta.set("y", 1);
  return AugmentedAdt(std::move(adt), std::move(beta), Semiring::min_cost(),
                      Semiring::min_cost());
}

AugmentedAdt random_dag(std::uint64_t seed) {
  RandomAdtOptions options;
  options.target_nodes = 40;
  options.share_probability = 0.2;
  options.max_defenses = 8;
  return generate_random_aadt(options, seed, Semiring::min_cost(),
                              Semiring::min_cost());
}

TEST(AnalysisTrace, CountsEveryCombineOnce) {
  // (1) On a tree, hybrid's walk is bottom-up's fold, gate for gate.
  for (const AugmentedAdt& tree :
       {catalog::fig3_example(), catalog::fig5_example(),
        catalog::money_theft_tree(), catalog::fig4_exponential(8)}) {
    const AnalysisResult hybrid = run(tree, Algorithm::Hybrid);
    EXPECT_EQ(hybrid.blob_count, 0u);
    EXPECT_GT(hybrid.combine.kway_combines, 0u);
    EXPECT_EQ(hybrid.combine, run(tree, Algorithm::BottomUp).combine);
  }

  // (2) A model that is one root-level blob: hybrid is one BDDBU run.
  {
    const AugmentedAdt blob = root_level_blob();
    const AnalysisResult hybrid = run(blob, Algorithm::Hybrid);
    EXPECT_EQ(hybrid.blob_count, 1u);
    EXPECT_EQ(hybrid.largest_blob, blob.adt().size());
    EXPECT_EQ(hybrid.tree_combines, 0u);
    const AnalysisResult bdd = run(blob, Algorithm::BddBu);
    EXPECT_GT(bdd.bdd_size, 2u);
    EXPECT_EQ(hybrid.combine, bdd.combine);
    EXPECT_EQ(hybrid.bdd_size, bdd.bdd_size);
  }

  // (3) Four threads: per-slot arenas sum to the sequential count.
  AnalysisOptions wide;
  wide.intra_model_threads = 4;
  wide.run.parallel_node_floor = 0;
  for (const AugmentedAdt& tree :
       {catalog::fig5_example(), catalog::money_theft_tree(),
        catalog::fig4_exponential(8)}) {
    const AnalysisResult parallel = run(tree, Algorithm::BottomUp, wide);
    EXPECT_EQ(parallel.threads_used, 4u);
    EXPECT_EQ(parallel.combine, run(tree, Algorithm::BottomUp).combine);
  }
  for (const AugmentedAdt& model :
       {catalog::money_theft_dag(), catalog::fig4_exponential(8),
        random_dag(3)}) {
    for (Algorithm algorithm : {Algorithm::BddBu, Algorithm::Hybrid}) {
      const AnalysisResult parallel = run(model, algorithm, wide);
      const AnalysisResult sequential = run(model, algorithm);
      if (algorithm == Algorithm::BddBu || parallel.blob_count > 0) {
        EXPECT_EQ(parallel.threads_used, 4u) << to_string(algorithm);
      }
      EXPECT_EQ(parallel.combine, sequential.combine) << to_string(algorithm);
      EXPECT_EQ(parallel.bdd_size, sequential.bdd_size);
    }
  }
}

}  // namespace
}  // namespace adtp
