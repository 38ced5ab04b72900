#include "core/hybrid.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/analyzer.hpp"
#include "core/bdd_bu.hpp"
#include "core/bottom_up.hpp"
#include "core/naive.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"
#include "run_on_stack.hpp"

namespace adtp {
namespace {

/// Runs hybrid through analyze(), whose result carries the trace.
AnalysisResult traced_hybrid(const AugmentedAdt& aadt) {
  AnalysisOptions options;
  options.algorithm = Algorithm::Hybrid;
  return analyze(aadt, options);
}

/// Two parents of one shared leaf "s" under an attacker OR (a 6-node
/// blob), topped by a \p depth-deep attacker-AND chain whose every gate
/// adds one fresh attacker leaf of value 1.
AugmentedAdt blob_under_chain(std::size_t depth) {
  Adt adt;
  const NodeId shared = adt.add_basic("s", Agent::Attacker);
  const NodeId x = adt.add_basic("x", Agent::Attacker);
  const NodeId g1 = adt.add_gate("g1", GateType::And, Agent::Attacker,
                                 {shared, x});
  const NodeId y = adt.add_basic("y", Agent::Attacker);
  const NodeId g2 = adt.add_gate("g2", GateType::And, Agent::Attacker,
                                 {shared, y});
  NodeId top = adt.add_gate("root", GateType::Or, Agent::Attacker, {g1, g2});
  Attribution beta;
  beta.set("s", 5);
  beta.set("x", 3);
  beta.set("y", 1);
  for (std::size_t i = 0; i < depth; ++i) {
    const std::string leaf = "c" + std::to_string(i);
    const NodeId c = adt.add_basic(leaf, Agent::Attacker);
    top = adt.add_gate("and" + std::to_string(i), GateType::And,
                       Agent::Attacker, {top, c});
    beta.set(leaf, 1);
  }
  adt.set_root(top);
  adt.freeze();
  return AugmentedAdt(std::move(adt), std::move(beta), Semiring::min_cost(),
                      Semiring::min_cost());
}

TEST(Hybrid, MoneyTheftDagFront) {
  EXPECT_EQ(hybrid_front(catalog::money_theft_dag()).to_string(),
            "{(0, 80), (20, 90), (50, 140)}");
}

TEST(Hybrid, MoneyTheftUsesOneSmallBlob) {
  // The only shared structure is inside the online branch, so exactly one
  // blob goes to BDDBU and it is smaller than the whole model.
  const AnalysisResult report = traced_hybrid(catalog::money_theft_dag());
  EXPECT_EQ(report.blob_count, 1u);
  EXPECT_LT(report.largest_blob, catalog::money_theft_dag().adt().size());
  EXPECT_GT(report.tree_combines, 0u);
}

TEST(Hybrid, PureTreeNeverCallsBdd) {
  const AnalysisResult report = traced_hybrid(catalog::money_theft_tree());
  EXPECT_EQ(report.blob_count, 0u);
  EXPECT_EQ(report.front.to_string(), "{(0, 90), (30, 150), (50, 165)}");
}

TEST(Hybrid, TreeModelsMatchBottomUp) {
  for (const AugmentedAdt& model :
       {catalog::fig3_example(), catalog::fig5_example(),
        catalog::fig4_exponential(5)}) {
    EXPECT_TRUE(hybrid_front(model).same_values(
        bottom_up_front(model), model.defender_domain(),
        model.attacker_domain()));
  }
}

TEST(Hybrid, RootLevelSharingFallsBackToBdd) {
  // Two parents of one shared subtree directly under the root: the whole
  // model is one blob.
  const AugmentedAdt aadt = blob_under_chain(0);

  const AnalysisResult report = traced_hybrid(aadt);
  EXPECT_EQ(report.blob_count, 1u);
  EXPECT_EQ(report.largest_blob, aadt.adt().size());
  EXPECT_EQ(report.front.to_string(), "{(0, 6)}");  // s + y
}

TEST(Hybrid, DeepChainWalksWithoutRecursion) {
  // 3,000 tree-style gates over one blob: a walk that takes a stack frame
  // per level overflows a 256 KiB thread stack long before the blob.
  const AugmentedAdt aadt = blob_under_chain(3000);
  AnalysisResult report;
  run_on_stack(256 * 1024, [&] { report = traced_hybrid(aadt); });
  EXPECT_EQ(report.front.to_string(), "{(0, 3006)}");
  EXPECT_EQ(report.blob_count, 1u);
  EXPECT_EQ(report.tree_combines, 3000u);
}

TEST(Hybrid, MatchesNaiveOnRandomDags) {
  RandomAdtOptions options;
  options.target_nodes = 30;
  options.share_probability = 0.25;
  options.max_defenses = 6;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const AugmentedAdt aadt = generate_random_aadt(
        options, seed, Semiring::min_cost(), Semiring::min_cost());
    const Front hybrid = hybrid_front(aadt);
    const Front oracle = naive_front(aadt);
    EXPECT_TRUE(hybrid.same_values(oracle, aadt.defender_domain(),
                                   aadt.attacker_domain()))
        << "seed " << seed << ": " << hybrid.to_string() << " vs "
        << oracle.to_string();
  }
}

TEST(Hybrid, MatchesBddBuOnLargerDags) {
  RandomAdtOptions options;
  options.target_nodes = 90;
  options.share_probability = 0.15;
  options.max_defenses = 10;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const AugmentedAdt aadt = generate_random_aadt(
        options, seed, Semiring::min_cost(), Semiring::min_cost());
    const Front hybrid = hybrid_front(aadt);
    const Front bdd = bdd_bu_front(aadt);
    EXPECT_TRUE(hybrid.same_values(bdd, aadt.defender_domain(),
                                   aadt.attacker_domain()))
        << "seed " << seed << ": " << hybrid.to_string() << " vs "
        << bdd.to_string();
  }
}

}  // namespace
}  // namespace adtp
