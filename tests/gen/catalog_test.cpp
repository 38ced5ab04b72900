#include "gen/catalog.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "adt/structure.hpp"
#include "core/analyzer.hpp"
#include "util/error.hpp"

namespace adtp {
namespace {

TEST(Catalog, Fig1Structure) {
  const Adt at = catalog::fig1_steal_data_at();
  EXPECT_EQ(at.size(), 7u);
  EXPECT_EQ(at.num_attacks(), 5u);
  EXPECT_EQ(at.num_defenses(), 0u);
  EXPECT_TRUE(at.is_tree());
  EXPECT_EQ(at.type(at.root()), GateType::And);
  // Any single credential theft plus SDK reaches the root.
  BitVec attack(5);
  attack.set(at.attack_index(at.at("BU")));
  EXPECT_FALSE(evaluate_root(at, BitVec(0), attack));
  attack.set(at.attack_index(at.at("SDK")));
  EXPECT_TRUE(evaluate_root(at, BitVec(0), attack));
}

TEST(Catalog, Fig2Structure) {
  const Adt adt = catalog::fig2_steal_data_adt();
  EXPECT_EQ(adt.num_attacks(), 6u);   // BU PA ESV ACV DNS SDK
  EXPECT_EQ(adt.num_defenses(), 3u);  // APUT SU SKO
  EXPECT_FALSE(adt.is_tree());        // SU_effective shared
  EXPECT_EQ(adt.parents(adt.at("SU_effective")).size(), 2u);
  // BU itself has no countermeasure, but SKO still blocks the decryption
  // key, so BU + SDK fails under full defense.
  BitVec defense(adt.num_defenses());
  for (std::size_t i = 0; i < defense.size(); ++i) defense.set(i);
  BitVec attack(adt.num_attacks());
  attack.set(adt.attack_index(adt.at("BU")));
  attack.set(adt.attack_index(adt.at("SDK")));
  EXPECT_FALSE(evaluate_root(adt, defense, attack));
}

TEST(Catalog, Fig3GoldenFront) {
  EXPECT_EQ(analyze(catalog::fig3_example()).front.to_string(),
            "{(0, 10), (15, 15)}");
}

TEST(Catalog, Fig4SizesAndBounds) {
  const AugmentedAdt fig4 = catalog::fig4_exponential(3);
  EXPECT_EQ(fig4.adt().size(), 10u);  // 3*(d,a,INH) + root
  EXPECT_EQ(fig4.adt().agent(fig4.adt().root()), Agent::Defender);
  EXPECT_THROW((void)catalog::fig4_exponential(0), ModelError);
  EXPECT_THROW((void)catalog::fig4_exponential(21), ModelError);
}

TEST(Catalog, Fig4WeightsArePowersOfTwo) {
  const AugmentedAdt fig4 = catalog::fig4_exponential(5);
  for (int i = 1; i <= 5; ++i) {
    const double expected = std::pow(2.0, i - 1);
    EXPECT_EQ(fig4.attribution().get("d" + std::to_string(i)), expected);
    EXPECT_EQ(fig4.attribution().get("a" + std::to_string(i)), expected);
  }
}

TEST(Catalog, Fig4ForestShape) {
  const AugmentedAdt forest = catalog::fig4_forest(8, 9);
  const Adt& adt = forest.adt();
  EXPECT_EQ(adt.size(), 489u);  // 8 * (2 * (9 * 3 + 1) + 5) + top
  EXPECT_TRUE(adt.is_tree());
  EXPECT_EQ(adt.name(adt.root()), "top");
  EXPECT_EQ(adt.num_attacks(), 8u * (2 * 9 + 2));
  EXPECT_EQ(adt.num_defenses(), 8u * 2 * 9);
  EXPECT_EQ(forest.attribution().get("a_r7_9"), 256);
  EXPECT_EQ(forest.attribution().get("bypass_3"), 32);
}

TEST(Catalog, Fig5GoldenFront) {
  EXPECT_EQ(analyze(catalog::fig5_example()).front.to_string(),
            "{(0, 5), (4, 10), (12, inf)}");
}

TEST(Catalog, MoneyTheftShape) {
  const AugmentedAdt dag = catalog::money_theft_dag();
  const AdtStats stats = dag.adt().stats();
  EXPECT_EQ(stats.attack_steps, 10u);
  EXPECT_EQ(stats.defense_steps, 3u);
  EXPECT_EQ(stats.shared_nodes, 1u);  // phishing
  EXPECT_FALSE(stats.tree_shaped);
  // Cost multiset sanity: totals match the figure.
  double attack_total = 0;
  for (NodeId id : dag.adt().attack_steps()) {
    attack_total += dag.attribution().get(dag.adt().name(id));
  }
  EXPECT_EQ(attack_total, 10 + 100 + 20 + 75 + 60 + 120 + 70 + 120 + 10 + 60);
  double defense_total = 0;
  for (NodeId id : dag.adt().defense_steps()) {
    defense_total += dag.attribution().get(dag.adt().name(id));
  }
  EXPECT_EQ(defense_total, 30 + 10 + 20);
}

TEST(Catalog, MoneyTheftGoldenFronts) {
  EXPECT_EQ(analyze(catalog::money_theft_dag()).front.to_string(),
            "{(0, 80), (20, 90), (50, 140)}");
  EXPECT_EQ(analyze(catalog::money_theft_tree()).front.to_string(),
            "{(0, 90), (30, 150), (50, 165)}");
}

TEST(Catalog, MoneyTheftTreeShape) {
  const AugmentedAdt tree = catalog::money_theft_tree();
  EXPECT_TRUE(tree.adt().is_tree());
  EXPECT_EQ(tree.adt().size(), catalog::money_theft_dag().adt().size() + 1);
}

}  // namespace
}  // namespace adtp
