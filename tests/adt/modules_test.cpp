#include "adt/modules.hpp"

#include <gtest/gtest.h>

#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"

namespace adtp {
namespace {

TEST(Modules, EveryTreeNodeIsAModule) {
  const AugmentedAdt fig3 = catalog::fig3_example();
  const ModuleInfo info = compute_modules(fig3.adt());
  for (NodeId v = 0; v < fig3.adt().size(); ++v) {
    EXPECT_TRUE(info.is_module[v]) << fig3.adt().name(v);
  }
  EXPECT_EQ(info.module_count(), fig3.adt().size());
}

TEST(Modules, DescendantsIncludeSelf) {
  const AugmentedAdt fig5 = catalog::fig5_example();
  const ModuleInfo info = compute_modules(fig5.adt());
  for (NodeId v = 0; v < fig5.adt().size(); ++v) {
    EXPECT_TRUE(info.descendants[v].test(v));
  }
}

TEST(Modules, RootDescendantsCoverEverything) {
  const AugmentedAdt dag = catalog::money_theft_dag();
  const ModuleInfo info = compute_modules(dag.adt());
  EXPECT_EQ(info.descendants[dag.adt().root()].count(), dag.adt().size());
  EXPECT_TRUE(info.is_module[dag.adt().root()]);
}

TEST(Modules, MoneyTheftSharingBreaksModules) {
  const AugmentedAdt dag = catalog::money_theft_dag();
  const Adt& adt = dag.adt();
  const ModuleInfo info = compute_modules(adt);
  // Phishing has two parents, so the two OR gates above it are not
  // modules...
  EXPECT_FALSE(info.is_module[adt.at("get_user_name")]);
  EXPECT_FALSE(info.is_module[adt.at("get_password")]);
  // ...but the online AND that contains all of phishing's parents is.
  EXPECT_TRUE(info.is_module[adt.at("via_online_banking")]);
  // The fully tree-shaped ATM branch is a module throughout.
  EXPECT_TRUE(info.is_module[adt.at("via_atm")]);
  EXPECT_TRUE(info.is_module[adt.at("learn_pin")]);
  // A shared leaf is trivially a module (no strict descendants).
  EXPECT_TRUE(info.is_module[adt.at("phishing")]);
}

TEST(Modules, Fig2SharedDefenseBreaksModules) {
  const Adt adt = catalog::fig2_steal_data_adt();
  const ModuleInfo info = compute_modules(adt);
  // SU_effective is shared by ESV_countered and ACV_countered.
  EXPECT_FALSE(info.is_module[adt.at("ESV_countered")]);
  EXPECT_FALSE(info.is_module[adt.at("ACV_countered")]);
  EXPECT_TRUE(info.is_module[adt.at("obtain_credentials")]);
  EXPECT_TRUE(info.is_module[adt.at("SU_effective")]);
}

TEST(Modules, ModulePropertyMatchesBruteForce) {
  RandomAdtOptions options;
  options.target_nodes = 35;
  options.share_probability = 0.3;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Adt adt = generate_random_adt(options, seed);
    const ModuleInfo info = compute_modules(adt);
    // Brute force: v is a module iff removing v disconnects its strict
    // descendants from the root.
    for (NodeId v = 0; v < adt.size(); ++v) {
      // Reachability from the root avoiding v.
      std::vector<char> reach(adt.size(), 0);
      if (adt.root() != v) {
        std::vector<NodeId> stack{adt.root()};
        reach[adt.root()] = 1;
        while (!stack.empty()) {
          const NodeId u = stack.back();
          stack.pop_back();
          for (NodeId c : adt.children(u)) {
            if (c != v && !reach[c]) {
              reach[c] = 1;
              stack.push_back(c);
            }
          }
        }
      }
      bool expected = true;
      for (std::size_t w : info.descendants[v].set_bits()) {
        if (w != v && reach[w]) expected = false;
      }
      EXPECT_EQ(info.is_module[v] != 0, expected)
          << "seed " << seed << " node " << adt.name(v);
    }
  }
}

TEST(Modules, SingleParentModuleChildrenNeverOverlap) {
  // Hybrid folds a gate tree-style when each child has one parent and is
  // a module, and relies on that alone for the children's descendant
  // sets being pairwise disjoint: a node below two such children would
  // give one of them a strict descendant with a parent outside it, or
  // would close a cycle through the gate.
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    RandomAdtOptions options;
    options.target_nodes = 20 + seed % 40;
    options.share_probability = 0.05 + 0.1 * static_cast<double>(seed % 5);
    const Adt adt = generate_random_adt(options, seed);
    const ModuleInfo info = compute_modules(adt);
    for (NodeId v = 0; v < adt.size(); ++v) {
      const auto& children = adt.children(v);
      if (children.empty()) continue;
      bool single_parent_modules = true;
      for (NodeId c : children) {
        if (adt.parents(c).size() != 1 || !info.is_module[c]) {
          single_parent_modules = false;
        }
      }
      if (!single_parent_modules) continue;
      ++checked;
      for (std::size_t i = 0; i < children.size(); ++i) {
        for (std::size_t j = i + 1; j < children.size(); ++j) {
          EXPECT_FALSE(info.descendants[children[i]].intersects(
              info.descendants[children[j]]))
              << "seed " << seed << " gate " << adt.name(v);
        }
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

}  // namespace
}  // namespace adtp
