#include "adt/transform.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "adt/structure.hpp"
#include "core/bottom_up.hpp"
#include "core/naive.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"
#include "run_on_stack.hpp"
#include "util/error.hpp"

namespace adtp {
namespace {

TEST(UnfoldToTree, TreeStaysIdentical) {
  const AugmentedAdt fig5 = catalog::fig5_example();
  const AugmentedAdt unfolded = unfold_to_tree(fig5);
  EXPECT_EQ(unfolded.adt().size(), fig5.adt().size());
  EXPECT_TRUE(unfolded.adt().is_tree());
  EXPECT_EQ(naive_front(unfolded).to_string(),
            naive_front(fig5).to_string());
}

TEST(UnfoldToTree, DuplicatesSharedNodes) {
  const AugmentedAdt dag = catalog::money_theft_dag();
  EXPECT_FALSE(dag.adt().is_tree());
  const AugmentedAdt tree = unfold_to_tree(dag);
  EXPECT_TRUE(tree.adt().is_tree());
  // Phishing feeds two parents; the tree gains exactly one clone.
  EXPECT_EQ(tree.adt().size(), dag.adt().size() + 1);
  EXPECT_TRUE(tree.adt().find("phishing").has_value());
  EXPECT_TRUE(tree.adt().find("phishing@2").has_value());
}

TEST(UnfoldToTree, ClonesInheritAttributeValues) {
  const AugmentedAdt tree = unfold_to_tree(catalog::money_theft_dag());
  EXPECT_EQ(tree.attribution().get("phishing"), 70);
  EXPECT_EQ(tree.attribution().get("phishing@2"), 70);
}

TEST(UnfoldToTree, PaperSectionVIATreeSemantics) {
  // The paper's manual unfolding: the tree-BU front differs from the DAG
  // front because Phishing must be paid twice.
  const AugmentedAdt tree = unfold_to_tree(catalog::money_theft_dag());
  EXPECT_EQ(bottom_up_front(tree).to_string(),
            "{(0, 90), (30, 150), (50, 165)}");
}

TEST(UnfoldToTree, LeafOriginMapsClones) {
  const UnfoldResult result = unfold_to_tree(catalog::money_theft_dag().adt());
  EXPECT_EQ(result.leaf_origin.at("phishing@2"), "phishing");
  EXPECT_EQ(result.leaf_origin.at("phishing"), "phishing");
}

TEST(UnfoldToTree, DeepSharingExpandsEverything) {
  // shared appears under two gates which are themselves shared.
  Adt adt;
  const NodeId shared = adt.add_basic("s", Agent::Attacker);
  const NodeId x = adt.add_basic("x", Agent::Attacker);
  const NodeId g1 = adt.add_gate("g1", GateType::And, Agent::Attacker,
                                 {shared, x});
  const NodeId y = adt.add_basic("y", Agent::Attacker);
  const NodeId g2 = adt.add_gate("g2", GateType::Or, Agent::Attacker,
                                 {g1, y});
  const NodeId g3 = adt.add_gate("g3", GateType::Or, Agent::Attacker,
                                 {g1, shared});
  const NodeId root = adt.add_gate("root", GateType::And, Agent::Attacker,
                                   {g2, g3});
  adt.set_root(root);
  adt.freeze();

  const UnfoldResult result = unfold_to_tree(adt);
  EXPECT_TRUE(result.tree.is_tree());
  // g1 expands twice (3 nodes each: g1, s, x), s once more, y, g2, g3, root.
  EXPECT_EQ(result.tree.size(), 11u);
}

TEST(UnfoldToTree, RequiresFrozen) {
  Adt adt;
  adt.add_basic("a", Agent::Attacker);
  EXPECT_THROW((void)unfold_to_tree(adt), ModelError);
}

TEST(ExtractSubgraph, KeepsNamesAndStructure) {
  const AugmentedAdt dag = catalog::money_theft_dag();
  const NodeId online = dag.adt().at("via_online_banking");
  const AugmentedAdt sub = extract_subgraph(dag, online);
  EXPECT_EQ(sub.adt().name(sub.adt().root()), "via_online_banking");
  EXPECT_TRUE(sub.adt().find("phishing").has_value());
  EXPECT_FALSE(sub.adt().find("via_atm").has_value());
  // Phishing is still shared inside the online branch.
  EXPECT_FALSE(sub.adt().is_tree());
  EXPECT_EQ(sub.attribution().get("phishing"), 70);
}

TEST(ExtractSubgraph, LeafSubgraph) {
  const AugmentedAdt dag = catalog::money_theft_dag();
  const AugmentedAdt sub = extract_subgraph(dag, dag.adt().at("phishing"));
  EXPECT_EQ(sub.adt().size(), 1u);
  EXPECT_EQ(sub.adt().num_attacks(), 1u);
}

TEST(ExtractSubgraph, OutOfRangeRejected) {
  const Adt adt = catalog::fig1_steal_data_at();
  EXPECT_THROW((void)extract_subgraph(adt, 999), ModelError);
}

TEST(ExtractSubgraph, WholeRootIsIdentity) {
  const AugmentedAdt dag = catalog::money_theft_dag();
  const AugmentedAdt sub = extract_subgraph(dag, dag.adt().root());
  EXPECT_EQ(sub.adt().size(), dag.adt().size());
  EXPECT_EQ(naive_front(sub).to_string(), naive_front(dag).to_string());
}

/// extract_subgraph's node order as its recursive form produced it: each
/// node after its children, left to right, the first visit winning.
Adt recursive_extract(const Adt& adt, NodeId v) {
  Adt sub;
  std::vector<NodeId> remap(adt.size(), kNoNode);
  std::function<NodeId(NodeId)> visit = [&](NodeId u) {
    if (remap[u] != kNoNode) return remap[u];
    const Node& n = adt.node(u);
    std::vector<NodeId> children;
    for (NodeId c : n.children) children.push_back(visit(c));
    if (n.type == GateType::BasicStep) {
      remap[u] = sub.add_basic(n.name, n.agent);
    } else if (n.type == GateType::Inhibit) {
      remap[u] = sub.add_inhibit(n.name, children[0], children[1]);
    } else {
      remap[u] = sub.add_gate(n.name, n.type, n.agent, children);
    }
    return remap[u];
  };
  sub.set_root(visit(v));
  sub.freeze();
  return sub;
}

TEST(ExtractSubgraph, KeepsTheRecursiveNodeOrder) {
  // Hybrid hands each blob's extraction to BDDBU, whose variable order
  // and trace follow these NodeIds.
  RandomAdtOptions options;
  options.target_nodes = 40;
  options.share_probability = 0.3;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const Adt adt = generate_random_adt(options, seed);
    for (NodeId v = 0; v < adt.size(); ++v) {
      const Adt got = extract_subgraph(adt, v);
      const Adt want = recursive_extract(adt, v);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " node " << v;
      EXPECT_EQ(got.root(), want.root());
      for (NodeId i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got.name(i), want.name(i));
        EXPECT_EQ(got.type(i), want.type(i));
        EXPECT_EQ(got.children(i), want.children(i))
            << "seed " << seed << " node " << v << " id " << i;
      }
    }
  }
}

TEST(ExtractSubgraph, DeepDagExtractsWithoutRecursion) {
  // 3,000 AND gates stacked over one leaf, each also taking one shared
  // leaf: a walk that takes a stack frame per level overflows a 256 KiB
  // thread stack.
  constexpr std::size_t kDepth = 3000;
  Adt adt;
  const NodeId shared = adt.add_basic("s", Agent::Attacker);
  NodeId top = adt.add_basic("l", Agent::Attacker);
  for (std::size_t i = 0; i < kDepth; ++i) {
    top = adt.add_gate("g" + std::to_string(i), GateType::And,
                       Agent::Attacker, {top, shared});
  }
  adt.set_root(top);
  adt.freeze();
  Adt sub;
  run_on_stack(256 * 1024, [&] { sub = extract_subgraph(adt, adt.root()); });
  ASSERT_EQ(sub.size(), adt.size());
  // Children first, left to right: the bottom leaf, then the shared one.
  EXPECT_EQ(sub.name(0), "l");
  EXPECT_EQ(sub.name(1), "s");
  EXPECT_EQ(sub.parents(1).size(), kDepth);
  EXPECT_EQ(sub.name(sub.root()), "g" + std::to_string(kDepth - 1));
}

/// unfold_to_tree's result as its recursive form produced it: each clone
/// named on entry (pre-order), added after its children, left to right
/// (post-order NodeIds).
UnfoldResult recursive_unfold(const Adt& adt) {
  UnfoldResult result;
  std::unordered_map<std::string, std::size_t> copies;
  std::function<NodeId(NodeId)> clone = [&](NodeId v) {
    const Node& n = adt.node(v);
    const std::size_t copy = ++copies[n.name];
    const std::string name =
        copy == 1 ? n.name : n.name + "@" + std::to_string(copy);
    if (name != n.name) result.leaf_origin.emplace(name, n.name);
    std::vector<NodeId> children;
    for (NodeId c : n.children) children.push_back(clone(c));
    if (n.type == GateType::BasicStep) {
      return result.tree.add_basic(name, n.agent);
    }
    if (n.type == GateType::Inhibit) {
      return result.tree.add_inhibit(name, children[0], children[1]);
    }
    return result.tree.add_gate(name, n.type, n.agent, children);
  };
  result.tree.set_root(clone(adt.root()));
  result.tree.freeze();
  for (const Node& n : result.tree.nodes()) {
    result.leaf_origin.try_emplace(n.name, n.name);
  }
  return result;
}

void expect_same_unfolding(const Adt& adt, const std::string& what) {
  const UnfoldResult got = unfold_to_tree(adt);
  const UnfoldResult want = recursive_unfold(adt);
  ASSERT_EQ(got.tree.size(), want.tree.size()) << what;
  EXPECT_EQ(got.tree.root(), want.tree.root()) << what;
  for (NodeId i = 0; i < got.tree.size(); ++i) {
    EXPECT_EQ(got.tree.name(i), want.tree.name(i)) << what << " id " << i;
    EXPECT_EQ(got.tree.type(i), want.tree.type(i)) << what << " id " << i;
    EXPECT_EQ(got.tree.agent(i), want.tree.agent(i)) << what << " id " << i;
    EXPECT_EQ(got.tree.children(i), want.tree.children(i))
        << what << " id " << i;
  }
  EXPECT_EQ(got.leaf_origin, want.leaf_origin) << what;
}

TEST(UnfoldToTree, KeepsTheRecursiveNodeOrder) {
  // Clone names and NodeIds are what callers see: the "@n" suffixes in
  // leaf_origin and every attribution keyed on them.
  expect_same_unfolding(catalog::money_theft_dag().adt(), "money_theft_dag");
  RandomAdtOptions options;
  options.target_nodes = 40;
  options.share_probability = 0.3;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    expect_same_unfolding(generate_random_adt(options, seed),
                          "seed " + std::to_string(seed));
  }
}

TEST(UnfoldToTree, DeepChainUnfoldsWithoutRecursion) {
  // 3,000 attacker AND gates stacked over one leaf, each also taking one
  // shared leaf: a walk that takes a stack frame per level overflows a
  // 256 KiB thread stack.
  constexpr std::size_t kDepth = 3000;
  Adt adt;
  const NodeId shared = adt.add_basic("s", Agent::Attacker);
  NodeId top = adt.add_basic("l", Agent::Attacker);
  for (std::size_t i = 0; i < kDepth; ++i) {
    std::string name = "g";
    name += std::to_string(i);
    top = adt.add_gate(std::move(name), GateType::And, Agent::Attacker,
                       {top, shared});
  }
  adt.set_root(top);
  adt.freeze();
  UnfoldResult result;
  run_on_stack(256 * 1024, [&] { result = unfold_to_tree(adt); });
  // The chain, its bottom leaf and one copy of the shared leaf per gate.
  ASSERT_EQ(result.tree.size(), 2 * kDepth + 1);
  EXPECT_TRUE(result.tree.is_tree());
  // Post-order ids: the bottom leaf, the deepest copy of s (named first,
  // so it keeps the plain name), their gate, then one copy per level.
  EXPECT_EQ(result.tree.name(0), "l");
  EXPECT_EQ(result.tree.name(1), "s");
  EXPECT_EQ(result.tree.name(2), "g0");
  EXPECT_EQ(result.tree.name(3), "s@2");
  EXPECT_EQ(result.tree.name(result.tree.root()),
            "g" + std::to_string(kDepth - 1));
  const std::string last = "s@" + std::to_string(kDepth);
  EXPECT_EQ(result.tree.parents(result.tree.at(last)).size(), 1u);
  EXPECT_EQ(result.leaf_origin.at(last), "s");
}

TEST(UnfoldToTree, StructureFunctionAgreesOnSharedInputs) {
  // Tree semantics: an event that activates *all* copies of a duplicated
  // leaf matches the DAG's activation of the shared leaf.
  RandomAdtOptions options;
  options.target_nodes = 25;
  options.share_probability = 0.3;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Adt dag = generate_random_adt(options, seed);
    const UnfoldResult unfolded = unfold_to_tree(dag);
    const Adt& tree = unfolded.tree;

    Rng rng(seed);
    for (int trial = 0; trial < 10; ++trial) {
      BitVec dag_defense(dag.num_defenses());
      BitVec dag_attack(dag.num_attacks());
      for (std::size_t i = 0; i < dag_defense.size(); ++i) {
        if (rng.chance(0.5)) dag_defense.set(i);
      }
      for (std::size_t i = 0; i < dag_attack.size(); ++i) {
        if (rng.chance(0.5)) dag_attack.set(i);
      }
      // Mirror the event onto every clone.
      BitVec tree_defense(tree.num_defenses());
      BitVec tree_attack(tree.num_attacks());
      for (NodeId leaf : tree.defense_steps()) {
        const std::string& origin = unfolded.leaf_origin.at(tree.name(leaf));
        if (dag_defense.test(dag.defense_index(dag.at(origin)))) {
          tree_defense.set(tree.defense_index(leaf));
        }
      }
      for (NodeId leaf : tree.attack_steps()) {
        const std::string& origin = unfolded.leaf_origin.at(tree.name(leaf));
        if (dag_attack.test(dag.attack_index(dag.at(origin)))) {
          tree_attack.set(tree.attack_index(leaf));
        }
      }
      EXPECT_EQ(evaluate_root(dag, dag_defense, dag_attack),
                evaluate_root(tree, tree_defense, tree_attack))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace adtp
