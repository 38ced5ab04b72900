#include "adt/adt.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"
#include "util/error.hpp"

namespace adtp {
namespace {

Adt small_tree() {
  Adt adt;
  const NodeId a1 = adt.add_basic("a1", Agent::Attacker);
  const NodeId a2 = adt.add_basic("a2", Agent::Attacker);
  const NodeId d1 = adt.add_basic("d1", Agent::Defender);
  const NodeId band = adt.add_gate("band", GateType::And, Agent::Attacker,
                                   {a1, a2});
  const NodeId inh = adt.add_inhibit("inh", band, d1);
  adt.set_root(inh);
  adt.freeze();
  return adt;
}

TEST(AdtModel, BuildAndQuery) {
  const Adt adt = small_tree();
  EXPECT_EQ(adt.size(), 5u);
  EXPECT_EQ(adt.name(adt.root()), "inh");
  EXPECT_EQ(adt.type(adt.root()), GateType::Inhibit);
  EXPECT_EQ(adt.agent(adt.root()), Agent::Attacker);
  EXPECT_EQ(adt.num_attacks(), 2u);
  EXPECT_EQ(adt.num_defenses(), 1u);
  EXPECT_TRUE(adt.is_tree());
}

TEST(AdtModel, FindAndAt) {
  const Adt adt = small_tree();
  EXPECT_TRUE(adt.find("a1").has_value());
  EXPECT_FALSE(adt.find("zz").has_value());
  EXPECT_EQ(adt.name(adt.at("band")), "band");
  EXPECT_THROW((void)adt.at("zz"), ModelError);
}

TEST(AdtModel, InhChildAccessors) {
  const Adt adt = small_tree();
  const NodeId inh = adt.at("inh");
  EXPECT_EQ(adt.name(adt.inhibited_child(inh)), "band");
  EXPECT_EQ(adt.name(adt.trigger_child(inh)), "d1");
  EXPECT_THROW((void)adt.inhibited_child(adt.at("a1")), ModelError);
}

TEST(AdtModel, ParentsComputed) {
  const Adt adt = small_tree();
  EXPECT_TRUE(adt.parents(adt.root()).empty());
  ASSERT_EQ(adt.parents(adt.at("a1")).size(), 1u);
  EXPECT_EQ(adt.parents(adt.at("a1"))[0], adt.at("band"));
}

TEST(AdtModel, TopologicalOrderChildrenFirst) {
  const Adt adt = small_tree();
  std::vector<std::size_t> position(adt.size());
  const auto& topo = adt.topological_order();
  for (std::size_t i = 0; i < topo.size(); ++i) position[topo[i]] = i;
  for (NodeId v = 0; v < adt.size(); ++v) {
    for (NodeId c : adt.children(v)) {
      EXPECT_LT(position[c], position[v]);
    }
  }
}

TEST(AdtModel, AttackDefenseIndexing) {
  const Adt adt = small_tree();
  EXPECT_EQ(adt.attack_index(adt.at("a1")), 0u);
  EXPECT_EQ(adt.attack_index(adt.at("a2")), 1u);
  EXPECT_EQ(adt.defense_index(adt.at("d1")), 0u);
  EXPECT_THROW((void)adt.attack_index(adt.at("d1")), ModelError);
  EXPECT_THROW((void)adt.defense_index(adt.at("a1")), ModelError);
  EXPECT_THROW((void)adt.attack_index(adt.at("band")), ModelError);
}

TEST(AdtModel, QueriesRequireFreeze) {
  Adt adt;
  adt.add_basic("a", Agent::Attacker);
  EXPECT_THROW((void)adt.root(), ModelError);
  EXPECT_THROW((void)adt.attack_steps(), ModelError);
  adt.freeze();
  EXPECT_EQ(adt.name(adt.root()), "a");
}

TEST(AdtModel, MutationAfterFreezeUnfreezes) {
  Adt adt;
  const NodeId a = adt.add_basic("a", Agent::Attacker);
  adt.freeze();
  EXPECT_TRUE(adt.frozen());
  const NodeId b = adt.add_basic("b", Agent::Attacker);
  EXPECT_FALSE(adt.frozen());
  const NodeId gate = adt.add_gate("or", GateType::Or, Agent::Attacker,
                                   {a, b});
  adt.set_root(gate);
  adt.freeze();
  EXPECT_EQ(adt.num_attacks(), 2u);
}

TEST(AdtModel, DuplicateNamesRejected) {
  Adt adt;
  adt.add_basic("x", Agent::Attacker);
  EXPECT_THROW(adt.add_basic("x", Agent::Defender), ModelError);
}

TEST(AdtModel, EmptyNamesRejected) {
  Adt adt;
  EXPECT_THROW(adt.add_basic("", Agent::Attacker), ModelError);
}

TEST(AdtModel, ChildrenMustExist) {
  Adt adt;
  EXPECT_THROW(adt.add_gate("g", GateType::And, Agent::Attacker, {5}),
               ModelError);
  EXPECT_THROW(adt.add_inhibit("i", 0, 1), ModelError);
}

TEST(AdtModel, GateTypeRestrictedInAddGate) {
  Adt adt;
  const NodeId a = adt.add_basic("a", Agent::Attacker);
  EXPECT_THROW(
      adt.add_gate("g", GateType::Inhibit, Agent::Attacker, {a, a}),
      ModelError);
  EXPECT_THROW(adt.add_gate("g", GateType::BasicStep, Agent::Attacker, {a}),
               ModelError);
}

TEST(AdtModel, EmptyGateRejected) {
  Adt adt;
  EXPECT_THROW(adt.add_gate("g", GateType::And, Agent::Attacker, {}),
               ModelError);
}

TEST(AdtModel, InhDistinctChildren) {
  Adt adt;
  const NodeId a = adt.add_basic("a", Agent::Attacker);
  EXPECT_THROW(adt.add_inhibit("i", a, a), ModelError);
}

TEST(AdtModel, Definition1MixedAgentAndOrRejected) {
  Adt adt;
  const NodeId a = adt.add_basic("a", Agent::Attacker);
  const NodeId d = adt.add_basic("d", Agent::Defender);
  adt.add_gate("g", GateType::And, Agent::Attacker, {a, d});
  EXPECT_THROW(adt.freeze(), ModelError);
}

TEST(AdtModel, Definition1InhOppositeAgents) {
  Adt adt;
  const NodeId a1 = adt.add_basic("a1", Agent::Attacker);
  const NodeId a2 = adt.add_basic("a2", Agent::Attacker);
  adt.add_inhibit("i", a1, a2);  // trigger must be the opposite agent
  EXPECT_THROW(adt.freeze(), ModelError);
}

TEST(AdtModel, UnreachableNodesRejected) {
  Adt adt;
  const NodeId a = adt.add_basic("a", Agent::Attacker);
  adt.add_basic("orphan", Agent::Attacker);
  adt.set_root(a);
  EXPECT_THROW(adt.freeze(), ModelError);
}

TEST(AdtModel, EmptyModelRejected) {
  Adt adt;
  EXPECT_THROW(adt.freeze(), ModelError);
}

TEST(AdtModel, SetRootValidates) {
  Adt adt;
  adt.add_basic("a", Agent::Attacker);
  EXPECT_THROW(adt.set_root(9), ModelError);
}

TEST(AdtModel, RootDefaultsToLastAdded) {
  Adt adt;
  const NodeId a = adt.add_basic("a", Agent::Attacker);
  const NodeId b = adt.add_basic("b", Agent::Attacker);
  adt.add_gate("top", GateType::Or, Agent::Attacker, {a, b});
  adt.freeze();  // no explicit set_root
  EXPECT_EQ(adt.name(adt.root()), "top");
}

TEST(AdtModel, DagDetection) {
  Adt adt;
  const NodeId shared = adt.add_basic("shared", Agent::Attacker);
  const NodeId a = adt.add_basic("a", Agent::Attacker);
  const NodeId g1 = adt.add_gate("g1", GateType::And, Agent::Attacker,
                                 {shared, a});
  const NodeId b = adt.add_basic("b", Agent::Attacker);
  const NodeId g2 = adt.add_gate("g2", GateType::And, Agent::Attacker,
                                 {shared, b});
  const NodeId root = adt.add_gate("root", GateType::Or, Agent::Attacker,
                                   {g1, g2});
  adt.set_root(root);
  adt.freeze();
  EXPECT_FALSE(adt.is_tree());
  EXPECT_EQ(adt.parents(shared).size(), 2u);
  const AdtStats stats = adt.stats();
  EXPECT_EQ(stats.shared_nodes, 1u);
  EXPECT_FALSE(stats.tree_shaped);
}

TEST(AdtModel, StatsCountGates) {
  const Adt adt = small_tree();
  const AdtStats stats = adt.stats();
  EXPECT_EQ(stats.nodes, 5u);
  EXPECT_EQ(stats.attack_steps, 2u);
  EXPECT_EQ(stats.defense_steps, 1u);
  EXPECT_EQ(stats.and_gates, 1u);
  EXPECT_EQ(stats.or_gates, 0u);
  EXPECT_EQ(stats.inh_gates, 1u);
  EXPECT_TRUE(stats.tree_shaped);
}

TEST(AdtModel, ToTextMentionsEveryNode) {
  const Adt adt = small_tree();
  const std::string text = adt.to_text();
  for (const Node& n : adt.nodes()) {
    EXPECT_NE(text.find(n.name), std::string::npos) << n.name;
  }
}

TEST(AdtModel, NodeIdOutOfRangeThrows) {
  const Adt adt = small_tree();
  EXPECT_THROW((void)adt.node(99), ModelError);
  EXPECT_THROW((void)adt.parents(99), ModelError);
}

TEST(AdtModel, NameIndexSurvivesGrowth) {
  constexpr std::size_t kLeaves = 100000;
  Adt adt;
  std::vector<NodeId> leaves;
  // Every name also lives back to back in one buffer, so a view of one
  // name runs straight into the next and is never NUL-terminated.
  std::string buffer;
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 0; i < kLeaves; ++i) {
    const std::string name = "leaf" + std::to_string(i);
    spans.emplace_back(buffer.size(), name.size());
    buffer += name;
    leaves.push_back(adt.add_basic(name, Agent::Attacker));
  }
  // The first names went in before the table doubled fourteen times.
  EXPECT_THROW(adt.add_basic("leaf0", Agent::Defender), ModelError);
  EXPECT_THROW(adt.add_basic("leaf77777", Agent::Attacker), ModelError);
  const NodeId top =
      adt.add_gate("top", GateType::Or, Agent::Attacker, leaves);
  adt.freeze();
  ASSERT_EQ(adt.size(), kLeaves + 1);

  const std::string_view all(buffer);
  for (std::size_t i = 0; i < kLeaves; ++i) {
    const auto found = adt.find(all.substr(spans[i].first, spans[i].second));
    ASSERT_TRUE(found.has_value()) << i;
    ASSERT_EQ(*found, leaves[i]) << i;
    ASSERT_EQ(adt.attack_index(leaves[i]), i);
  }
  EXPECT_EQ(adt.find("top"), top);
  for (const std::string_view miss :
       {"leaf100000", "leaf", "", "leaf-1", "leaf00", "top ", "Top"}) {
    EXPECT_FALSE(adt.find(miss).has_value()) << miss;
  }
}

/// parents(v) the slow way: every edge p -> v, by ascending p.
std::vector<NodeId> parents_by_edges(const Adt& adt, NodeId v) {
  std::vector<NodeId> parents;
  for (NodeId p = 0; p < adt.size(); ++p) {
    for (NodeId c : adt.children(p)) {
      if (c == v) parents.push_back(p);
    }
  }
  return parents;
}

TEST(AdtModel, ParentsMatchEdgeLists) {
  std::vector<Adt> models{catalog::money_theft_dag().adt()};
  RandomAdtOptions options;
  options.target_nodes = 60;
  options.share_probability = 0.3;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    models.push_back(generate_random_adt(options, seed));
  }
  std::size_t dags = 0;
  for (const Adt& adt : models) {
    if (!adt.is_tree()) ++dags;
    for (NodeId v = 0; v < adt.size(); ++v) {
      const auto parents = adt.parents(v);
      EXPECT_EQ(std::vector<NodeId>(parents.begin(), parents.end()),
                parents_by_edges(adt, v))
          << adt.name(v);
    }
  }
  EXPECT_FALSE(models.front().is_tree());
  EXPECT_GE(dags, 11u);
}

TEST(AdtModel, MutatingACopyLeavesTheOriginal) {
  const Adt original = small_tree();
  Adt copy = original;
  // Enough new nodes to grow the copy's name table past its first size.
  std::vector<NodeId> extra{copy.at("inh")};
  for (int i = 0; i < 40; ++i) {
    extra.push_back(copy.add_basic("x" + std::to_string(i), Agent::Attacker));
  }
  copy.set_root(copy.add_gate("top", GateType::Or, Agent::Attacker, extra));
  copy.freeze();
  ASSERT_EQ(copy.size(), 46u);
  EXPECT_EQ(copy.parents(copy.at("inh")).size(), 1u);
  EXPECT_EQ(copy.attack_index(copy.at("x39")), 41u);

  ASSERT_TRUE(original.frozen());
  EXPECT_EQ(original.size(), 5u);
  EXPECT_EQ(original.name(original.root()), "inh");
  EXPECT_FALSE(original.find("top").has_value());
  EXPECT_FALSE(original.find("x0").has_value());
  for (const char* name : {"a1", "a2", "d1", "band", "inh"}) {
    EXPECT_EQ(original.find(name), copy.find(name)) << name;
  }
  EXPECT_TRUE(original.parents(original.at("inh")).empty());
  ASSERT_EQ(original.parents(original.at("band")).size(), 1u);
  EXPECT_EQ(original.parents(original.at("band"))[0], original.at("inh"));
  EXPECT_EQ(original.num_attacks(), 2u);
  EXPECT_EQ(original.attack_index(original.at("a2")), 1u);
  EXPECT_EQ(original.defense_index(original.at("d1")), 0u);
}

TEST(AdtModel, CopiesOfAFrozenModelShareItsStorage) {
  const Adt original = small_tree();
  const Adt copy = original;
  EXPECT_EQ(&copy.nodes(), &original.nodes());
  EXPECT_EQ(&copy.topological_order(), &original.topological_order());
  EXPECT_EQ(&copy.attack_steps(), &original.attack_steps());
  EXPECT_EQ(copy.parents(copy.at("band")).data(),
            original.parents(original.at("band")).data());
  Adt assigned;
  assigned = copy;
  EXPECT_EQ(&assigned.nodes(), &original.nodes());

  // Mutating a copy moves it onto storage of its own (copy-on-write).
  assigned.add_basic("extra", Agent::Attacker);
  EXPECT_NE(&assigned.nodes(), &original.nodes());
  EXPECT_EQ(&copy.nodes(), &original.nodes());
  EXPECT_EQ(original.size(), 5u);
}

TEST(AdtModel, FreezeWritesAnUnfrozenModelInPlace) {
  Adt adt;
  const NodeId a = adt.add_basic("a", Agent::Attacker);
  const NodeId d = adt.add_basic("d", Agent::Defender);
  adt.add_inhibit("top", a, d);
  // An unfrozen model is copied, not shared, so freezing either one
  // writes its own storage.
  const Adt copy = adt;
  EXPECT_NE(&copy.nodes(), &adt.nodes());
  const std::vector<Node>* storage = &adt.nodes();
  adt.freeze();
  EXPECT_EQ(&adt.nodes(), storage);
  EXPECT_FALSE(copy.frozen());
}

TEST(AdtModel, MovedFromModelIsEmptyAndCanBeBuiltAgain) {
  Adt source = small_tree();
  const std::vector<Node>* storage = &source.nodes();
  const Adt moved = std::move(source);
  EXPECT_EQ(&moved.nodes(), storage);
  ASSERT_EQ(moved.size(), 5u);

  // The moved-from model holds nothing.
  EXPECT_EQ(source.size(), 0u);
  EXPECT_TRUE(source.nodes().empty());
  EXPECT_FALSE(source.frozen());
  EXPECT_FALSE(source.find("a1").has_value());
  EXPECT_THROW((void)source.node(0), ModelError);
  EXPECT_THROW((void)source.root(), ModelError);
  EXPECT_THROW(source.freeze(), ModelError);

  // ... and builds and freezes again, with a fresh name table.
  const NodeId a = source.add_basic("a1", Agent::Attacker);
  const NodeId b = source.add_basic("b", Agent::Attacker);
  source.add_gate("top", GateType::Or, Agent::Attacker, {a, b});
  source.freeze();
  EXPECT_EQ(source.size(), 3u);
  EXPECT_EQ(source.attack_index(b), 1u);
  EXPECT_FALSE(source.find("band").has_value());
  EXPECT_TRUE(source.is_tree());
  EXPECT_EQ(moved.size(), 5u);
  EXPECT_EQ(moved.name(moved.root()), "inh");

  Adt target = small_tree();
  target = std::move(source);
  EXPECT_EQ(target.size(), 3u);
  EXPECT_EQ(source.size(), 0u);
}

}  // namespace
}  // namespace adtp
