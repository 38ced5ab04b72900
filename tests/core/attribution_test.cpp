#include "core/attribution.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.hpp"
#include "core/front_cache.hpp"
#include "core/node_memo.hpp"
#include "gen/catalog.hpp"
#include "gen/random_adt.hpp"
#include "util/error.hpp"

namespace adtp {
namespace {

Adt two_leaf_adt() {
  Adt adt;
  const NodeId a = adt.add_basic("a", Agent::Attacker);
  const NodeId d = adt.add_basic("d", Agent::Defender);
  adt.add_inhibit("top", a, d);
  adt.freeze();
  return adt;
}

TEST(Attribution, SetGetHas) {
  Attribution beta;
  EXPECT_FALSE(beta.has("a"));
  beta.set("a", 5);
  EXPECT_TRUE(beta.has("a"));
  EXPECT_EQ(beta.get("a"), 5);
  beta.set("a", 7);  // overwrite
  EXPECT_EQ(beta.get("a"), 7);
  EXPECT_EQ(beta.size(), 1u);
  EXPECT_THROW((void)beta.get("missing"), AttributionError);
}

TEST(Attribution, ValidateCompleteAssignment) {
  Attribution beta;
  beta.set("a", 1);
  beta.set("d", 2);
  EXPECT_NO_THROW(beta.validate(two_leaf_adt()));
}

TEST(Attribution, ValidateMissingAttackValue) {
  Attribution beta;
  beta.set("d", 2);
  EXPECT_THROW(beta.validate(two_leaf_adt()), AttributionError);
}

TEST(Attribution, ValidateMissingDefenseValue) {
  Attribution beta;
  beta.set("a", 1);
  EXPECT_THROW(beta.validate(two_leaf_adt()), AttributionError);
}

TEST(Attribution, ValidateUnknownName) {
  Attribution beta;
  beta.set("a", 1);
  beta.set("d", 2);
  beta.set("ghost", 3);
  EXPECT_THROW(beta.validate(two_leaf_adt()), AttributionError);
}

TEST(Attribution, ValidateGateValueRejected) {
  Attribution beta;
  beta.set("a", 1);
  beta.set("d", 2);
  beta.set("top", 3);
  EXPECT_THROW(beta.validate(two_leaf_adt()), AttributionError);
}

TEST(Attribution, ValidateNanRejected) {
  Attribution beta;
  beta.set("a", std::nan(""));
  beta.set("d", 2);
  EXPECT_THROW(beta.validate(two_leaf_adt()), AttributionError);
}

TEST(AugmentedAdt, DenseLookups) {
  const AugmentedAdt fig5 = catalog::fig5_example();
  const Adt& adt = fig5.adt();
  EXPECT_EQ(fig5.attack_value(adt.attack_index(adt.at("a1"))), 5);
  EXPECT_EQ(fig5.attack_value(adt.attack_index(adt.at("a2"))), 10);
  EXPECT_EQ(fig5.defense_value(adt.defense_index(adt.at("d1"))), 4);
  EXPECT_EQ(fig5.value_of(adt.at("d2")), 8);
  EXPECT_THROW((void)fig5.value_of(adt.at("top")), AttributionError);
}

TEST(AugmentedAdt, ConstructorValidates) {
  Adt adt = two_leaf_adt();
  Attribution beta;
  beta.set("a", 1);  // missing d
  EXPECT_THROW(AugmentedAdt(adt, beta, Semiring::min_cost(),
                            Semiring::min_cost()),
               AttributionError);
}

TEST(AugmentedAdt, Example1MetricValues) {
  // Example 1: beta_D({d1,d2}) = 15, beta_A({a1,a2}) = 15 on Fig. 3.
  const AugmentedAdt fig3 = catalog::fig3_example();
  EXPECT_EQ(fig3.defense_vector_value(BitVec::from_string("11")), 15);
  EXPECT_EQ(fig3.attack_vector_value(BitVec::from_string("110")), 15);
  // Empty vectors take the neutral element 1_tensor.
  EXPECT_EQ(fig3.defense_vector_value(BitVec::from_string("00")), 0);
  EXPECT_EQ(fig3.attack_vector_value(BitVec::from_string("000")), 0);
}

TEST(AugmentedAdt, VectorValuesUseDomainCombine) {
  Adt adt = two_leaf_adt();
  Attribution beta;
  beta.set("a", 0.5);
  beta.set("d", 0.25);
  const AugmentedAdt aadt(std::move(adt), std::move(beta),
                          Semiring::probability(), Semiring::probability());
  BitVec defense(1);
  defense.set(0);
  BitVec attack(1);
  attack.set(0);
  EXPECT_DOUBLE_EQ(aadt.defense_vector_value(defense), 0.25);
  EXPECT_DOUBLE_EQ(aadt.attack_vector_value(attack), 0.5);
  // Neutral element of * is 1.
  EXPECT_DOUBLE_EQ(aadt.attack_vector_value(BitVec(1)), 1.0);
}

TEST(AugmentedAdt, FreezesUnfrozenInput) {
  Adt adt;
  adt.add_basic("a", Agent::Attacker);
  Attribution beta;
  beta.set("a", 3);
  const AugmentedAdt aadt(std::move(adt), std::move(beta),
                          Semiring::min_cost(), Semiring::min_cost());
  EXPECT_TRUE(aadt.adt().frozen());
  EXPECT_EQ(aadt.adt().num_attacks(), 1u);
}


TEST(AugmentedAdt, FreezingAMovedInModelDoesNotClone) {
  Adt adt;
  const NodeId a = adt.add_basic("a", Agent::Attacker);
  const NodeId d = adt.add_basic("d", Agent::Defender);
  adt.add_inhibit("top", a, d);
  const std::vector<Node>* storage = &adt.nodes();
  Attribution beta;
  beta.set("a", 3);
  beta.set("d", 2);
  const AugmentedAdt aadt(std::move(adt), std::move(beta),
                          Semiring::min_cost(), Semiring::min_cost());
  EXPECT_TRUE(aadt.adt().frozen());
  EXPECT_EQ(&aadt.adt().nodes(), storage);
  EXPECT_EQ(adt.size(), 0u);
}

TEST(AugmentedAdt, ReattributedModelsShareTheStructure) {
  const AugmentedAdt model = catalog::fig4_forest(3, 5);
  const Adt& adt = model.adt();
  Attribution beta = model.attribution();
  beta.set(adt.name(adt.attack_steps().front()), 99);
  const AugmentedAdt edited(adt, std::move(beta), model.defender_domain(),
                            model.attacker_domain());
  EXPECT_EQ(&edited.adt().nodes(), &adt.nodes());
  EXPECT_EQ(&edited.adt().defense_steps(), &adt.defense_steps());
  EXPECT_EQ(edited.attack_value(0), 99);
  EXPECT_NE(model.attack_value(0), 99);
}

TEST(AugmentedAdt, ConcurrentRebuildsFromOneModelMatchSerialRuns) {
  // Eight threads rebuild models over one shared structure - a tree and
  // a DAG - and analyze them; each copy of the Adt only bumps the
  // shared State's reference count, so this is clean under TSan.
  for (const AugmentedAdt& shared :
       {catalog::fig4_forest(3, 5), catalog::money_theft_dag()}) {
    const Adt& adt = shared.adt();
    constexpr std::size_t kThreads = 8;
    auto rebuilt = [&](std::size_t i) {
      const NodeId leaf = i % 2 == 0
                              ? adt.attack_steps()[i % adt.num_attacks()]
                              : adt.defense_steps()[i % adt.num_defenses()];
      Attribution beta = shared.attribution();
      beta.set(adt.name(leaf), static_cast<double>(7 + 3 * i));
      return AugmentedAdt(adt, std::move(beta), shared.defender_domain(),
                          shared.attacker_domain());
    };
    std::vector<Front> serial;
    for (std::size_t i = 0; i < kThreads; ++i) {
      serial.push_back(analyze(rebuilt(i)).front);
    }
    std::vector<int> identical(kThreads, 0);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        bool same = true;
        for (int round = 0; round < 20; ++round) {
          const AugmentedAdt model = rebuilt(i);
          same = same && &model.adt().nodes() == &adt.nodes() &&
                 analyze(model).front.bit_identical_values(serial[i]);
        }
        identical[i] = same ? 1 : 0;
      });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t i = 0; i < kThreads; ++i) {
      EXPECT_EQ(identical[i], 1) << adt.size() << " nodes, thread " << i;
    }
  }
}

TEST(AugmentedAdt, DomainRangeValidation) {
  auto build = [](double attack_value, double defense_value,
                  Semiring dd, Semiring da) {
    Adt adt;
    const NodeId a = adt.add_basic("a", Agent::Attacker);
    const NodeId d = adt.add_basic("d", Agent::Defender);
    adt.add_inhibit("top", a, d);
    adt.freeze();
    Attribution beta;
    beta.set("a", attack_value);
    beta.set("d", defense_value);
    return AugmentedAdt(std::move(adt), std::move(beta), std::move(dd),
                        std::move(da));
  };
  // Negative cost: outside [0, inf].
  EXPECT_THROW(build(-5, 2, Semiring::min_cost(), Semiring::min_cost()),
               AttributionError);
  EXPECT_THROW(build(5, -2, Semiring::min_cost(), Semiring::min_cost()),
               AttributionError);
  // Probability outside [0, 1].
  EXPECT_THROW(build(1.5, 2, Semiring::min_cost(), Semiring::probability()),
               AttributionError);
  EXPECT_NO_THROW(build(0.5, 2, Semiring::min_cost(),
                        Semiring::probability()));
  // inf is a legal cost ("cannot be bought").
  EXPECT_NO_THROW(build(5, std::numeric_limits<double>::infinity(),
                        Semiring::min_cost(), Semiring::min_cost()));
  // Custom domains accept anything non-NaN.
  const Semiring damage = Semiring::custom(
      "damage", 0.0, -std::numeric_limits<double>::infinity(),
      [](double x, double y) { return x + y; },
      [](double x, double y) { return x >= y; });
  EXPECT_NO_THROW(build(-5, 2, Semiring::min_cost(), damage));
}

/// \p aadt built again from nothing: a fresh Adt added node by node and
/// a fresh attribution set in reverse leaf order, with \p leaf set to
/// \p value.
AugmentedAdt rebuilt_with(const AugmentedAdt& aadt, NodeId leaf,
                          double value) {
  const Adt& adt = aadt.adt();
  Adt fresh;
  for (const Node& n : adt.nodes()) {
    switch (n.type) {
      case GateType::BasicStep:
        fresh.add_basic(n.name, n.agent);
        break;
      case GateType::Inhibit:
        fresh.add_inhibit(n.name, n.children[0], n.children[1]);
        break;
      default:
        fresh.add_gate(n.name, n.type, n.agent, n.children);
    }
  }
  fresh.set_root(adt.root());
  Attribution beta;
  for (NodeId v = static_cast<NodeId>(adt.size()); v-- > 0;) {
    if (adt.type(v) != GateType::BasicStep) continue;
    beta.set(adt.name(v), v == leaf ? value : aadt.value_of(v));
  }
  return AugmentedAdt(std::move(fresh), std::move(beta),
                      aadt.defender_domain(), aadt.attacker_domain());
}

TEST(AugmentedAdt, ReattributedCopyKeepsKeys) {
  std::vector<AugmentedAdt> models{
      catalog::fig3_example(),      catalog::fig4_exponential(6),
      catalog::fig5_example(),      catalog::money_theft_dag(),
      catalog::money_theft_tree(),  catalog::fig4_forest(3, 5)};
  RandomAdtOptions options;
  options.target_nodes = 50;
  options.share_probability = 0.2;
  options.max_defenses = 8;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    models.push_back(generate_random_aadt(options, seed, Semiring::min_cost(),
                                          Semiring::min_cost()));
  }
  const AnalysisOptions analysis;
  for (const AugmentedAdt& model : models) {
    const Adt& adt = model.adt();
    // The first attack step and the last defense step, each raised.
    std::vector<NodeId> edited;
    if (adt.num_attacks() > 0) edited.push_back(adt.attack_steps().front());
    if (adt.num_defenses() > 0) edited.push_back(adt.defense_steps().back());
    for (const NodeId leaf : edited) {
      const double value = model.value_of(leaf) + 3;
      Attribution beta = model.attribution();
      beta.set(adt.name(leaf), value);
      const AugmentedAdt reattributed(adt, std::move(beta),
                                      model.defender_domain(),
                                      model.attacker_domain());
      const AugmentedAdt scratch = rebuilt_with(model, leaf, value);
      EXPECT_EQ(reattributed.value_of(leaf), value);
      EXPECT_EQ(front_cache_key(reattributed, analysis),
                front_cache_key(scratch, analysis))
          << adt.name(leaf);
      EXPECT_FALSE(front_cache_key(reattributed, analysis) ==
                   front_cache_key(model, analysis));
      EXPECT_EQ(subtree_value_hashes(reattributed),
                subtree_value_hashes(scratch))
          << adt.name(leaf);
    }
  }
}

TEST(AugmentedAdt, ErrorsKeepTheirOrder) {
  auto message = [](Attribution beta, Semiring attacker_domain) {
    try {
      const AugmentedAdt aadt(two_leaf_adt(), std::move(beta),
                              Semiring::min_cost(), std::move(attacker_domain));
    } catch (const AttributionError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  // d has no value and a is outside min cost: the missing step wins.
  Attribution missing;
  missing.set("a", -1e-9);
  EXPECT_EQ(message(missing, Semiring::min_cost()),
            "Attribution: basic defense step 'd' has no value");
  // With d set, the domain check reports the exact value.
  Attribution negative = missing;
  negative.set("d", 2);
  EXPECT_EQ(message(negative, Semiring::min_cost()),
            "AugmentedAdt: value -1e-09 of attack step 'a' is outside the "
            "min cost domain");
  Attribution above_one = negative;
  above_one.set("a", 1.25);
  EXPECT_EQ(message(above_one, Semiring::probability()),
            "AugmentedAdt: value 1.25 of attack step 'a' is outside the " +
                Semiring::probability().name() + " domain");
  // Entry errors come before missing steps, in the order values were set.
  Attribution unknown;
  unknown.set("ghost", 1);
  unknown.set("top", 1);
  EXPECT_EQ(message(unknown, Semiring::min_cost()),
            "Attribution: value assigned to unknown node 'ghost'");
  Attribution gate;
  gate.set("top", 1);
  gate.set("ghost", 1);
  EXPECT_EQ(message(gate, Semiring::min_cost()),
            "Attribution: 'top' is a gate; only basic steps carry values");
  Attribution nan;
  nan.set("d", 2);
  nan.set("a", std::nan(""));
  EXPECT_EQ(message(nan, Semiring::min_cost()),
            "Attribution: value of 'a' is NaN");
  // validate() runs the same checks, short of the domains.
  EXPECT_THROW(unknown.validate(two_leaf_adt()), AttributionError);
  EXPECT_THROW(gate.validate(two_leaf_adt()), AttributionError);
  EXPECT_THROW(nan.validate(two_leaf_adt()), AttributionError);
  EXPECT_THROW(missing.validate(two_leaf_adt()), AttributionError);
  EXPECT_NO_THROW(negative.validate(two_leaf_adt()));
}

TEST(Semiring, ContainsTableIRanges) {
  EXPECT_TRUE(Semiring::min_cost().contains(0));
  EXPECT_TRUE(Semiring::min_cost().contains(
      std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(Semiring::min_cost().contains(-0.001));
  EXPECT_FALSE(
      Semiring::min_cost().contains(std::nan("")));
  EXPECT_TRUE(Semiring::probability().contains(0));
  EXPECT_TRUE(Semiring::probability().contains(1));
  EXPECT_FALSE(Semiring::probability().contains(1.001));
  EXPECT_FALSE(Semiring::probability().contains(-0.1));
}

}  // namespace
}  // namespace adtp
