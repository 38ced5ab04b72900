/// Incremental-equals-cold fuzz harness.
///
/// A NodeFrontMemo persists across an edit *sequence* - cost tweaks,
/// defense removals (toggles), subtree grafts, and masked edits whose
/// effect an ancestor hides - exactly the interactive serving pattern
/// the memo exists for. After every edit the memoized re-analysis must
/// be bit-identical to a cold one at 1, 2 and 8 threads
/// (parallel_node_floor = 0 forces the task-DAG path even on tiny
/// models), and so must the edited model's witnesses, which never
/// consult the memo. Masked edits make the walk replay gates by value
/// key (early cutoffs), and the suite checks that they fire. This suite
/// pins the "Incremental equals cold" contract of docs/CONTRACTS.md -
/// update both together.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "core/node_memo.hpp"
#include "core/whatif.hpp"
#include "gen/random_adt.hpp"

namespace adtp {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

struct FuzzDomains {
  SemiringKind defender;
  SemiringKind attacker;
};

constexpr FuzzDomains kDomainPalette[] = {
    {SemiringKind::MinCost, SemiringKind::MinCost},
    {SemiringKind::MinCost, SemiringKind::MinTimePar},
    {SemiringKind::MinSkill, SemiringKind::MinCost},
    {SemiringKind::MinCost, SemiringKind::Probability},
    {SemiringKind::MinTimeSeq, SemiringKind::MinSkill},
};

AugmentedAdt model_for_seed(std::uint64_t seed, bool dag) {
  RandomAdtOptions options;
  options.share_probability = dag ? 0.3 : 0.0;
  options.max_defenses = 6;
  options.target_nodes = 14 + seed % 16;
  const FuzzDomains domains =
      kDomainPalette[seed % (sizeof(kDomainPalette) /
                             sizeof(kDomainPalette[0]))];
  return generate_random_aadt(options, seed, Semiring{domains.defender},
                              Semiring{domains.attacker});
}

/// Edit kind 0: a leaf attribute tweak (deterministic per step).
AugmentedAdt tweak_cost(const AugmentedAdt& base, std::uint64_t salt) {
  const Adt& adt = base.adt();
  std::vector<NodeId> leaves = adt.attack_steps();
  leaves.insert(leaves.end(), adt.defense_steps().begin(),
                adt.defense_steps().end());
  const NodeId leaf = leaves[salt % leaves.size()];
  Attribution attribution = base.attribution();
  double value = attribution.get(adt.name(leaf)) + 1 + double(salt % 5);
  if (base.attacker_domain().kind() == SemiringKind::Probability ||
      base.defender_domain().kind() == SemiringKind::Probability) {
    value = 0.25 + 0.1 * double(salt % 7);  // keep probabilities in [0, 1]
  }
  attribution.set(adt.name(leaf), value);
  return AugmentedAdt(adt, attribution, base.defender_domain(),
                      base.attacker_domain());
}

/// Edit kind 1: toggle a defense off via the what-if fold; falls back to
/// a tweak when the model has no defenses or the fold trivializes it.
AugmentedAdt toggle_defense(const AugmentedAdt& base, std::uint64_t salt) {
  const Adt& adt = base.adt();
  if (adt.num_defenses() != 0) {
    const NodeId leaf =
        adt.defense_steps()[salt % adt.num_defenses()];
    if (auto reduced = with_basic_step_removed(base, leaf)) {
      return std::move(*reduced);
    }
  }
  return tweak_cost(base, salt);
}

/// Edit kind 2: graft a fresh subtree at the root. The old root's whole
/// subtree stays byte-identical, so an incremental re-analysis should
/// replay it from the memo wholesale.
AugmentedAdt graft_subtree(const AugmentedAdt& base, std::uint64_t salt) {
  const Adt& old = base.adt();
  Adt adt;
  std::vector<NodeId> map(old.size(), kNoNode);
  for (NodeId v : old.topological_order()) {
    switch (old.type(v)) {
      case GateType::BasicStep:
        map[v] = adt.add_basic(old.name(v), old.agent(v));
        break;
      case GateType::And:
      case GateType::Or: {
        std::vector<NodeId> children;
        for (NodeId c : old.children(v)) children.push_back(map[c]);
        map[v] = adt.add_gate(old.name(v), old.type(v), old.agent(v),
                              std::move(children));
        break;
      }
      case GateType::Inhibit:
        map[v] = adt.add_inhibit(old.name(v), map[old.inhibited_child(v)],
                                 map[old.trigger_child(v)]);
        break;
    }
  }
  const std::string leaf_name = "graft_leaf_" + std::to_string(salt);
  const Agent agent = old.agent(old.root());
  const NodeId leaf = adt.add_basic(leaf_name, agent);
  adt.set_root(adt.add_gate("graft_or_" + std::to_string(salt), GateType::Or,
                            agent, {map[old.root()], leaf}));
  adt.freeze();
  Attribution attribution = base.attribution();
  const bool probability =
      (agent == Agent::Attacker
           ? base.attacker_domain().kind()
           : base.defender_domain().kind()) == SemiringKind::Probability;
  attribution.set(leaf_name, probability ? 0.5 : 3 + double(salt % 4));
  return AugmentedAdt(std::move(adt), std::move(attribution),
                      base.defender_domain(), base.attacker_domain());
}

/// Two values that move \p leaf far from where it can matter: a
/// thousandfold (or +1000) value, or a near-zero or near-one
/// probability. Each pair's values differ, so the two edits of a pair
/// have different subtree keys.
std::vector<std::pair<double, double>> far_value_pairs(
    const AugmentedAdt& base, NodeId leaf) {
  const SemiringKind kind = base.adt().agent(leaf) == Agent::Attacker
                                ? base.attacker_domain().kind()
                                : base.defender_domain().kind();
  if (kind == SemiringKind::Probability) {
    return {{0.001, 0.002}, {0.999, 0.998}};
  }
  const double v = base.attribution().get(base.adt().name(leaf));
  return {{1000 * v + 1, 1000 * v + 2}, {v + 1000, v + 1001}};
}

/// Edit kind 3, on trees: two edits of one leaf, each from \p base,
/// whose effect is masked below a gate G that has a gate child off the
/// edited spine. G's child fronts are then bit-identical to \p base's
/// in both edits, and a replayed child makes G look its value key up:
/// the first edit files G's fold under it, and the second replays it.
/// Candidates are checked against cold per-node fronts
/// (bottom_up_all_fronts). nullopt on DAGs (no per-node cold fronts)
/// and when no leaf qualifies.
std::optional<std::pair<AugmentedAdt, AugmentedAdt>> masked_edit_pair(
    const AugmentedAdt& base, std::uint64_t salt) {
  const Adt& adt = base.adt();
  if (!adt.is_tree()) return std::nullopt;
  const std::vector<Front> cold = bottom_up_all_fronts(base);
  std::vector<NodeId> leaves = adt.attack_steps();
  leaves.insert(leaves.end(), adt.defense_steps().begin(),
                adt.defense_steps().end());
  const auto edited = [&](NodeId leaf, double value) {
    Attribution attribution = base.attribution();
    attribution.set(adt.name(leaf), value);
    return AugmentedAdt(adt, std::move(attribution), base.defender_domain(),
                        base.attacker_domain());
  };
  for (std::size_t k = 0; k < leaves.size(); ++k) {
    const NodeId leaf = leaves[(salt + k) % leaves.size()];
    for (const auto& [v1, v2] : far_value_pairs(base, leaf)) {
      AugmentedAdt first = edited(leaf, v1);
      AugmentedAdt second = edited(leaf, v2);
      const std::vector<Front> a = bottom_up_all_fronts(first);
      const std::vector<Front> b = bottom_up_all_fronts(second);
      // Walk up the spine: `child` is the spine node below gate `g`.
      for (NodeId child = leaf; child != adt.root();) {
        const NodeId g = adt.parents(child)[0];
        const bool masked = a[child].bit_identical_values(cold[child]) &&
                            b[child].bit_identical_values(cold[child]);
        bool gate_sibling = false;
        for (NodeId c : adt.children(g)) {
          gate_sibling |= c != child && adt.type(c) != GateType::BasicStep;
        }
        if (masked && gate_sibling) {
          return std::pair{std::move(first), std::move(second)};
        }
        child = g;
      }
    }
  }
  return std::nullopt;
}

class IncrementalFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalFuzz, EditSequencesStayBitIdenticalToCold) {
  const std::uint64_t seed = GetParam();
  const bool dag = seed % 2 == 0;
  AugmentedAdt current = model_for_seed(seed, dag);

  NodeFrontMemo memo;  // persists across the whole edit sequence
  std::uint64_t total_hits = 0;
  // Steps 1-6 cycle tweak, toggle and graft; steps 7 and 8 are the two
  // edits of a masked pair (tweaks when none qualifies).
  constexpr int kEdits = 8;
  std::optional<std::pair<AugmentedAdt, AugmentedAdt>> masked;
  for (int step = 0; step <= kEdits; ++step) {
    if (step > 0) {
      const std::uint64_t salt = seed * 131 + std::uint64_t(step);
      if (step == 7) masked = masked_edit_pair(current, salt);
      if (step >= 7 && !masked) {
        current = tweak_cost(current, salt);
      } else if (step >= 7) {
        current = std::move(step == 7 ? masked->first : masked->second);
      } else {
        switch (step % 3) {
          case 1:
            current = tweak_cost(current, salt);
            break;
          case 2:
            current = toggle_defense(current, salt);
            break;
          default:
            current = graft_subtree(current, salt);
            break;
        }
      }
    }

    // Cold references, computed without any memo.
    const bool tree = current.adt().is_tree();
    AnalysisOptions cold;
    const Front cold_front = analyze(current, cold).front;

    for (unsigned threads : kThreadCounts) {
      AnalysisOptions options;
      options.intra_model_threads = threads;
      options.run.parallel_node_floor = 0;
      const AnalysisResult warm =
          analyze_incremental(current, memo, options);
      EXPECT_TRUE(warm.front.bit_identical_values(cold_front))
          << "seed " << seed << " step " << step << " @" << threads
          << " threads: incremental front diverged from cold";
      total_hits += warm.memo_hits;
      // The first run of the masked pair's second edit recomputes the
      // spine; the later ones replay the root by subtree key.
      if (masked && step == 8 && threads == kThreadCounts[0]) {
        EXPECT_GT(warm.memo_cutoffs, 0u)
            << "seed " << seed << ": the masked edit never cut off";
      }
    }

    if (tree) {
      // Witness path: witness runs compute cold, and must match the
      // sequential witness vectors bit for bit at every thread count.
      const WitnessFront cold_witness = bottom_up_front_witness(current);
      for (unsigned threads : kThreadCounts) {
        TaskScheduler pool(threads);
        RunContext run;
        run.pool = &pool;
        run.parallel_node_floor = 0;
        const WitnessFront warm = bottom_up_front_witness(current, {}, run);
        ASSERT_TRUE(warm.bit_identical_values(cold_witness))
            << "seed " << seed << " step " << step << " @" << threads
            << " threads: incremental witness values diverged";
        for (std::size_t i = 0; i < warm.size(); ++i) {
          EXPECT_EQ(warm.points()[i].defense, cold_witness.points()[i].defense)
              << "seed " << seed << " step " << step;
          EXPECT_EQ(warm.points()[i].attack, cold_witness.points()[i].attack)
              << "seed " << seed << " step " << step;
        }
      }
    }
  }
  // The sequence re-analyzes each model 3+ times and edits touch one
  // spine, so the memo must have replayed plenty of subtree fronts.
  EXPECT_GT(total_hits, 0u) << "seed " << seed << ": memo never hit";
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(IncrementalFuzzMasked, CutoffsFireForEveryDomainPair) {
  // The seeds' tree models cover every domain pair of the palette; a
  // masked pair on each seed's model must cut off, and stay cold-exact.
  constexpr std::size_t kPairs =
      sizeof(kDomainPalette) / sizeof(kDomainPalette[0]);
  std::uint64_t cutoffs[kPairs] = {};
  for (std::uint64_t seed = 1; seed < 25; seed += 2) {
    const AugmentedAdt model = model_for_seed(seed, false);
    const auto masked = masked_edit_pair(model, seed);
    if (!masked) continue;
    NodeFrontMemo memo;
    (void)analyze_incremental(model, memo);
    for (const AugmentedAdt* edit : {&masked->first, &masked->second}) {
      const AnalysisResult warm = analyze_incremental(*edit, memo);
      EXPECT_TRUE(warm.front.bit_identical_values(analyze(*edit).front))
          << "seed " << seed;
      cutoffs[seed % kPairs] += warm.memo_cutoffs;
    }
  }
  for (std::size_t p = 0; p < kPairs; ++p) {
    EXPECT_GT(cutoffs[p], 0u) << "no cutoff for domain pair " << p;
  }
}

}  // namespace
}  // namespace adtp
