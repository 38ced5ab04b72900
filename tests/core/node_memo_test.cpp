/// NodeFrontMemo is keyed on subtree *content*: identical subtrees in
/// independently built models must share entries, a one-leaf edit must
/// invalidate exactly the root-ward spine, and a memoized re-analysis
/// must be bit-identical to a cold one at every thread count. A spine
/// gate whose child fronts the memo has folded before replays that fold
/// by value key, and only bit-identical child fronts share one. Witness
/// runs never touch the memo. The LRU bound, the stats counters, the
/// strength of the key hashes and the FrontCache-key neutrality of the
/// memo knobs are part of the contract (docs/CONTRACTS.md, "Incremental
/// equals cold").

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/analyzer.hpp"
#include "core/front_cache.hpp"
#include "core/node_memo.hpp"
#include "gen/catalog.hpp"

namespace adtp {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

/// Runs \p algorithm against \p memo through analyze_incremental(), so
/// the result carries this run's memo counts.
AnalysisResult run_memoized(const AugmentedAdt& aadt, NodeFrontMemo& memo,
                            Algorithm algorithm) {
  AnalysisOptions options;
  options.algorithm = algorithm;
  return analyze_incremental(aadt, memo, options);
}

/// fig4 with one leaf's attribute value changed.
AugmentedAdt with_tweaked_leaf(const AugmentedAdt& base, const char* leaf,
                               double value) {
  Attribution attribution = base.attribution();
  attribution.set(leaf, value);
  return AugmentedAdt(base.adt(), attribution, base.defender_domain(),
                      base.attacker_domain());
}

TEST(SubtreeHashes, IdenticalContentHashesEqualAcrossBuilds) {
  const AugmentedAdt a = catalog::fig4_exponential(5);
  const AugmentedAdt b = catalog::fig4_exponential(5);
  EXPECT_EQ(subtree_value_hashes(a), subtree_value_hashes(b));
}

TEST(SubtreeHashes, LeafEditDirtiesExactlyTheSpine) {
  const AugmentedAdt base = catalog::fig4_exponential(5);
  const AugmentedAdt edited = with_tweaked_leaf(base, "d3", 99.0);
  const auto before = subtree_value_hashes(base);
  const auto after = subtree_value_hashes(edited);
  ASSERT_EQ(before.size(), after.size());
  // The dirty spine of a d3 edit is d3, its INH gate I3, and the root.
  const Adt& adt = base.adt();
  const NodeId d3 = adt.at("d3");
  const NodeId i3 = adt.at("I3");
  for (NodeId v = 0; v < before.size(); ++v) {
    const bool on_spine = v == d3 || v == i3 || v == adt.root();
    EXPECT_EQ(before[v] != after[v], on_spine)
        << "node " << adt.name(v) << (on_spine ? " should" : " should not")
        << " change";
  }
}

TEST(SubtreeHashes, LeafBitsNotValuesKeyTheSubtree) {
  // -0.0 and +0.0 compare equal but reach the front as different bits,
  // so they must not share a memo entry.
  const AugmentedAdt base = catalog::fig4_exponential(3);
  const AugmentedAdt positive = with_tweaked_leaf(base, "a1", 0.0);
  const AugmentedAdt negative = with_tweaked_leaf(base, "a1", -0.0);
  const NodeId root = base.adt().root();
  EXPECT_NE(subtree_value_hashes(positive)[root],
            subtree_value_hashes(negative)[root]);
}

TEST(SubtreeHashes, ContextsSeparateAlgorithmsAndLimits) {
  const AugmentedAdt model = catalog::fig4_exponential(4);
  const BddBuOptions bdd;
  EXPECT_NE(bottom_up_memo_context(model, 0), hybrid_memo_context(model, bdd));
  EXPECT_NE(bottom_up_memo_context(model, 0),
            bottom_up_memo_context(model, 64));
  BddBuOptions seeded;
  seeded.order_heuristic = bdd::OrderHeuristic::Random;
  seeded.order_seed = 7;
  EXPECT_NE(hybrid_memo_context(model, bdd), hybrid_memo_context(model, seeded));
}

TEST(NodeFrontMemoStore, LookupInsertRoundTripIsBitIdentical) {
  NodeFrontMemo memo(8);
  const NodeMemoKey key{1, 2};
  const Front front =
      Front::from_staircase({ValuePoint{1, 8}, ValuePoint{3, 2}});
  Front out;
  EXPECT_FALSE(memo.lookup(key, out));
  memo.insert(key, front);
  ASSERT_TRUE(memo.lookup(key, out));
  EXPECT_TRUE(out.bit_identical_values(front));
  const NodeFrontMemo::Stats stats = memo.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // First writer wins: a second front under the live key is dropped.
  memo.insert(key, Front::singleton(ValuePoint{5, 5}));
  ASSERT_TRUE(memo.lookup(key, out));
  EXPECT_TRUE(out.bit_identical_values(front));
  const NodeFrontMemo::Stats after = memo.stats();
  EXPECT_EQ(after.insertions, 1u);
  EXPECT_EQ(after.duplicate_inserts, 1u);
  EXPECT_EQ(after.entries, 1u);
}

TEST(NodeFrontMemoStore, EvictsLeastRecentlyUsedAtCapacity) {
  NodeFrontMemo memo(2);
  memo.insert(NodeMemoKey{1, 0}, Front::singleton(ValuePoint{1, 1}));
  memo.insert(NodeMemoKey{2, 0}, Front::singleton(ValuePoint{2, 2}));
  Front out;
  ASSERT_TRUE(memo.lookup(NodeMemoKey{1, 0}, out));  // refresh key 1
  memo.insert(NodeMemoKey{3, 0}, Front::singleton(ValuePoint{3, 3}));
  EXPECT_TRUE(memo.lookup(NodeMemoKey{1, 0}, out));
  EXPECT_FALSE(memo.lookup(NodeMemoKey{2, 0}, out));  // the LRU victim
  EXPECT_EQ(memo.stats().evictions, 1u);
  EXPECT_EQ(memo.stats().entries, 2u);
}

TEST(NodeFrontMemoStore, CapacityZeroDisablesTheMemo) {
  NodeFrontMemo memo(0);
  memo.insert(NodeMemoKey{1, 0}, Front::singleton(ValuePoint{1, 1}));
  Front out;
  EXPECT_FALSE(memo.lookup(NodeMemoKey{1, 0}, out));
  EXPECT_EQ(memo.stats().entries, 0u);
}

/// The value key of a single-child gate over \p front.
std::uint64_t single_front_key(const Front& front) {
  const NodeId child = 0;
  return value_memo_key(AttackOp::Combine, 0, {&child, 1}, {front}).subtree;
}

TEST(ValueKeys, OnlyBitIdenticalChildFrontsShareAKey) {
  const std::vector<Front> fronts = {
      Front::from_staircase({ValuePoint{0, 4}, ValuePoint{2, 1}}),
      Front::singleton(ValuePoint{0.0, 3}),
      Front::singleton(ValuePoint{-0.0, 3}),
      Front::from_staircase({ValuePoint{0, 4}, ValuePoint{2, 1}}),
  };
  const std::vector<NodeId> a = {0, 1};
  const NodeMemoKey key = value_memo_key(AttackOp::Combine, 7, a, fronts);
  EXPECT_EQ(key, value_memo_key(AttackOp::Combine, 7,
                                std::vector<NodeId>{3, 1}, fronts));
  // -0.0 and +0.0 compare equal but are different bits.
  EXPECT_NE(key, value_memo_key(AttackOp::Combine, 7,
                                std::vector<NodeId>{0, 2}, fronts));
  EXPECT_NE(key, value_memo_key(AttackOp::Combine, 7,
                                std::vector<NodeId>{1, 0}, fronts));
  EXPECT_NE(key, value_memo_key(AttackOp::Choose, 7, a, fronts));
  EXPECT_NE(key, value_memo_key(AttackOp::Combine, 8, a, fronts));
  // Value keys never share a context with subtree keys.
  EXPECT_NE(key.context, 7u);
}

TEST(ValueKeys, TwoPointStaircasesNeverCollide) {
  // Small-integer doubles carry all their bits at the top of the word: a
  // mixer that keeps only the low half of each product (below) collides
  // on these fronts, and a stream of 2,000 checked edits did not notice.
  std::unordered_set<std::uint64_t> keys;
  std::unordered_set<std::uint64_t> weak;
  std::size_t fronts = 0;
  for (int d = 1; d <= 64; ++d) {
    for (int a = 0; a <= 64; ++a) {
      for (int b = a + 1; b <= 64; ++b) {
        const ValuePoint p{0, static_cast<double>(a)};
        const ValuePoint q{static_cast<double>(d), static_cast<double>(b)};
        ++fronts;
        keys.insert(single_front_key(Front::from_staircase({p, q})));
        std::uint64_t h = 0;
        for (const ValuePoint& point : {p, q}) {
          h = (h ^ std::bit_cast<std::uint64_t>(point.def)) *
              0xff51afd7ed558ccdULL;
          h = (h ^ std::bit_cast<std::uint64_t>(point.att)) *
              0xff51afd7ed558ccdULL;
          h ^= h >> 33;
        }
        weak.insert(h);
      }
    }
  }
  EXPECT_EQ(fronts, 133120u);
  EXPECT_EQ(keys.size(), fronts) << fronts - keys.size() << " collisions";
  EXPECT_LT(weak.size(), fronts) << "the set no longer catches a weak mixer";
}

TEST(ValueKeys, NineChildListsDifferingInTwoPositionsNeverCollide) {
  // fronts[0..8] are the base children; fronts[9..] the replacements,
  // none equal to a base front, so every list below is distinct.
  std::vector<Front> fronts;
  for (int i = 0; i < 9; ++i) {
    fronts.push_back(Front::from_staircase(
        {ValuePoint{0, 9.0 + i}, ValuePoint{1, static_cast<double>(i)}}));
  }
  constexpr int kReplacements = 48;
  for (int r = 0; r < kReplacements; ++r) {
    fronts.push_back(Front::from_staircase(
        {ValuePoint{0, 64.0 + r % 8}, ValuePoint{2.0 + r / 8, 1}}));
  }
  std::unordered_map<std::uint64_t, std::vector<NodeId>> seen;
  std::vector<NodeId> children(9);
  for (NodeId i = 0; i < 9; ++i) {
    for (NodeId j = i + 1; j < 9; ++j) {
      for (NodeId x = 0; x < kReplacements; ++x) {
        for (NodeId y = 0; y < kReplacements; ++y) {
          for (NodeId c = 0; c < 9; ++c) children[c] = c;
          children[i] = 9 + x;
          children[j] = 9 + y;
          const NodeMemoKey key =
              value_memo_key(AttackOp::Combine, 1, children, fronts);
          const auto [it, fresh] = seen.emplace(key.subtree, children);
          EXPECT_TRUE(fresh) << "positions " << i << ", " << j
                             << " collide with another list";
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), 36u * kReplacements * kReplacements);
}

TEST(MemoizedBottomUp, WarmRunIsBitIdenticalToColdAtEveryThreadCount) {
  const AugmentedAdt model = catalog::fig4_exponential(7);
  const Front cold = bottom_up_front(model);
  const WitnessFront cold_witness = bottom_up_front_witness(model);

  NodeFrontMemo memo;
  for (unsigned threads : kThreadCounts) {
    TaskScheduler pool(threads);
    RunContext run;
    run.pool = &pool;
    run.parallel_node_floor = 0;
    const WitnessFront warm_witness = bottom_up_front_witness(model, {}, run);
    run.memo = &memo;
    EXPECT_TRUE(bottom_up_front(model, {}, run).bit_identical_values(cold))
        << "memoized@" << threads << " threads diverged from cold";
    EXPECT_TRUE(warm_witness.bit_identical_values(cold_witness));
    for (std::size_t i = 0; i < warm_witness.size(); ++i) {
      EXPECT_EQ(warm_witness.points()[i].defense,
                cold_witness.points()[i].defense);
      EXPECT_EQ(warm_witness.points()[i].attack,
                cold_witness.points()[i].attack);
    }
  }
  // After the first run every gate front is resident: the later runs
  // must be pure replay (single memo hit at the root, zero misses).
  const AnalysisResult warm = run_memoized(model, memo, Algorithm::BottomUp);
  EXPECT_TRUE(warm.front.bit_identical_values(cold));
  EXPECT_EQ(warm.memo_hits, 1u);
  EXPECT_EQ(warm.memo_misses, 0u);
}

TEST(MemoizedBottomUp, WitnessRunsNeverTouchTheMemo) {
  const AugmentedAdt model = catalog::fig4_exponential(7);
  const WitnessFront cold = bottom_up_front_witness(model);
  NodeFrontMemo memo;
  RunContext run;
  run.memo = &memo;
  const WitnessFront witness = bottom_up_front_witness(model, {}, run);
  EXPECT_TRUE(witness.bit_identical_values(cold));
  ASSERT_EQ(witness.size(), cold.size());
  for (std::size_t i = 0; i < witness.size(); ++i) {
    EXPECT_EQ(witness.points()[i].defense, cold.points()[i].defense);
    EXPECT_EQ(witness.points()[i].attack, cold.points()[i].attack);
  }
  const NodeFrontMemo::Stats stats = memo.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(MemoizedBottomUp, LeafEditRecomputesOnlyTheDirtySpine) {
  const AugmentedAdt base = catalog::fig4_exponential(7);
  NodeFrontMemo memo;
  (void)run_memoized(base, memo, Algorithm::BottomUp);  // warm the memo

  const AugmentedAdt edited = with_tweaked_leaf(base, "d4", 1234.0);
  const AnalysisResult incremental =
      run_memoized(edited, memo, Algorithm::BottomUp);
  // fig4's root folds n INH gates; a d4 edit dirties I4 and the root, so
  // the other n-1 INH fronts replay from the memo.
  EXPECT_EQ(incremental.memo_hits, 6u);
  EXPECT_EQ(incremental.memo_misses, 2u);  // I4 and the root
  BottomUpOptions cold;
  EXPECT_TRUE(
      incremental.front.bit_identical_values(bottom_up_front(edited, cold)));
}

TEST(MemoizedBottomUp, MaskedEditReplaysTheRootByValue) {
  // Each block of the Fig. 4 forest caps the attacker's cost with its
  // bypass, so raising a block's heaviest defense a thousandfold leaves
  // the block front unchanged. The first such edit folds the root and
  // files the fold under its value key; the second, in another block,
  // hands the root the same eight block fronts and replays it.
  const AugmentedAdt base = catalog::fig4_forest(8, 11);
  const auto raised = [&](const char* leaf, double extra) {
    return with_tweaked_leaf(base, leaf,
                             1000 * base.attribution().get(leaf) + extra);
  };
  const AugmentedAdt first = raised("d_l0_11", 0);
  const AugmentedAdt second = raised("d_l1_11", 1);
  const std::vector<Front> base_fronts = bottom_up_all_fronts(base);
  for (const AugmentedAdt* edited : {&first, &second}) {
    const std::vector<Front> fronts = bottom_up_all_fronts(*edited);
    for (const char* block : {"block0", "block1"}) {
      const NodeId v = base.adt().at(block);
      ASSERT_TRUE(fronts[v].bit_identical_values(base_fronts[v])) << block;
    }
  }

  for (unsigned threads : kThreadCounts) {
    NodeFrontMemo memo;
    AnalysisOptions options;
    options.intra_model_threads = threads;
    options.run.parallel_node_floor = 0;
    (void)analyze_incremental(base, memo, options);
    const AnalysisResult a = analyze_incremental(first, memo, options);
    const AnalysisResult b = analyze_incremental(second, memo, options);
    EXPECT_TRUE(a.front.bit_identical_values(analyze(first).front));
    EXPECT_TRUE(b.front.bit_identical_values(analyze(second).front));
    EXPECT_EQ(a.memo_cutoffs, 0u) << threads << " threads";
    EXPECT_EQ(b.memo_cutoffs, 1u) << threads << " threads";
    // The root's fold of eight blocks is seven k-way combines.
    EXPECT_EQ(a.combine.kway_combines, 21u) << threads << " threads";
    EXPECT_EQ(b.combine.kway_combines, 14u) << threads << " threads";
    // Subtree-key lookups keep their meaning: both edits dirty the same
    // spine shape.
    EXPECT_EQ(a.memo_hits, b.memo_hits);
    EXPECT_EQ(a.memo_misses, b.memo_misses);
  }
}

TEST(MemoizedBottomUp, ColdRunsBuildNoValueKeys) {
  // A run that replays nothing takes no value-key step, so the memo's
  // counters read exactly what they did before value keys existed:
  // fig4_forest(2, 4) has 27 gates but 9 distinct subtrees.
  const AugmentedAdt model = catalog::fig4_forest(2, 4);
  for (unsigned threads : kThreadCounts) {
    NodeFrontMemo memo;
    AnalysisOptions options;
    options.intra_model_threads = threads;
    options.run.parallel_node_floor = 0;
    const AnalysisResult cold = analyze_incremental(model, memo, options);
    EXPECT_EQ(cold.memo_cutoffs, 0u);
    const NodeFrontMemo::Stats stats = memo.stats();
    EXPECT_EQ(stats.hits, 0u) << threads << " threads";
    EXPECT_EQ(stats.misses, 27u) << threads << " threads";
    EXPECT_EQ(stats.insertions, 9u) << threads << " threads";
    EXPECT_EQ(stats.duplicate_inserts, 18u) << threads << " threads";
    EXPECT_EQ(stats.evictions, 0u) << threads << " threads";
    EXPECT_EQ(stats.entries, 9u) << threads << " threads";
  }
}

TEST(MemoizedHybrid, WarmRunIsBitIdenticalToColdOnADag) {
  // money_theft_dag shares its "phishing" leaf between two subtrees, so
  // Auto routes it to BddBu and analyze_incremental to Hybrid.
  const AugmentedAdt model = catalog::money_theft_dag();
  HybridOptions cold_options;
  const Front cold = hybrid_front(model, cold_options);

  NodeFrontMemo memo;
  const AnalysisResult first =
      run_memoized(model, memo, Algorithm::Hybrid);
  EXPECT_TRUE(first.front.bit_identical_values(cold));
  EXPECT_GT(first.memo_misses, 0u);
  const AnalysisResult second =
      run_memoized(model, memo, Algorithm::Hybrid);
  EXPECT_TRUE(second.front.bit_identical_values(cold));
  EXPECT_EQ(second.memo_hits, 1u);  // root replay
  EXPECT_EQ(second.memo_misses, 0u);
}

TEST(MemoizedHybrid, MaskedEditCutsOffBesideABlob) {
  // fig4_forest(3, 7) under a new root beside a blob: an attacker OR of
  // two ANDs sharing the step "s", which hybrid hands to BDDBU. A masked
  // edit leaves "top" and the root with the same child fronts as the
  // edit before it (the blob's front replayed by subtree key), so the
  // second edit cuts off at both; the blob never takes the value path.
  const AugmentedAdt forest = catalog::fig4_forest(3, 7);
  Adt adt = forest.adt();
  const NodeId s = adt.add_basic("s", Agent::Attacker);
  const NodeId x = adt.add_basic("x", Agent::Attacker);
  const NodeId y = adt.add_basic("y", Agent::Attacker);
  const NodeId sx = adt.add_gate("sx", GateType::And, Agent::Attacker, {s, x});
  const NodeId sy = adt.add_gate("sy", GateType::And, Agent::Attacker, {s, y});
  const NodeId blob =
      adt.add_gate("shared_or", GateType::Or, Agent::Attacker, {sx, sy});
  adt.set_root(adt.add_gate("both", GateType::And, Agent::Attacker,
                            {forest.adt().root(), blob}));
  adt.freeze();
  Attribution beta = forest.attribution();
  beta.set("s", 2);
  beta.set("x", 3);
  beta.set("y", 5);
  const AugmentedAdt base(std::move(adt), std::move(beta),
                          forest.defender_domain(), forest.attacker_domain());
  const auto raised = [&](const char* leaf, double extra) {
    return with_tweaked_leaf(base, leaf,
                             1000 * base.attribution().get(leaf) + extra);
  };
  const AugmentedAdt first = raised("d_l0_7", 0);
  const AugmentedAdt second = raised("d_l1_7", 1);

  NodeFrontMemo memo;
  const AnalysisResult cold = run_memoized(base, memo, Algorithm::Hybrid);
  EXPECT_EQ(cold.blob_count, 1u);
  EXPECT_EQ(cold.memo_cutoffs, 0u);
  const AnalysisResult a = run_memoized(first, memo, Algorithm::Hybrid);
  const AnalysisResult b = run_memoized(second, memo, Algorithm::Hybrid);
  EXPECT_EQ(a.memo_cutoffs, 0u);
  EXPECT_EQ(b.memo_cutoffs, 2u);  // "top" and "both"
  EXPECT_EQ(b.blob_count, 0u);    // the blob replays by subtree key
  EXPECT_EQ(a.tree_combines - b.tree_combines, 2u);
  HybridOptions hybrid;
  EXPECT_TRUE(a.front.bit_identical_values(hybrid_front(first, hybrid)));
  EXPECT_TRUE(b.front.bit_identical_values(hybrid_front(second, hybrid)));
}

TEST(AnalyzeIncremental, ResolvesAutoAndMatchesCold) {
  const AugmentedAdt tree = catalog::fig4_exponential(6);
  const AugmentedAdt dag = catalog::money_theft_dag();
  NodeFrontMemo memo;

  const AnalysisResult tree_warm = analyze_incremental(tree, memo);
  EXPECT_EQ(tree_warm.used, Algorithm::BottomUp);
  EXPECT_TRUE(tree_warm.front.bit_identical_values(analyze(tree).front));
  EXPECT_GT(tree_warm.memo_misses, 0u);

  const AnalysisResult dag_warm = analyze_incremental(dag, memo);
  EXPECT_EQ(dag_warm.used, Algorithm::Hybrid);
  HybridOptions hybrid;
  EXPECT_TRUE(dag_warm.front.bit_identical_values(hybrid_front(dag, hybrid)));

  // Second calls replay from the shared memo.
  const AnalysisResult replay = analyze_incremental(tree, memo);
  EXPECT_EQ(replay.memo_hits, 1u);
  EXPECT_EQ(replay.memo_misses, 0u);
  EXPECT_TRUE(replay.front.bit_identical_values(tree_warm.front));
}

TEST(MemoKnobs, StayOutOfTheFrontCacheKey) {
  const AugmentedAdt model = catalog::fig4_exponential(4);
  NodeFrontMemo memo;
  AnalysisOptions plain;
  AnalysisOptions memoized;
  memoized.run.memo = &memo;
  EXPECT_EQ(front_cache_key(model, plain), front_cache_key(model, memoized));
}

TEST(CustomDomains, BypassTheMemo) {
  const AugmentedAdt base = catalog::fig4_exponential(4);
  // min-cost via opaque hooks: semantically identical, but the hooks
  // cannot be content-hashed, so fronts must not be memoized.
  const Semiring custom = Semiring::custom(
      "custom-cost", 0.0, std::numeric_limits<double>::infinity(),
      [](double a, double b) { return a + b; },
      [](double a, double b) { return a <= b; });
  const AugmentedAdt model(base.adt(), base.attribution(), custom,
                           base.attacker_domain());
  EXPECT_FALSE(cacheable(model));
  NodeFrontMemo memo;
  const AnalysisResult result =
      run_memoized(model, memo, Algorithm::BottomUp);
  EXPECT_EQ(result.memo_hits + result.memo_misses, 0u);
  EXPECT_EQ(memo.stats().entries, 0u);
}

}  // namespace
}  // namespace adtp
