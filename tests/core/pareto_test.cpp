#include "core/pareto.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/cpu.hpp"
#include "util/rng.hpp"

namespace adtp {
namespace {

const Semiring kCost = Semiring::min_cost();
const Semiring kProb = Semiring::probability();

Front make_front(std::vector<ValuePoint> pts) {
  return Front::minimized(std::move(pts), kCost, kCost);
}

TEST(Dominance, Definition9) {
  // (s1,t1) dominates (s2,t2) iff s1 <=_D s2 and t1 >=_A t2.
  const ValuePoint p{5, 20};
  EXPECT_TRUE(dominates(p, ValuePoint{10, 10}, kCost, kCost));
  EXPECT_TRUE(dominates(p, ValuePoint{5, 5}, kCost, kCost));
  EXPECT_TRUE(dominates(p, p, kCost, kCost));  // non-strict
  EXPECT_FALSE(dominates(p, ValuePoint{4, 25}, kCost, kCost));
  EXPECT_FALSE(dominates(p, ValuePoint{4, 10}, kCost, kCost));
  EXPECT_FALSE(dominates(p, ValuePoint{10, 25}, kCost, kCost));
}

TEST(Front, Example3) {
  // X = {(10,10),(5,20),(5,5)}; (5,20) dominates both others.
  const Front front =
      make_front({{10, 10}, {5, 20}, {5, 5}});
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front.front_point().def, 5);
  EXPECT_EQ(front.front_point().att, 20);
}

TEST(Front, StaircaseSortedAndStrict) {
  const Front front = make_front({{0, 5}, {8, 5}, {4, 10}, {12, 8}, {4, 10}});
  // (8,5) dominated by (0,5); (12,8) dominated by (4,10); dup (4,10)
  // collapses.
  ASSERT_EQ(front.size(), 2u);
  EXPECT_EQ(front.points()[0].def, 0);
  EXPECT_EQ(front.points()[0].att, 5);
  EXPECT_EQ(front.points()[1].def, 4);
  EXPECT_EQ(front.points()[1].att, 10);
}

TEST(Front, EqualValuePairsCollapse) {
  const Front front = make_front({{3, 3}, {3, 3}, {3, 3}});
  EXPECT_EQ(front.size(), 1u);
}

TEST(Front, EmptyInputGivesEmptyFront) {
  const Front front = make_front({});
  EXPECT_TRUE(front.empty());
  EXPECT_EQ(front.to_string(), "{}");
}

TEST(Front, SingletonAndToString) {
  const Front front = Front::singleton(ValuePoint{0, 90});
  EXPECT_EQ(front.to_string(), "{(0, 90)}");
}

TEST(Front, InfinityPointsSurvive) {
  // "Perfect defense" points (att = inf) are meaningful and must be kept.
  const Front front = make_front({{0, 5}, {12, kCost.zero()}});
  ASSERT_EQ(front.size(), 2u);
  EXPECT_TRUE(std::isinf(front.points()[1].att));
}

TEST(Front, MergedWith) {
  const Front a = make_front({{0, 5}, {4, 10}});
  const Front b = make_front({{2, 8}, {4, 12}});
  const Front merged = a.merged_with(b, kCost, kCost);
  // (2,8) survives between (0,5) and (4,12); (4,10) dominated by (4,12).
  EXPECT_EQ(merged.to_string(), "{(0, 5), (2, 8), (4, 12)}");
}

TEST(Front, SameValues) {
  const Front a = make_front({{0, 5}, {4, 10}});
  const Front b = make_front({{4, 10}, {0, 5}});
  const Front c = make_front({{0, 5}});
  EXPECT_TRUE(a.same_values(b, kCost, kCost));
  EXPECT_FALSE(a.same_values(c, kCost, kCost));
}

TEST(Front, BitIdenticalValuesComparesBitPatterns) {
  // Signed zeros are equal under == but are different doubles.
  const Front negative = Front::singleton({-0.0, 1});
  const Front positive = Front::singleton({+0.0, 1});
  EXPECT_FALSE(negative.bit_identical_values(positive));
  EXPECT_FALSE(positive.bit_identical_values(negative));
  EXPECT_TRUE(negative.bit_identical_values(Front::singleton({-0.0, 1})));

  // A NaN is unequal to itself under ==, but the same bits are identical.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Front with_nan = Front::from_staircase({{0, 5}, {4, nan}});
  EXPECT_TRUE(with_nan.bit_identical_values(with_nan));
  EXPECT_TRUE(with_nan.bit_identical_values(
      Front::from_staircase({{0, 5}, {4, nan}})));
  EXPECT_FALSE(with_nan.bit_identical_values(
      Front::from_staircase({{0, 5}, {4, 10}})));
  EXPECT_FALSE(with_nan.bit_identical_values(Front::from_staircase({{0, 5}})));
}

TEST(Front, ProbabilityOrderReversed) {
  // Attacker domain probability: higher is better for the attacker, so a
  // point with *lower* success probability is better for the defender.
  const Front front = Front::minimized(
      {{0, 0.9}, {5, 0.5}, {7, 0.6}, {9, 0.1}}, kCost, kProb);
  // (7,0.6) is dominated by (5,0.5): more spend, easier attack.
  EXPECT_EQ(front.size(), 3u);
  EXPECT_EQ(front.points()[0].att, 0.9);
  EXPECT_EQ(front.points()[1].att, 0.5);
  EXPECT_EQ(front.points()[2].att, 0.1);
}

TEST(CombineFronts, Example5OrGate) {
  // The OR-A combination of the two INH fronts from Example 5.
  const Front left = make_front({{0, 5}, {4, kCost.zero()}});
  const Front right = make_front({{0, 10}, {8, kCost.zero()}});
  const Front combined =
      combine_fronts(left, right, AttackOp::Choose, kCost, kCost);
  EXPECT_EQ(combined.to_string(), "{(0, 5), (4, 10), (12, inf)}");
}

TEST(CombineFronts, CombineAddsBothCoordinates) {
  const Front left = make_front({{0, 5}});
  const Front right = make_front({{0, 0}, {4, kCost.zero()}});
  const Front combined =
      combine_fronts(left, right, AttackOp::Combine, kCost, kCost);
  EXPECT_EQ(combined.to_string(), "{(0, 5), (4, inf)}");
}

TEST(CombineFronts, WitnessUnionsAndAdoption) {
  WitnessPoint l;
  l.def = 0;
  l.att = 5;
  l.defense = BitVec::from_string("00");
  l.attack = BitVec::from_string("10");
  WitnessPoint r_cheap;
  r_cheap.def = 0;
  r_cheap.att = 3;
  r_cheap.defense = BitVec::from_string("00");
  r_cheap.attack = BitVec::from_string("01");
  WitnessPoint r_blocked;
  r_blocked.def = 4;
  r_blocked.att = kCost.zero();
  r_blocked.defense = BitVec::from_string("01");
  r_blocked.attack = BitVec::from_string("00");

  const auto left = WitnessFront::singleton(l);
  const auto right =
      WitnessFront::minimized({r_cheap, r_blocked}, kCost, kCost);

  // Choose: the attacker picks the better side; defenses union.
  const auto chosen =
      combine_fronts(left, right, AttackOp::Choose, kCost, kCost);
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_EQ(chosen.points()[0].att, 3);
  EXPECT_EQ(chosen.points()[0].attack.to_string(), "01");  // adopted right
  EXPECT_EQ(chosen.points()[1].att, 5);
  EXPECT_EQ(chosen.points()[1].attack.to_string(), "10");  // kept left
  EXPECT_EQ(chosen.points()[1].defense.to_string(), "01");

  // Combine: both attacks execute; bits union.
  const auto both =
      combine_fronts(left, right, AttackOp::Combine, kCost, kCost);
  EXPECT_EQ(both.points()[0].att, 8);
  EXPECT_EQ(both.points()[0].attack.to_string(), "11");
}

TEST(Front, MinimizedMatchesBruteForceRandomized) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ValuePoint> pts;
    const int n = 1 + static_cast<int>(rng.below(40));
    for (int i = 0; i < n; ++i) {
      pts.push_back(ValuePoint{static_cast<double>(rng.below(12)),
                               static_cast<double>(rng.below(12))});
    }
    const Front fast = Front::minimized(pts, kCost, kCost);
    const auto slow = pareto_min_bruteforce(pts, kCost, kCost);
    // Same size and same value multiset (both deduplicate).
    ASSERT_EQ(fast.size(), slow.size()) << "trial " << trial;
    for (const auto& p : slow) {
      bool found = false;
      for (const auto& q : fast.points()) {
        found = found || (q.def == p.def && q.att == p.att);
      }
      EXPECT_TRUE(found) << "(" << p.def << "," << p.att << ")";
    }
  }
}

TEST(Front, NoKeptPointDominatedProperty) {
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<ValuePoint> pts;
    for (int i = 0; i < 25; ++i) {
      pts.push_back(ValuePoint{static_cast<double>(rng.below(10)),
                               static_cast<double>(rng.below(10))});
    }
    const Front front = Front::minimized(pts, kCost, kCost);
    const auto& kept = front.points();
    for (std::size_t i = 0; i < kept.size(); ++i) {
      for (std::size_t j = 0; j < kept.size(); ++j) {
        if (i == j) continue;
        EXPECT_FALSE(dominates(kept[i], kept[j], kCost, kCost))
            << "kept point dominated by another kept point";
      }
    }
    // And every input point is dominated-or-equal by something kept.
    for (const auto& p : pts) {
      bool covered = false;
      for (const auto& q : kept) {
        covered = covered || dominates(q, p, kCost, kCost);
      }
      EXPECT_TRUE(covered);
    }
  }
}

TEST(AttackOp, Names) {
  EXPECT_STREQ(to_string(AttackOp::Combine), "tensor_A");
  EXPECT_STREQ(to_string(AttackOp::Choose), "oplus_A");
}

/// Cycles through domains with additive, collapsing (max), and
/// reversed-order operations, so the staircase fast paths are exercised
/// where their soundness argument is subtle: a max combine collapses
/// distinct values into equal-def runs, and the probability order
/// reverses the staircase direction.
const Semiring& domain_for(int i) {
  static const Semiring kSkill = Semiring::min_skill();
  switch (i % 3) {
    case 0:
      return kCost;
    case 1:
      return kSkill;
    default:
      return kProb;
  }
}

double random_metric(Rng& rng, const Semiring& domain) {
  return domain.kind() == SemiringKind::Probability
             ? static_cast<double>(rng.below(31)) / 30.0
             : static_cast<double>(rng.below(30));
}

/// A random n-point staircase (n <= 42) whose attacker values come from
/// one small grid shared by every call, so two such staircases often tie
/// on attacker values, and which includes -inf and +inf. Defender values
/// stay finite and distinct in [0, 1], valid in every domain. Choose only
/// compares attacker values, so the infinities are safe there.
template <typename Dd, typename Da>
std::vector<ValuePoint> tied_staircase(Rng& rng, std::size_t n, const Dd& dd,
                                       const Da& da) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> att{-kInf, kInf};
  for (int k = 0; k < 40; ++k) att.push_back(k / 40.0);
  std::vector<double> def;
  for (std::size_t k = 0; k <= 4 * n; ++k) {
    def.push_back(static_cast<double>(k) / static_cast<double>(4 * n + 1));
  }
  // Partial Fisher-Yates: the first n entries become a random subset.
  auto pick = [&](std::vector<double>& pool) {
    for (std::size_t k = 0; k < n; ++k) {
      std::swap(pool[k], pool[k + rng.below(pool.size() - k)]);
    }
    pool.resize(n);
  };
  pick(att);
  pick(def);
  // Best defender value first, paired with the attacker-preferred value:
  // every point survives, so the staircase has exactly n points.
  std::sort(def.begin(), def.end(),
            [&](double x, double y) { return dd.strictly_prefer(x, y); });
  std::sort(att.begin(), att.end(),
            [&](double x, double y) { return da.strictly_prefer(x, y); });
  std::vector<ValuePoint> pts;
  for (std::size_t k = 0; k < n; ++k) pts.push_back(ValuePoint{def[k], att[k]});
  return pts;
}

/// A random n-point staircase (n <= 48) for tensor_A trials. Both
/// coordinates come from one small grid shared by every call plus the
/// domain's zero (+inf for costs, 0 for probabilities), so products of
/// two such staircases tie across rows and across row groups. There is
/// no -inf: -inf + +inf is NaN under +.
template <typename Dd, typename Da>
std::vector<ValuePoint> tensor_staircase(Rng& rng, std::size_t n,
                                         const Dd& dd, const Da& da) {
  const auto pool = [&](double zero) {
    std::vector<double> v{zero};
    for (int k = 1; k <= 48; ++k) v.push_back(k / 48.0);
    if (zero != 0.0) v.push_back(0.0);
    // Partial Fisher-Yates: the first n entries become a random subset.
    for (std::size_t k = 0; k < n; ++k) {
      std::swap(v[k], v[k + rng.below(v.size() - k)]);
    }
    v.resize(n);
    return v;
  };
  std::vector<double> def = pool(dd.zero());
  std::vector<double> att = pool(da.zero());
  std::sort(def.begin(), def.end(),
            [&](double x, double y) { return dd.strictly_prefer(x, y); });
  std::sort(att.begin(), att.end(),
            [&](double x, double y) { return da.strictly_prefer(x, y); });
  std::vector<ValuePoint> pts;
  for (std::size_t k = 0; k < n; ++k) pts.push_back(ValuePoint{def[k], att[k]});
  return pts;
}

/// Operand sizes for tensor_A trials: up to 40 points a side, and on
/// every other trial the smaller side (the rows) is cut just below, at,
/// just above or past the combine's row-group boundaries.
std::pair<std::size_t, std::size_t> tensor_sizes(Rng& rng, int trial) {
  constexpr std::size_t G = simd::kTensorGroupRows;
  constexpr std::size_t kGroupRows[] = {G - 1, G, G + 1, 2 * G + 1};
  std::size_t nl = rng.below(41);
  std::size_t nr = rng.below(41);
  if (trial % 2 == 0) {
    std::size_t& rows = trial % 4 == 0 ? nl : nr;
    std::size_t& cols = trial % 4 == 0 ? nr : nl;
    rows = kGroupRows[(trial / 4) % 4];
    cols = std::max(cols, rows + (trial % 3 == 0 ? 0 : 1));
  }
  return {nl, nr};
}

Front random_front(Rng& rng, std::size_t max_points, const Semiring& da) {
  std::vector<ValuePoint> pts;
  const std::size_t n = 1 + rng.below(max_points);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(ValuePoint{static_cast<double>(rng.below(30)),
                             random_metric(rng, da)});
  }
  return Front::minimized(std::move(pts), kCost, da);
}

TEST(FrontArena, CombineIntoMatchesCombineFronts) {
  // The arena path (buffer reuse + singleton fast path that skips the
  // re-sort) must agree with the allocating reference on random fronts of
  // every size mix, for both Table II attacker ops, across every
  // (defender, attacker) mix of additive, collapsing, and reversed-order
  // domains. Trials run through dispatch_domains so the *static* policy
  // pairs - the ones that enable the no-sort fast path - are what is
  // exercised.
  Rng rng(41);
  FrontArena<ValuePoint> arena;
  for (int trial = 0; trial < 450; ++trial) {
    const Semiring& dsem = domain_for(trial / 3);
    const Semiring& asem = domain_for(trial);
    dispatch_domains(dsem, asem, [&](const auto& dd, const auto& da) {
      auto rand_front = [&](std::size_t max_points) {
        std::vector<ValuePoint> pts;
        const std::size_t n = 1 + rng.below(max_points);
        for (std::size_t i = 0; i < n; ++i) {
          pts.push_back(ValuePoint{random_metric(rng, dsem),
                                   random_metric(rng, asem)});
        }
        return Front::minimized(std::move(pts), dd, da);
      };
      // Some trials force a singleton on one side (the no-sort path).
      const Front lhs = rand_front(trial % 4 == 1 ? 1 : 8);
      const Front rhs = rand_front(trial % 4 == 3 ? 1 : 8);
      const AttackOp op =
          trial % 2 == 0 ? AttackOp::Combine : AttackOp::Choose;

      const Front expected = combine_fronts(lhs, rhs, op, dd, da);
      Front acc = lhs;
      arena.combine_into(acc, rhs, op, dd, da);
      EXPECT_TRUE(acc.same_values(expected, dd, da))
          << "trial " << trial << ": " << acc.to_string() << " vs "
          << expected.to_string();
      return 0;
    });
  }
}

TEST(FrontArena, CombineIntoSelfAliasIsSafe) {
  FrontArena<ValuePoint> arena;
  const Front base = make_front({{0, 5}, {4, 10}, {7, 20}});
  const Front expected =
      combine_fronts(base, base, AttackOp::Combine, kCost, kCost);
  Front acc = base;
  arena.combine_into(acc, acc, AttackOp::Combine, kCost, kCost);
  EXPECT_TRUE(acc.same_values(expected, kCost, kCost));
}

TEST(FrontArena, MergedTransformedMatchesShiftAndMerge) {
  // The sorted-merge path of Algorithm 3's defense step: shift one front's
  // defender coordinate by a constant via tensor_D and union with the
  // other, across every (defender, attacker) domain mix - collapsing max
  // defenders produce equal-def runs the merge must compact, and
  // probability defenders reverse the staircase direction.
  Rng rng(43);
  FrontArena<ValuePoint> arena;
  for (int trial = 0; trial < 450; ++trial) {
    const Semiring& dsem = domain_for(trial / 3);
    const Semiring& asem = domain_for(trial);
    dispatch_domains(dsem, asem, [&](const auto& dd, const auto& da) {
      auto rand_front = [&]() {
        std::vector<ValuePoint> pts;
        const std::size_t n = 1 + rng.below(8);
        for (std::size_t i = 0; i < n; ++i) {
          pts.push_back(ValuePoint{random_metric(rng, dsem),
                                   random_metric(rng, asem)});
        }
        return Front::minimized(std::move(pts), dd, da);
      };
      const Front low = rand_front();
      const Front high = rand_front();
      const double beta = random_metric(rng, dsem);

      std::vector<ValuePoint> reference = low.points();
      for (const ValuePoint& q : high.points()) {
        reference.push_back(ValuePoint{dd.combine(beta, q.def), q.att});
      }
      const Front expected = Front::minimized(std::move(reference), dd, da);

      const Front merged = arena.merged_transformed(
          low, high,
          [&](const ValuePoint& q) {
            return ValuePoint{dd.combine(beta, q.def), q.att};
          },
          dd, da);
      EXPECT_TRUE(merged.same_values(expected, dd, da))
          << "trial " << trial << ": " << merged.to_string() << " vs "
          << expected.to_string();
      return 0;
    });
  }
}

TEST(FrontArena, MergedTransformedSortsForUnmarkedDomains) {
  // Regression: a custom (unmarked) defender domain whose combine
  // violates the monotonicity axiom must still get a valid staircase -
  // the fast merge is reserved for domains marked kMonotoneCombine.
  const Semiring weird = Semiring::custom(
      "absdiff", 0.0, std::numeric_limits<double>::infinity(),
      [](double x, double y) { return std::abs(x - y); },
      [](double x, double y) { return x <= y; });
  FrontArena<ValuePoint> arena;
  const Front low =
      Front::minimized({{1, 9}, {5, 12}, {9, 20}}, weird, kCost);
  const Front high = low;
  const double beta = 6;

  std::vector<ValuePoint> reference = low.points();
  for (const ValuePoint& q : high.points()) {
    reference.push_back(ValuePoint{weird.combine(beta, q.def), q.att});
  }
  const Front expected =
      Front::minimized(std::move(reference), weird, kCost);

  const Front merged = arena.merged_transformed(
      low, high,
      [&](const ValuePoint& q) {
        return ValuePoint{weird.combine(beta, q.def), q.att};
      },
      weird, kCost);
  EXPECT_TRUE(merged.same_values(expected, weird, kCost))
      << merged.to_string() << " vs " << expected.to_string();
}

TEST(Front, MergedWithMatchesMinimizedUnionRandomized) {
  // merged_with is now an O(n+m) staircase merge; it must agree with
  // concatenate-and-minimize on random fronts. Odd trials use the
  // probability attacker domain, whose order (and thus the staircase
  // direction) is reversed.
  Rng rng(47);
  for (int trial = 0; trial < 200; ++trial) {
    const Semiring& da = trial % 2 == 1 ? kProb : kCost;
    const Front a = random_front(rng, 10, da);
    const Front b = random_front(rng, 10, da);
    std::vector<ValuePoint> all = a.points();
    all.insert(all.end(), b.points().begin(), b.points().end());
    const Front expected = Front::minimized(std::move(all), kCost, da);
    const Front merged = a.merged_with(b, kCost, da);
    EXPECT_TRUE(merged.same_values(expected, kCost, da))
        << "trial " << trial << ": " << merged.to_string() << " vs "
        << expected.to_string();
  }
}

TEST(CombineFronts, KWaySortAndBruteForceAgreeFuzz) {
  // The three combine paths must agree on values for random front pairs
  // across every (defender, attacker) mix of additive, collapsing, and
  // reversed-order domains, both Table II ops, and every size mix
  // (empty, singleton, general). The sort path and the O(n^2) brute force
  // are the oracles; the sort-free path is the implementation under test.
  // Choose trials run the linear merge on larger staircases whose
  // attacker values tie across the two sides and include +-inf. Combine
  // trials draw staircases of up to 40 points from a shared value grid,
  // so products tie across rows and row groups, with row counts around
  // the group boundaries (tensor_sizes).
  Rng rng(61);
  for (int trial = 0; trial < 600; ++trial) {
    const Semiring& dsem = domain_for(trial / 3);
    const Semiring& asem = domain_for(trial);
    dispatch_domains(dsem, asem, [&](const auto& dd, const auto& da) {
      const AttackOp op =
          trial % 2 == 0 ? AttackOp::Combine : AttackOp::Choose;
      auto rand_front = [&](std::size_t n) {
        if (op == AttackOp::Choose) {
          return Front::from_staircase(tied_staircase(rng, n, dd, da));
        }
        return Front::from_staircase(tensor_staircase(rng, n, dd, da));
      };
      // Either side may be empty.
      auto [nl, nr] = op == AttackOp::Combine
                          ? tensor_sizes(rng, trial / 2)
                          : std::pair<std::size_t, std::size_t>{
                                rng.below(41), rng.below(41)};
      if (trial % 5 == 1) nl = 1;
      if (trial % 5 == 3) nr = 1;
      const Front lhs = rand_front(nl);
      const Front rhs = rand_front(nr);
      using Dd = std::decay_t<decltype(dd)>;
      using Da = std::decay_t<decltype(da)>;
      EXPECT_TRUE((staircase_combine_eligible<Dd, Da>(op)));

      const Front kway = combine_fronts_kway(lhs, rhs, op, dd, da);
      const Front sorted = combine_fronts_sorted(lhs, rhs, op, dd, da);
      EXPECT_TRUE(kway.same_values(sorted, dd, da))
          << "trial " << trial << ": " << kway.to_string() << " vs "
          << sorted.to_string();

      std::vector<ValuePoint> product;
      detail::product_points(lhs.points(), rhs.points(), op, dd, da,
                             product);
      const auto brute = pareto_min_bruteforce(product, dd, da);
      EXPECT_EQ(kway.size(), brute.size()) << "trial " << trial;
      for (const ValuePoint& p : brute) {
        bool found = false;
        for (const ValuePoint& q : kway.points()) {
          found = found || (dd.equivalent(q.def, p.def) &&
                            da.equivalent(q.att, p.att));
        }
        EXPECT_TRUE(found) << "trial " << trial << ": (" << p.def << ", "
                           << p.att << ") missing from k-way result";
      }
      return 0;
    });
  }
}

/// n points (def_step * i, att0 + att_step * i): a straight staircase.
std::vector<ValuePoint> line_staircase(int n, double def_step,
                                       double att_step, double att0 = 0) {
  std::vector<ValuePoint> pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back(ValuePoint{def_step * i, att0 + att_step * i});
  }
  return pts;
}

TEST(CombineFronts, KWayMatchesSortOnLargeStaircases) {
  // Long staircases where a bug would have many chances to surface:
  //  - Fig. 4-style incomparable staircases whose product prunes heavily
  //    (upper-envelope row drops);
  //  - all-Pareto products in both orientations: coarse rows keep each
  //    row's products contiguous, fine rows interleave them all;
  //  - collinear (2i, i + 1) blocks, as at the edit_loop forest's root,
  //    whose products tie along diagonals across every row group.
  const std::pair<std::vector<ValuePoint>, std::vector<ValuePoint>> shapes[] =
      {{line_staircase(200, 1, 1), line_staircase(200, 3, 2, 1)},
       {line_staircase(40, 50, 50), line_staircase(50, 1, 1)},
       {line_staircase(40, 1, 1), line_staircase(50, 40, 40)},
       {line_staircase(32, 2, 1, 1), line_staircase(32, 2, 1, 1)},
       {line_staircase(218, 2, 1, 1), line_staircase(32, 2, 1, 1)}};
  for (const AttackOp op : {AttackOp::Combine, AttackOp::Choose}) {
    for (const auto& [a, b] : shapes) {
      dispatch_domains(kCost, kCost, [&](const auto& dd, const auto& da) {
        const Front lhs = Front::minimized(a, dd, da);
        const Front rhs = Front::minimized(b, dd, da);
        const Front kway = combine_fronts_kway(lhs, rhs, op, dd, da);
        const Front sorted = combine_fronts_sorted(lhs, rhs, op, dd, da);
        EXPECT_TRUE(kway.same_values(sorted, dd, da))
            << to_string(op) << " " << a.size() << "x" << b.size() << ": "
            << kway.size() << " vs " << sorted.size() << " points";
        return 0;
      });
    }
  }
}

TEST(CombineFronts, TensorTiesKeepTheLowestRowsWitness) {
  // Diagonal staircases: product (i, j) has value (i + j, i + j), so each
  // front value is reached by a run of rows that spans both row groups.
  // The kept witness must be the lowest row's (rows are the smaller
  // operand), in either operand order, identically at every SIMD level.
  constexpr std::size_t kRows = 2 * simd::kTensorGroupRows;
  constexpr std::size_t kCols = kRows + 4;
  const auto diagonal = [](std::size_t n, std::size_t bit_base) {
    std::vector<WitnessPoint> pts;
    for (std::size_t i = 0; i < n; ++i) {
      WitnessPoint p;
      p.def = static_cast<double>(i);
      p.att = static_cast<double>(i);
      p.defense = BitVec(64);
      p.attack = BitVec(64);
      p.defense.set(bit_base + i);
      p.attack.set(bit_base + i);
      pts.push_back(std::move(p));
    }
    return WitnessFront::from_staircase(std::move(pts));
  };
  const WitnessFront rows = diagonal(kRows, 0);
  const WitnessFront cols = diagonal(kCols, 32);
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  for (SimdLevel l : {SimdLevel::Sse2, SimdLevel::Avx2}) {
    if (simd_level_available(l)) levels.push_back(l);
  }
  const MinCostDomain dom;
  for (const bool rows_first : {true, false}) {
    const WitnessFront& lhs = rows_first ? rows : cols;
    const WitnessFront& rhs = rows_first ? cols : rows;
    for (const SimdLevel level : levels) {
      ScopedSimdOverride simd(level);
      FrontArena<WitnessPoint> arena;
      WitnessFront acc = lhs;
      arena.combine_into(acc, rhs, AttackOp::Combine, dom, dom);
      ASSERT_EQ(acc.size(), kRows + kCols - 1) << to_string(level);
      for (std::size_t v = 0; v < acc.size(); ++v) {
        const std::size_t row = v < kCols ? 0 : v - (kCols - 1);
        const WitnessPoint& r = rows.points()[row];
        const WitnessPoint& c = cols.points()[v - row];
        const WitnessPoint want =
            rows_first
                ? detail::product_point(r, c, AttackOp::Combine, dom, dom)
                : detail::product_point(c, r, AttackOp::Combine, dom, dom);
        const WitnessPoint& got = acc.points()[v];
        EXPECT_EQ(got.def, static_cast<double>(v));
        EXPECT_EQ(got.att, static_cast<double>(v));
        EXPECT_TRUE(got.defense == want.defense && got.attack == want.attack)
            << "value " << v << ": want row " << row << ", level "
            << to_string(level) << ", rows_first " << rows_first;
      }
    }
  }
}

TEST(CombineFronts, KWayWitnessesAreValidProducts) {
  // Witness payloads on the sort-free path: every kept point must be the
  // product of an actual (lhs, rhs) point pair - matching values AND the
  // op's witness rule (defense union always; attack union under Combine,
  // adoption of the attacker-preferred side under Choose). Witness
  // *choice* between equal-value products may differ from the sort path;
  // validity may not.
  // Choose trials use larger staircases whose attacker values tie across
  // the two sides and include +-inf, so the merge's tie rule (lhs's
  // attack witness wins) is exercised. Combine trials use tie-heavy
  // staircases of up to 40 points with row counts around the row-group
  // boundaries, so equal-value products compete within and across groups.
  Rng rng(67);
  dispatch_domains(kCost, kCost, [&](const auto& dd, const auto& da) {
    for (int trial = 0; trial < 200; ++trial) {
      const AttackOp op =
          trial % 2 == 0 ? AttackOp::Combine : AttackOp::Choose;
      auto [nl, nr] = op == AttackOp::Combine
                          ? tensor_sizes(rng, trial / 2)
                          : std::pair<std::size_t, std::size_t>{
                                1 + rng.below(24), 1 + rng.below(24)};
      auto rand_witness_front = [&](std::size_t n, std::size_t bit_base) {
        const std::vector<ValuePoint> values =
            op == AttackOp::Choose ? tied_staircase(rng, n, dd, da)
                                   : tensor_staircase(rng, n, dd, da);
        std::vector<WitnessPoint> pts;
        for (std::size_t i = 0; i < values.size(); ++i) {
          WitnessPoint p;
          p.def = values[i].def;
          p.att = values[i].att;
          p.defense = BitVec(128);
          p.attack = BitVec(128);
          p.defense.set(bit_base + i);
          p.attack.set(bit_base + i);
          pts.push_back(std::move(p));
        }
        return WitnessFront::from_staircase(std::move(pts));
      };
      const WitnessFront lhs = rand_witness_front(std::max<std::size_t>(nl, 1), 0);
      const WitnessFront rhs = rand_witness_front(std::max<std::size_t>(nr, 1), 64);

      const WitnessFront kway = combine_fronts_kway(lhs, rhs, op, dd, da);
      const WitnessFront sorted = combine_fronts_sorted(lhs, rhs, op, dd, da);
      EXPECT_TRUE(kway.same_values(sorted, dd, da)) << "trial " << trial;
      std::vector<WitnessPoint> products;
      detail::product_points(lhs.points(), rhs.points(), op, dd, da,
                             products);
      for (const WitnessPoint& r : kway.points()) {
        bool valid = false;
        for (const WitnessPoint& expect : products) {
          valid = valid || (dd.equivalent(expect.def, r.def) &&
                            da.equivalent(expect.att, r.att) &&
                            expect.defense == r.defense &&
                            expect.attack == r.attack);
        }
        EXPECT_TRUE(valid) << "trial " << trial
                           << ": kept point is not a valid product";
      }
    }
  });
}

TEST(CombineFronts, ChooseMergeIsLinearOnFig4Staircases) {
  // Two 512-point Fig. 4 diagonal staircases under oplus_A, identical and
  // interleaved. A k-way tournament pops 131,839 products on each pair;
  // the two-pointer merge visits at most |lhs| + |rhs|.
  std::vector<ValuePoint> diagonal;
  std::vector<ValuePoint> evens;
  std::vector<ValuePoint> odds;
  for (int i = 0; i < 512; ++i) {
    diagonal.push_back(ValuePoint{double(i), double(i)});
    evens.push_back(ValuePoint{double(2 * i), double(2 * i)});
    odds.push_back(ValuePoint{double(2 * i + 1), double(2 * i + 1)});
  }
  const std::pair<Front, Front> pairs[] = {
      {Front::from_staircase(diagonal), Front::from_staircase(diagonal)},
      {Front::from_staircase(evens), Front::from_staircase(odds)}};
  dispatch_domains(kCost, kCost, [&](const auto& dd, const auto& da) {
    for (const auto& [lhs, rhs] : pairs) {
      FrontArena<ValuePoint> arena;
      Front acc = lhs;
      arena.combine_into(acc, rhs, AttackOp::Choose, dd, da);
      EXPECT_EQ(arena.stats().kway_combines, 1u);
      EXPECT_LE(arena.stats().points_examined, 1024u);
      const Front sorted =
          combine_fronts_sorted(lhs, rhs, AttackOp::Choose, dd, da);
      EXPECT_TRUE(acc.bit_identical_values(sorted))
          << acc.size() << " vs " << sorted.size() << " points";
    }
    return 0;
  });
}

TEST(CombineFronts, AutoDispatchesByEligibility) {
  // Static built-in policies certify eligibility; the runtime Semiring
  // and DynamicDomain never do, so combine_fronts falls back to the
  // sorting path for them (and stays correct for a non-monotone custom
  // combine that would break the staircase argument).
  EXPECT_TRUE((staircase_combine_eligible<MinCostDomain, MinSkillDomain>(
      AttackOp::Combine)));
  EXPECT_TRUE((staircase_combine_eligible<ProbabilityDomain, MinCostDomain>(
      AttackOp::Choose)));
  EXPECT_FALSE((staircase_combine_eligible<DynamicDomain, DynamicDomain>(
      AttackOp::Combine)));
  EXPECT_FALSE((staircase_combine_eligible<Semiring, Semiring>(
      AttackOp::Choose)));

  const Semiring weird = Semiring::custom(
      "absdiff", 0.0, std::numeric_limits<double>::infinity(),
      [](double x, double y) { return std::abs(x - y); },
      [](double x, double y) { return x <= y; });
  const Front lhs = Front::minimized({{1, 9}, {5, 12}, {9, 20}}, weird,
                                     kCost);
  const Front rhs = Front::minimized({{2, 3}, {6, 8}}, weird, kCost);
  // Non-monotone custom combine: the auto path must equal the sort oracle.
  const Front combined =
      combine_fronts(lhs, rhs, AttackOp::Choose, weird, kCost);
  const Front sorted =
      combine_fronts_sorted(lhs, rhs, AttackOp::Choose, weird, kCost);
  EXPECT_TRUE(combined.same_values(sorted, weird, kCost));
}

TEST(FrontArena, CombineStatsCountPaths) {
  FrontArena<ValuePoint> arena;
  const Front big = make_front({{0, 5}, {4, 10}, {7, 20}});
  dispatch_domains(kCost, kCost, [&](const auto& dd, const auto& da) {
    Front acc = big;
    arena.combine_into(acc, big, AttackOp::Combine, dd, da);
    return 0;
  });
  EXPECT_EQ(arena.stats().kway_combines, 1u);
  EXPECT_EQ(arena.stats().sorted_combines, 0u);
  EXPECT_GT(arena.stats().points_kept, 0u);

  Front acc = big;  // runtime Semiring: the sorting path
  arena.combine_into(acc, big, AttackOp::Combine, kCost, kCost);
  EXPECT_EQ(arena.stats().kway_combines, 1u);
  EXPECT_EQ(arena.stats().sorted_combines, 1u);
  // The sort path examines the full 3x3 product.
  EXPECT_GE(arena.stats().points_examined, 9u);
}

TEST(Front, TakePointsLeavesEmptyFront) {
  Front front = make_front({{0, 5}, {4, 10}});
  std::vector<ValuePoint> points = front.take_points();
  EXPECT_EQ(points.size(), 2u);
  EXPECT_TRUE(front.empty());
  EXPECT_TRUE(Front::from_staircase(std::move(points))
                  .same_values(make_front({{0, 5}, {4, 10}}), kCost, kCost));
}

}  // namespace
}  // namespace adtp
