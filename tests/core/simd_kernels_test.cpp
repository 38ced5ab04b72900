/// Scalar-as-oracle contract of the SIMD Pareto kernels: for every
/// dispatch level the hardware offers, sweep / merge / sort-free combine
/// must produce *bit-identical* results to the scalar code -
/// same double bits, same witness payloads, same CombineStats counters
/// (simd_lanes_used excepted, which is a throughput diagnostic). The
/// inputs deliberately include attacker plateaus, duplicate points,
/// infinities, and endgame-forcing shapes (singleton x long staircase).
///
/// This suite pins the SIMD scalar-oracle invariant of docs/CONTRACTS.md
/// (the end-to-end version lives in differential_fuzz_test.cpp) - update
/// both together.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/domains.hpp"
#include "core/pareto.hpp"
#include "util/cpu.hpp"
#include "util/rng.hpp"

namespace adtp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<SimdLevel> vector_levels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel l : {SimdLevel::Sse2, SimdLevel::Avx2}) {
    if (simd_level_available(l)) levels.push_back(l);
  }
  return levels;
}

bool same_bits(double x, double y) {
  return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

bool same_payload(const ValuePoint&, const ValuePoint&) { return true; }
bool same_payload(const WitnessPoint& a, const WitnessPoint& b) {
  return a.defense == b.defense && a.attack == b.attack;
}

template <typename P>
::testing::AssertionResult points_identical(const std::vector<P>& got,
                                            const std::vector<P>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_bits(got[i].def, want[i].def) ||
        !same_bits(got[i].att, want[i].att)) {
      return ::testing::AssertionFailure()
             << "value mismatch at " << i << ": (" << got[i].def << ", "
             << got[i].att << ") vs (" << want[i].def << ", " << want[i].att
             << ")";
    }
    if (!same_payload(got[i], want[i])) {
      return ::testing::AssertionFailure() << "witness mismatch at " << i;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Draws a value from a coarse grid so duplicates, plateaus, and (for the
/// unbounded domains) infinities all occur with useful frequency.
template <typename D>
double draw_value(Rng& rng) {
  if (D::kKind == SemiringKind::Probability) {
    return static_cast<double>(rng.range(0, 16)) / 16.0;
  }
  if (rng.range(0, 40) == 0) return kInf;
  return static_cast<double>(rng.range(0, 40)) / 4.0;
}

void fill_payload(ValuePoint&, std::uint64_t) {}
void fill_payload(WitnessPoint& p, std::uint64_t tag) {
  // Unique per-input payload so any gather mix-up is observable.
  p.defense = BitVec(64);
  p.attack = BitVec(64);
  for (std::size_t b = 0; b < 32; ++b) {
    if ((tag >> b) & 1) p.defense.set(b);
    if (((tag * 0x9e3779b97f4a7c15ull) >> b) & 1) p.attack.set(b);
  }
}

template <typename P, typename Dd, typename Da>
std::vector<P> random_points(Rng& rng, std::size_t n, const Dd&, const Da&) {
  std::vector<P> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i].def = draw_value<Dd>(rng);
    pts[i].att = draw_value<Da>(rng);
    fill_payload(pts[i], rng());
  }
  return pts;
}

/// Builds a random staircase of *exactly* \p n points: two strictly
/// increasing integer walks on a shared grid, oriented to each domain's
/// preference direction (minimizing random points instead would collapse
/// to a handful of survivors and never reach the vector block sizes).
/// The shared grid makes equal values across two staircases common, which
/// is what stresses the merge tie-breaks.
template <typename P, typename Dd, typename Da>
std::vector<P> random_staircase(Rng& rng, std::size_t n, const Dd&,
                                const Da&) {
  if (n == 0) return {};
  std::vector<std::uint64_t> xs(n), ys(n);
  std::uint64_t x = static_cast<std::uint64_t>(rng.range(0, 3));
  std::uint64_t y = static_cast<std::uint64_t>(rng.range(0, 3));
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = x;
    ys[i] = y;
    x += static_cast<std::uint64_t>(rng.range(1, 3));
    y += static_cast<std::uint64_t>(rng.range(1, 3));
  }
  const auto grid = [](SemiringKind kind, std::uint64_t v) {
    return kind == SemiringKind::Probability
               ? static_cast<double>(v) / 2048.0
               : static_cast<double>(v) / 8.0;
  };
  std::vector<P> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Walking down the staircase both values strictly worsen for their
    // owner: the defender pays more, the attacker's best response gets
    // less attractive (staircase_push's append condition). "Worsens"
    // flips with each domain's direction.
    pts[i].def = grid(Dd::kKind, Dd::kSimdPrefer == SimdPrefer::LowerIsBetter
                                     ? xs[i]
                                     : xs[n - 1] - xs[i]);
    pts[i].att = grid(Da::kKind, Da::kSimdPrefer == SimdPrefer::LowerIsBetter
                                     ? ys[i]
                                     : ys[n - 1] - ys[i]);
    fill_payload(pts[i], rng());
  }
  return pts;
}

/// Applies \p f to every (defender, attacker) policy pair drawn from the
/// three canonical op-sets, covering all 3 x 3 kernel instantiations.
template <typename F>
void for_each_domain_pair(F&& f) {
  const auto with_da = [&](const auto& dd) {
    f(dd, MinCostDomain{});
    f(dd, MinSkillDomain{});
    f(dd, ProbabilityDomain{});
  };
  with_da(MinCostDomain{});
  with_da(MinSkillDomain{});
  with_da(ProbabilityDomain{});
}

template <typename P>
void expect_sweep_matches_scalar() {
  const auto levels = vector_levels();
  if (levels.empty()) GTEST_SKIP() << "no vector ISA detected";
  Rng rng(0xA11C);
  for_each_domain_pair([&](const auto& dd, const auto& da) {
    for (std::size_t n : {0u, 1u, 7u, 16u, 33u, 257u, 1024u}) {
      std::vector<P> input = random_points<P>(rng, n, dd, da);
      std::sort(input.begin(), input.end(),
                detail::FrontLess<std::decay_t<decltype(dd)>,
                                  std::decay_t<decltype(da)>>{dd, da});
      std::vector<P> want = input;
      {
        ScopedSimdOverride scalar(SimdLevel::Scalar);
        detail::staircase_sweep_in_place(want, dd, da);
      }
      for (SimdLevel level : levels) {
        std::vector<P> got = input;
        ScopedSimdOverride vec(level);
        detail::staircase_sweep_in_place(got, dd, da);
        EXPECT_TRUE(points_identical(got, want))
            << "sweep n=" << n << " level=" << to_string(level);
      }
    }
  });
}

TEST(SimdKernels, SweepMatchesScalarOnValues) {
  expect_sweep_matches_scalar<ValuePoint>();
}

TEST(SimdKernels, SweepMatchesScalarOnWitnesses) {
  expect_sweep_matches_scalar<WitnessPoint>();
}

template <typename P>
void expect_merge_matches_scalar() {
  const auto levels = vector_levels();
  if (levels.empty()) GTEST_SKIP() << "no vector ISA detected";
  Rng rng(0xB22D);
  for_each_domain_pair([&](const auto& dd, const auto& da) {
    const std::size_t sizes[][2] = {{0, 30}, {1, 1},  {5, 200},
                                    {64, 64}, {300, 17}, {128, 256}};
    for (const auto& [na, nb] : sizes) {
      const std::vector<P> a = random_staircase<P>(rng, na, dd, da);
      const std::vector<P> b = random_staircase<P>(rng, nb, dd, da);
      std::vector<P> want;
      {
        ScopedSimdOverride scalar(SimdLevel::Scalar);
        detail::pareto_merge_staircases(a, b, want, dd, da);
      }
      for (SimdLevel level : levels) {
        std::vector<P> got;
        ScopedSimdOverride vec(level);
        detail::pareto_merge_staircases(a, b, got, dd, da);
        EXPECT_TRUE(points_identical(got, want))
            << "merge |a|=" << a.size() << " |b|=" << b.size()
            << " level=" << to_string(level);
      }
    }
  });
}

TEST(SimdKernels, MergeMatchesScalarOnValues) {
  expect_merge_matches_scalar<ValuePoint>();
}

TEST(SimdKernels, MergeMatchesScalarOnWitnesses) {
  expect_merge_matches_scalar<WitnessPoint>();
}

/// The sort-free combine must match scalar point-for-point AND counter-
/// for-counter: points_examined parity is what keeps the pruning
/// telemetry trustworthy across dispatch levels.
template <typename P>
void expect_combine_matches_scalar() {
  const auto levels = vector_levels();
  if (levels.empty()) GTEST_SKIP() << "no vector ISA detected";
  Rng rng(0xC33E);
  for_each_domain_pair([&](const auto& dd, const auto& da) {
    // (1, 400) and (2, 300) spend most of the combine in the vector
    // endgame; (17, 300) and (32, 218) sweep several row groups, each
    // ending in an endgame, and join them with staircase merges.
    const std::size_t sizes[][2] = {{1, 400}, {2, 300},  {3, 120},
                                    {8, 260}, {17, 300}, {32, 218},
                                    {40, 40}, {200, 1}};
    for (AttackOp op : {AttackOp::Combine, AttackOp::Choose}) {
      for (const auto& [nl, nr] : sizes) {
        const auto lhs = BasicFront<P>::from_staircase(
            random_staircase<P>(rng, nl, dd, da));
        const auto rhs = BasicFront<P>::from_staircase(
            random_staircase<P>(rng, nr, dd, da));
        BasicFront<P> want, got;
        CombineStats want_stats, got_stats;
        {
          ScopedSimdOverride scalar(SimdLevel::Scalar);
          FrontArena<P> arena;
          want = lhs;
          arena.combine_into(want, rhs, op, dd, da);
          want_stats = arena.stats();
        }
        for (SimdLevel level : levels) {
          ScopedSimdOverride vec(level);
          FrontArena<P> arena;
          got = lhs;
          arena.combine_into(got, rhs, op, dd, da);
          got_stats = arena.stats();
          EXPECT_TRUE(points_identical(got.points(), want.points()))
              << "combine " << nl << "x" << nr << " op=" << to_string(op)
              << " level=" << to_string(level);
          EXPECT_EQ(got_stats.points_examined, want_stats.points_examined)
              << "examined parity " << nl << "x" << nr << " op="
              << to_string(op) << " level=" << to_string(level);
          EXPECT_EQ(got_stats.points_kept, want_stats.points_kept);
        }
        EXPECT_EQ(want_stats.simd_lanes_used, 0u);
      }
    }
  });
}

TEST(SimdKernels, CombineKwayMatchesScalarOnValues) {
  expect_combine_matches_scalar<ValuePoint>();
}

TEST(SimdKernels, CombineKwayMatchesScalarOnWitnesses) {
  expect_combine_matches_scalar<WitnessPoint>();
}

TEST(SimdKernels, VectorLevelsReportLanes) {
  const auto levels = vector_levels();
  if (levels.empty()) GTEST_SKIP() << "no vector ISA detected";
  const MinCostDomain dd;
  const ProbabilityDomain da;
  Rng rng(0xD44F);
  const auto lhs = BasicFront<ValuePoint>::from_staircase(
      random_staircase<ValuePoint>(rng, 1, dd, da));
  const auto rhs = BasicFront<ValuePoint>::from_staircase(
      random_staircase<ValuePoint>(rng, 500, dd, da));
  for (SimdLevel level : levels) {
    ScopedSimdOverride vec(level);
    FrontArena<ValuePoint> arena;
    BasicFront<ValuePoint> acc = lhs;
    arena.combine_into(acc, rhs, AttackOp::Combine, dd, da);
    EXPECT_GT(arena.stats().simd_lanes_used, 0u)
        << "level=" << to_string(level);
  }
}

}  // namespace
}  // namespace adtp
