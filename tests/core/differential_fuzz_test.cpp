/// Cross-algorithm differential fuzz harness.
///
/// Four algorithms now share one semantics (Theorems 1-2 plus the hybrid
/// decomposition), and all four are additionally parameterized by an
/// intra-model thread count that must not change a single bit of output.
/// This suite pits them all against each other on seeded random models:
///
///  - oracle agreement: naive (Algorithm 2) is ground truth; bottom-up
///    (trees), BDDBU, and hybrid must reproduce its front;
///  - thread invariance: every parallel algorithm must produce
///    *bit-identical* fronts - and witnesses - at 1, 2, and 8 threads
///    (this is what keeps the thread knobs out of the FrontCache key);
///  - witness validity: every witness must replay through the structure
///    function and match its claimed metric values.
///
/// This suite pins the determinism and cache-key-neutrality invariants
/// of docs/CONTRACTS.md - update both together.
///
/// On failure the offending model is dumped as a .adt file (plus its
/// generator seed) so the case can be replayed with
/// `adt_cli analyze <file>` or a targeted unit test.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "adt/structure.hpp"
#include "adt/text_format.hpp"
#include "core/analyzer.hpp"
#include "gen/random_adt.hpp"
#include "util/cpu.hpp"

namespace adtp {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

struct FuzzDomains {
  SemiringKind defender;
  SemiringKind attacker;
};

// A rotating palette of Table I domain pairs (see cross_algorithm_test for
// the full matrix; here the goal is breadth per seed, not per pair).
constexpr FuzzDomains kDomainPalette[] = {
    {SemiringKind::MinCost, SemiringKind::MinCost},
    {SemiringKind::MinCost, SemiringKind::MinTimePar},
    {SemiringKind::MinSkill, SemiringKind::MinCost},
    {SemiringKind::MinCost, SemiringKind::Probability},
    {SemiringKind::MinTimeSeq, SemiringKind::MinSkill},
};

/// Exact (bitwise, not domain-equivalent) front comparison: the thread
/// invariance contract is that the same doubles come out.
template <typename P>
bool bit_identical_values(const BasicFront<P>& a, const BasicFront<P>& b) {
  return a.bit_identical_values(b);
}

bool bit_identical_witnesses(const WitnessFront& a, const WitnessFront& b) {
  if (!bit_identical_values(a, b)) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.points()[i].defense != b.points()[i].defense) return false;
    if (a.points()[i].attack != b.points()[i].attack) return false;
  }
  return true;
}

/// Dumps the model next to the test binary's temp dir and returns a
/// replay hint appended to every failure message of the case.
std::string dump_model(const AugmentedAdt& aadt, std::uint64_t seed) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("adtp_differential_fuzz_seed" + std::to_string(seed) +
                     ".adt");
  save_adt_file(aadt, path.string());
  return "seed " + std::to_string(seed) + "; model dumped to " +
         path.string() + " (replay: adt_cli analyze " + path.string() + ")";
}

AugmentedAdt model_for_seed(std::uint64_t seed, bool dag) {
  RandomAdtOptions options;
  options.share_probability = dag ? 0.3 : 0.0;
  options.max_defenses = 6;
  options.root_agent = seed % 3 == 0 ? Agent::Defender : Agent::Attacker;
  const FuzzDomains domains =
      kDomainPalette[seed % (sizeof(kDomainPalette) /
                             sizeof(kDomainPalette[0]))];
  // Every case runs the naive oracle ~8 times (value + witness paths at
  // several thread counts), each a 2^|D| x 2^|A| scan - and the TSan CI
  // job amplifies that by ~50x on oversubscribed runners. |D| is capped
  // by the generator; cap |A| too by shrinking the target until the
  // model fits the budget (deterministic per seed).
  for (std::size_t target = 16 + seed % 18;; target -= 4) {
    options.target_nodes = target;
    AugmentedAdt aadt = generate_random_aadt(
        options, seed, Semiring{domains.defender}, Semiring{domains.attacker});
    if (aadt.adt().num_attacks() <= 12 || target <= 8) return aadt;
  }
}

/// Relative-error comparison for witness metric replay: the kernels and
/// AugmentedAdt::*_vector_value combine the same leaf values in
/// different association orders, which double arithmetic only preserves
/// up to ULPs (same tolerance rationale as Front::approx_same_values).
void expect_value_replays(double replayed, double claimed,
                          const char* context) {
  if (replayed == claimed) return;  // covers equal infinities
  const double scale = std::max({1.0, std::abs(replayed), std::abs(claimed)});
  EXPECT_LE(std::abs(replayed - claimed), 1e-9 * scale) << context;
}

/// Validates one witness front against the structure function. An
/// attacker value of 1_oplus_A (inf for the min-* domains, 0 for
/// probability) is the "no successful attack exists" sentinel - there is
/// no attack vector to replay then.
void expect_witnesses_valid(const AugmentedAdt& aadt,
                            const WitnessFront& front, const char* who) {
  StructureEvaluator eval(aadt.adt());
  const double no_attack = aadt.attacker_domain().zero();
  for (const auto& p : front.points()) {
    expect_value_replays(
        aadt.defense_vector_value(p.defense), p.def,
        (std::string(who) + ": defense witness does not replay").c_str());
    if (p.att == no_attack) continue;  // no successful attack recorded
    expect_value_replays(
        aadt.attack_vector_value(p.attack), p.att,
        (std::string(who) + ": attack witness does not replay").c_str());
    EXPECT_TRUE(eval.attack_succeeds(p.defense, p.attack))
        << who << ": witness attack does not succeed";
  }
}

class DifferentialFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialFuzz, AlgorithmsAgreeAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  const bool dag = seed % 2 == 0;
  const AugmentedAdt aadt = model_for_seed(seed, dag);

  // Oracle (sequential naive).
  const Front oracle = naive_front(aadt);

  // Floor 0 forces every kernel's pool even on these tiny models; each
  // thread count runs with this context plus its own pool.
  RunContext base;
  base.parallel_node_floor = 0;
  auto on = [&](TaskScheduler& pool) {
    RunContext run = base;
    run.pool = &pool;
    return run;
  };

  // Naive: values must be bit-identical for every thread count (the
  // per-delta computation is sharding-invariant by construction).
  for (unsigned threads : kThreadCounts) {
    TaskScheduler pool(threads);
    EXPECT_TRUE(bit_identical_values(naive_front(aadt, {}, on(pool)), oracle))
        << "naive@" << threads << " threads diverged";
  }

  // BDDBU: bit-identical across thread counts, oracle-equal in value.
  const Front bdd_reference = bdd_bu_front(aadt, {}, base);
  EXPECT_TRUE(bdd_reference.approx_same_values(oracle))
      << "BDDBU " << bdd_reference.to_string() << " vs naive "
      << oracle.to_string();
  for (unsigned threads : kThreadCounts) {
    TaskScheduler pool(threads);
    EXPECT_TRUE(bit_identical_values(bdd_bu_front(aadt, {}, on(pool)),
                                     bdd_reference))
        << "bdd@" << threads << " threads diverged";
  }

  // Hybrid: same contract, its run context handed to every blob.
  const Front hybrid_reference = hybrid_front(aadt, {}, base);
  EXPECT_TRUE(hybrid_reference.approx_same_values(oracle))
      << "hybrid " << hybrid_reference.to_string() << " vs naive "
      << oracle.to_string();
  for (unsigned threads : kThreadCounts) {
    TaskScheduler pool(threads);
    EXPECT_TRUE(bit_identical_values(hybrid_front(aadt, {}, on(pool)),
                                     hybrid_reference))
        << "hybrid@" << threads << " threads diverged";
  }

  // Bottom-up only applies to trees: oracle-equal in value, and the
  // sibling-subtree task DAG must be bit-identical to the sequential
  // walk - front AND witnesses - at every thread count.
  if (aadt.adt().is_tree()) {
    const Front bu_reference = bottom_up_front(aadt);
    EXPECT_TRUE(bu_reference.approx_same_values(oracle))
        << "bottom-up diverged from naive";
    const WitnessFront bu_witness = bottom_up_front_witness(aadt);
    expect_witnesses_valid(aadt, bu_witness, "bottom-up");
    for (unsigned threads : kThreadCounts) {
      TaskScheduler pool(threads);
      EXPECT_TRUE(bit_identical_values(bottom_up_front(aadt, {}, on(pool)),
                                       bu_reference))
          << "bottom-up@" << threads << " threads diverged";
      EXPECT_TRUE(bit_identical_witnesses(
          bottom_up_front_witness(aadt, {}, on(pool)), bu_witness))
          << "bottom-up witness@" << threads << " threads diverged";
    }
  }

  // Witness paths: bit-identical (values AND events) across thread
  // counts, and every witness must replay.
  const WitnessFront naive_witness = naive_front_witness(aadt);
  expect_witnesses_valid(aadt, naive_witness, "naive");
  for (unsigned threads : kThreadCounts) {
    TaskScheduler pool(threads);
    EXPECT_TRUE(bit_identical_witnesses(
        naive_front_witness(aadt, {}, on(pool)), naive_witness))
        << "naive witness@" << threads << " threads diverged";
  }

  const WitnessFront bdd_witness = bdd_bu_front_witness(aadt, {}, base);
  expect_witnesses_valid(aadt, bdd_witness, "bdd");
  for (unsigned threads : kThreadCounts) {
    TaskScheduler pool(threads);
    EXPECT_TRUE(bit_identical_witnesses(
        bdd_bu_front_witness(aadt, {}, on(pool)), bdd_witness))
        << "bdd witness@" << threads << " threads diverged";
  }

  if (HasFailure()) {
    ADD_FAILURE() << dump_model(aadt, seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Range<std::uint64_t>(1, 41));

/// Scalar-as-oracle contract of the SIMD dispatch (util/cpu.hpp): on the
/// same seeds, every algorithm run with the vector kernels enabled must
/// produce bit-identical fronts AND witnesses to a forced-scalar run, at
/// every thread count. This is the end-to-end check behind the ADTP_SIMD
/// knob - the kernels-level version lives in simd_kernels_test.cpp.
class SimdVsScalar : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimdVsScalar, AutoDispatchMatchesForcedScalarBitForBit) {
  if (detected_simd_level() == SimdLevel::Scalar) {
    GTEST_SKIP() << "no vector ISA detected; dispatch is already scalar";
  }
  const std::uint64_t seed = GetParam();
  const AugmentedAdt aadt = model_for_seed(seed, /*dag=*/seed % 2 == 0);

  // Forced-scalar references, one per algorithm.
  Front scalar_naive, scalar_bdd, scalar_hybrid, scalar_bu;
  WitnessFront scalar_naive_w, scalar_bdd_w;
  const bool tree = aadt.adt().is_tree();
  RunContext base;
  base.parallel_node_floor = 0;  // same pool shape as the SIMD runs
  {
    ScopedSimdOverride scalar(SimdLevel::Scalar);
    scalar_naive = naive_front(aadt);
    scalar_bdd = bdd_bu_front(aadt, {}, base);
    scalar_hybrid = hybrid_front(aadt, {}, base);
    if (tree) scalar_bu = bottom_up_front(aadt);
    scalar_naive_w = naive_front_witness(aadt);
    scalar_bdd_w = bdd_bu_front_witness(aadt, {}, base);
  }

  // Auto dispatch (whatever the CPU offers) at every thread count.
  for (unsigned threads : kThreadCounts) {
    TaskScheduler pool(threads);
    RunContext run = base;
    run.pool = &pool;
    EXPECT_TRUE(
        bit_identical_values(naive_front(aadt, {}, run), scalar_naive))
        << "naive@" << threads << " threads diverged from scalar";
    EXPECT_TRUE(bit_identical_witnesses(naive_front_witness(aadt, {}, run),
                                        scalar_naive_w))
        << "naive witness@" << threads << " threads diverged from scalar";

    EXPECT_TRUE(bit_identical_values(bdd_bu_front(aadt, {}, run), scalar_bdd))
        << "bdd@" << threads << " threads diverged from scalar";
    EXPECT_TRUE(bit_identical_witnesses(bdd_bu_front_witness(aadt, {}, run),
                                        scalar_bdd_w))
        << "bdd witness@" << threads << " threads diverged from scalar";

    EXPECT_TRUE(
        bit_identical_values(hybrid_front(aadt, {}, run), scalar_hybrid))
        << "hybrid@" << threads << " threads diverged from scalar";

    if (tree) {
      EXPECT_TRUE(
          bit_identical_values(bottom_up_front(aadt, {}, run), scalar_bu))
          << "bottom-up@" << threads << " threads diverged from scalar";
    }
  }

  if (HasFailure()) {
    ADD_FAILURE() << dump_model(aadt, seed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdVsScalar,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace adtp
