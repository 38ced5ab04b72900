#include "core/naive.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "gen/catalog.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace adtp {
namespace {

TEST(Naive, Example2FeasibleEvents) {
  // S = {(00,010),(01,010),(10,010),(11,110)} on Fig. 3.
  const AugmentedAdt fig3 = catalog::fig3_example();
  const auto events = enumerate_feasible_events(fig3);
  ASSERT_EQ(events.size(), 4u);  // one per defense vector

  auto find = [&](const std::string& delta) -> const FeasibleEvent& {
    for (const auto& ev : events) {
      if (ev.defense.to_string() == delta) return ev;
    }
    throw std::logic_error("missing delta " + delta);
  };

  EXPECT_EQ(find("00").response->to_string(), "010");
  EXPECT_EQ(find("01").response->to_string(), "010");
  EXPECT_EQ(find("10").response->to_string(), "010");
  EXPECT_EQ(find("11").response->to_string(), "110");
  EXPECT_EQ(find("00").attack_value, 10);
  EXPECT_EQ(find("11").attack_value, 15);
  EXPECT_EQ(find("11").defense_value, 15);
}

TEST(Naive, Fig3Front) {
  const AugmentedAdt fig3 = catalog::fig3_example();
  EXPECT_EQ(naive_front(fig3).to_string(), "{(0, 10), (15, 15)}");
}

TEST(Naive, Fig5Front) {
  const AugmentedAdt fig5 = catalog::fig5_example();
  EXPECT_EQ(naive_front(fig5).to_string(), "{(0, 5), (4, 10), (12, inf)}");
}

TEST(Naive, Fig4ExponentialFront) {
  // |PF| = 2^n and each point is (k, k).
  const AugmentedAdt fig4 = catalog::fig4_exponential(5);
  const Front front = naive_front(fig4);
  ASSERT_EQ(front.size(), 32u);
  for (std::size_t k = 0; k < 32; ++k) {
    EXPECT_EQ(front.points()[k].def, static_cast<double>(k));
    EXPECT_EQ(front.points()[k].att, static_cast<double>(k));
  }
}

TEST(Naive, Fig4ResponseMirrorsDefense) {
  // rho(delta) = delta for the Fig. 4 family.
  const AugmentedAdt fig4 = catalog::fig4_exponential(4);
  for (const auto& ev : enumerate_feasible_events(fig4)) {
    ASSERT_TRUE(ev.response.has_value());
    EXPECT_EQ(ev.response->to_string(), ev.defense.to_string());
  }
}

TEST(Naive, MoneyTheftDagFront) {
  EXPECT_EQ(naive_front(catalog::money_theft_dag()).to_string(),
            "{(0, 80), (20, 90), (50, 140)}");
}

TEST(Naive, NoValidAttackYieldsInfinity) {
  // Single attack fully inhibited by a defense: with the defense active
  // there is no successful attack, so rho = "hat" with value 1_oplus.
  Adt adt;
  const NodeId a = adt.add_basic("a", Agent::Attacker);
  const NodeId d = adt.add_basic("d", Agent::Defender);
  adt.add_inhibit("top", a, d);
  adt.freeze();
  Attribution beta;
  beta.set("a", 5);
  beta.set("d", 3);
  const AugmentedAdt aadt(std::move(adt), std::move(beta),
                          Semiring::min_cost(), Semiring::min_cost());
  const auto events = enumerate_feasible_events(aadt);
  ASSERT_EQ(events.size(), 2u);
  bool saw_blocked = false;
  for (const auto& ev : events) {
    if (ev.defense.to_string() == "1") {
      EXPECT_FALSE(ev.response.has_value());
      EXPECT_TRUE(std::isinf(ev.attack_value));
      saw_blocked = true;
    }
  }
  EXPECT_TRUE(saw_blocked);
  EXPECT_EQ(naive_front(aadt).to_string(), "{(0, 5), (3, inf)}");
}

TEST(Naive, WitnessesReplayThroughStructureFunction) {
  const AugmentedAdt dag = catalog::money_theft_dag();
  const WitnessFront front = naive_front_witness(dag);
  ASSERT_EQ(front.size(), 3u);
  for (const auto& p : front.points()) {
    // Witness values must reproduce the point's metric values.
    EXPECT_EQ(dag.defense_vector_value(p.defense), p.def);
    EXPECT_EQ(dag.attack_vector_value(p.attack), p.att);
  }
}

TEST(Naive, MaxBitsGuard) {
  const AugmentedAdt fig4 = catalog::fig4_exponential(6);  // 12 bits
  NaiveOptions options;
  options.max_bits = 11;
  EXPECT_THROW((void)naive_front(fig4, options), LimitError);
  options.max_bits = 12;
  EXPECT_NO_THROW((void)naive_front(fig4, options));
}

TEST(Naive, DeadlineGuard) {
  const AugmentedAdt fig4 = catalog::fig4_exponential(10);
  const Deadline expired(1e-9);
  // Give the deadline a moment to be in the past.
  while (!expired.expired()) {
  }
  RunContext run;
  run.deadline = &expired;
  EXPECT_THROW((void)naive_front(fig4, {}, run), LimitError);
}

TEST(NaiveSharding, FrontIdenticalAcrossThreadCounts) {
  // The sharded enumeration must be invisible in the result: per-delta
  // values are computed independently of the shard layout and dominance
  // minimization only selects among them, so the fronts are *exactly*
  // equal (not merely approximately) for every thread count.
  const AugmentedAdt fig4 = catalog::fig4_exponential(8);  // 2^8 deltas
  const AugmentedAdt dag = catalog::money_theft_dag();
  for (const AugmentedAdt* model : {&fig4, &dag}) {
    const Front sequential = naive_front(*model);
    for (unsigned threads : {2u, 3u, 4u, 8u}) {
      TaskScheduler pool(threads);
      RunContext run;
      run.pool = &pool;
      const Front sharded = naive_front(*model, {}, run);
      EXPECT_TRUE(sharded.same_values(sequential,
                                      model->defender_domain(),
                                      model->attacker_domain()))
          << threads << " threads: " << sharded.to_string() << " vs "
          << sequential.to_string();
    }
  }
}

TEST(NaiveSharding, EventsAndWitnessesIdenticalAcrossThreadCounts) {
  // enumerate_feasible_events fills disjoint slices of one delta-ordered
  // vector, so the event list - bitvecs included - is identical, and the
  // witness front built from it is too.
  // n = 9 keeps 2^9 * 2^9 evaluations above the sharding work floor, so
  // the requested thread count is actually honored.
  const AugmentedAdt fig4 = catalog::fig4_exponential(9);
  const auto sequential = enumerate_feasible_events(fig4);
  TaskScheduler pool(5);  // deliberately not a divisor of 2^9
  RunContext run;
  run.pool = &pool;
  const auto sharded = enumerate_feasible_events(fig4, {}, run);
  ASSERT_EQ(sharded.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sharded[i].defense.to_string(),
              sequential[i].defense.to_string());
    EXPECT_EQ(sharded[i].defense_value, sequential[i].defense_value);
    EXPECT_EQ(sharded[i].attack_value, sequential[i].attack_value);
    ASSERT_EQ(sharded[i].response.has_value(),
              sequential[i].response.has_value());
    if (sequential[i].response.has_value()) {
      EXPECT_EQ(sharded[i].response->to_string(),
                sequential[i].response->to_string());
    }
  }

  const WitnessFront seq_witness = naive_front_witness(fig4);
  const WitnessFront sharded_witness = naive_front_witness(fig4, {}, run);
  ASSERT_EQ(sharded_witness.size(), seq_witness.size());
  for (std::size_t i = 0; i < seq_witness.size(); ++i) {
    EXPECT_EQ(sharded_witness.points()[i].defense.to_string(),
              seq_witness.points()[i].defense.to_string());
    EXPECT_EQ(sharded_witness.points()[i].attack.to_string(),
              seq_witness.points()[i].attack.to_string());
  }
}

TEST(NaiveSharding, ThreadsZeroResolvesToHardware) {
  const AugmentedAdt fig4 = catalog::fig4_exponential(6);
  TaskScheduler pool(0);  // hardware_concurrency
  RunContext run;
  run.pool = &pool;
  EXPECT_TRUE(naive_front(fig4, {}, run)
                  .same_values(naive_front(fig4), fig4.defender_domain(),
                               fig4.attacker_domain()));
}

TEST(NaiveSharding, MoreThreadsThanDeltasIsClamped) {
  // 2^1 = 2 deltas with 16 requested workers: shards are clamped so none
  // is empty, and the result is unchanged.
  const AugmentedAdt fig4 = catalog::fig4_exponential(1);
  TaskScheduler pool(16);
  RunContext run;
  run.pool = &pool;
  EXPECT_TRUE(naive_front(fig4, {}, run)
                  .same_values(naive_front(fig4), fig4.defender_domain(),
                               fig4.attacker_domain()));
}

TEST(NaiveSharding, GuardsFireInsideShards) {
  const AugmentedAdt fig4 = catalog::fig4_exponential(10);
  {
    CancelToken cancel;
    cancel.cancel();
    TaskScheduler pool(4);
    RunContext run;
    run.pool = &pool;
    run.cancel = &cancel;
    EXPECT_THROW((void)naive_front(fig4, {}, run), CancelledError);
    EXPECT_THROW((void)enumerate_feasible_events(fig4, {}, run),
                 CancelledError);
  }
  {
    const Deadline expired(1e-9);
    while (!expired.expired()) {
    }
    TaskScheduler pool(4);
    RunContext run;
    run.pool = &pool;
    run.deadline = &expired;
    EXPECT_THROW((void)naive_front(fig4, {}, run), LimitError);
  }
}

TEST(Naive, ProbabilityDomains) {
  // Attacker maximizes success probability; defender's "cost" is also a
  // probability here (e.g. residual risk budget). Check the response is
  // the max-probability attack.
  Adt adt;
  const NodeId a1 = adt.add_basic("a1", Agent::Attacker);
  const NodeId a2 = adt.add_basic("a2", Agent::Attacker);
  adt.add_gate("top", GateType::Or, Agent::Attacker, {a1, a2});
  adt.freeze();
  Attribution beta;
  beta.set("a1", 0.3);
  beta.set("a2", 0.7);
  const AugmentedAdt aadt(std::move(adt), std::move(beta),
                          Semiring::min_cost(), Semiring::probability());
  const auto events = enumerate_feasible_events(aadt);
  ASSERT_EQ(events.size(), 1u);
  // Best single attack is a2 (0.7); doing both multiplies to 0.21, worse.
  EXPECT_DOUBLE_EQ(events[0].attack_value, 0.7);
  EXPECT_EQ(events[0].response->to_string(), "01");
}

}  // namespace
}  // namespace adtp
